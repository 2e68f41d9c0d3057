"""Tests for total-variation curves, decay fitting, the block reflector of
the U(n) walk, and the trace-moment mixing diagnostic on U(n)."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haarconc
from haarconc.groups import (
    StepDistribution,
    _sample_reflection_batch,
    haar_unitaries,
    reflection_matrices,
)
from haarconc.kernel import FiniteGroupTable, walk_operator
from haarconc import mixing, workers
from haarconc.mixing import (
    DecayFit,
    TVCurve,
    exact_tv_curve,
    fit_decay,
    _BLOCK_STEPS,
    _reflect_block,
    unitary_mixing_diagnostic,
)


from test_experiments import (  # noqa: F401 (fixture)
    record_range,
    recorded_items,
    recorded_ranges,
    use_workers,
    wait_for_a_child,
    worker_time_limit,
)
from test_kernel import dense_kernel


def scatter_laws(n: int, k_max: int) -> list:
    """Laws of Y_1 ... Y_k for k = 0 .. k_max by scatter convolution: each
    step pushes the mass at x to y o x, one support element y at a time."""
    table = FiniteGroupTable(n)
    support = [(table.left_action(y), float(mass)) for y, mass in StepDistribution(n).support()]
    law = np.zeros(table.size)
    law[table.identity_index] = 1.0
    laws = [law]
    for _ in range(k_max):
        nxt = np.zeros(table.size)
        for action, mass in support:
            nxt[action] += mass * law
        law = nxt
        laws.append(law)
    return laws


def walk_law(op, k: int) -> np.ndarray:
    """The exact walk law at step k, as exact_tv_curve keeps it for a
    target that no distance meets."""
    return exact_tv_curve(op, k, law_below=-1.0).law


def walk_bytes(n: int) -> int:
    """One walk's working set in a walk group, b(n) = (n^2 + 4sn + 2s^2 +
    6s) 16 B for blocks of s steps: the walk matrix, four s x n buffers (the
    block's draws among them), its s x s factors and its s-vectors."""
    s = _BLOCK_STEPS
    return (n * n + 4 * s * n + 2 * s * s + 6 * s) * 16


# The traced peak of a fresh interpreter's first full walk group at n =
# argv[1], over 3 _BLOCK_STEPS steps.  The caller's generator has imported
# numpy.random before any group, and the seed is made before the group runs.
FIRST_GROUP_PEAK = """
import sys, tracemalloc
import numpy as np
from haarconc import mixing
n = int(sys.argv[1])
k_max = 3 * mixing._BLOCK_STEPS
acc, seed = np.zeros((2, k_max)), np.random.SeedSequence(n)
tracemalloc.start()
mixing._walk_group(n, k_max, mixing._group_size(n), seed, acc, 0)
print(tracemalloc.get_traced_memory()[1])
"""


def first_group_peak(n: int) -> int:
    """FIRST_GROUP_PEAK(n) in a child process: bytes."""
    src = str(Path(haarconc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FIRST_GROUP_PEAK, str(n)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout)


def walk_groups(n: int, reps: int) -> list:
    """The walk columns of each walk group, as the diagnostic splits them."""
    return workers.ranges(reps, mixing._group_size(n))


def group_seeds(rng: np.random.Generator, groups: int) -> list:
    """One seed per walk group: the children of SeedSequence.spawn from a
    SeedSequence keyed by two 63-bit integers drawn from rng.  The
    diagnostic makes child g itself, as SeedSequence(entropy,
    spawn_key=(g,)), when group g starts."""
    return np.random.SeedSequence(rng.integers(2**63, size=2).tolist()).spawn(groups)


def group_walk_moments(n: int, k_max: int, reps: int, rng: np.random.Generator, walk):
    """m(k) and its standard errors with each walk group of walk_groups
    walked on its own stream from group_seeds, in one call
    walk(n, k_max, m, group_rng) that returns |Tr W_k|^2 for k = 1 .. k_max
    as a (k_max, m) array."""
    groups = walk_groups(n, reps)
    seeds = group_seeds(rng, len(groups))
    sq = np.empty((k_max + 1, reps))
    sq[0] = n * n
    for walks, seed in zip(groups, seeds):
        sq[1:, walks.start:walks.stop] = walk(n, k_max, len(walks), np.random.default_rng(seed))
    moments = sq.mean(axis=1)
    stderrs = sq.std(axis=1, ddof=1) / np.sqrt(reps)
    return moments, stderrs


def pairwise(mean_a, m2_a, count, size, mean_b, m2_b):
    """Mean and sum of squared deviations of count + size values from those
    of their first count and last size values (Chan, Golub & LeVeque)."""
    delta = mean_b - mean_a
    return (mean_a + delta * (size / (count + size)),
            m2_a + (m2_b + delta * delta * (count * size / (count + size))))


def unit_walk_moments(n: int, k_max: int, reps: int, rng: np.random.Generator, walk):
    """m(k) and its standard errors from the walks of group_walk_moments,
    reduced as the diagnostic streams them: each group's moments taken
    two-pass per block of _BLOCK_STEPS steps and merged into its unit's, the
    units (whole groups of at least 64 walks) merged in order."""
    size = mixing._group_size(n)
    unit = size * math.ceil(64 / size)
    seeds = group_seeds(rng, len(walk_groups(n, reps)))
    total = (np.zeros(k_max), np.zeros(k_max))
    for lo in range(0, reps, unit):
        hi = min(lo + unit, reps)
        acc = (np.zeros(k_max), np.zeros(k_max))
        for start in range(lo, hi, size):
            m = min(size, hi - start)
            sq = walk(n, k_max, m, np.random.default_rng(seeds[start // size]))
            blocks = [sq[first : first + _BLOCK_STEPS] for first in range(0, k_max, _BLOCK_STEPS)]
            means = [block.mean(axis=1) for block in blocks]
            m2s = [np.sum((block - mean[:, None]) ** 2, axis=1) for block, mean in zip(blocks, means)]
            acc = pairwise(*acc, start - lo, m, np.concatenate(means), np.concatenate(m2s))
        total = pairwise(*total, lo, hi - lo, *acc)
    moments = np.concatenate(([n * n], total[0]))
    stderrs = np.concatenate(([0.0], np.sqrt(total[1] / (reps - 1)) / np.sqrt(reps)))
    return moments, stderrs


def conj_transpose(u: np.ndarray) -> np.ndarray:
    """U^H of each matrix of a stack, as a contiguous array."""
    return np.ascontiguousarray(u.conj().transpose(0, 2, 1))


def reflect(w: np.ndarray, u: np.ndarray, c: np.ndarray, traces: np.ndarray) -> None:
    """_reflect_block on fresh buffers: U^H, U^H W and the rows of its tiles,
    as many as _walk_group gives it (_BLOCK_STEPS per walk)."""
    u_h = conj_transpose(u)
    _reflect_block(w, u, u_h, c, traces, np.empty_like(u_h),
                   np.empty((w.shape[0], _BLOCK_STEPS, w.shape[2]), dtype=np.complex128))


def block_draws(n: int, m: int, steps: int, rng: np.random.Generator):
    """u (m, n, steps) and phi (m, steps) of one block of m walks, from one
    _sample_reflection_batch call of m * steps draws: draw i * steps + j is
    step j of walk i."""
    u, phi = _sample_reflection_batch(n, m * steps, rng)
    return u.reshape(m, steps, n).transpose(0, 2, 1), phi.reshape(m, steps)


def block_walk(n: int, k_max: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """|Tr W_k|^2 of m walks stepped together, one block reflector of up to
    _BLOCK_STEPS steps at a time, on the whole stack."""
    w = np.broadcast_to(np.eye(n, dtype=np.complex128), (m, n, n)).copy()
    sq = np.empty((k_max, m))
    for first in range(0, k_max, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, k_max - first)
        u, phi = block_draws(n, m, steps, rng)
        traces = np.empty((steps, m), dtype=np.complex128)
        reflect(w, u, 1.0 - np.exp(1j * phi), traces)
        sq[first : first + steps] = np.abs(traces) ** 2
    return sq


def einsum_walk(n: int, k_max: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """|Tr W_k|^2 of m walks stepped together one reflection at a time, as
    the walk was first written: an einsum for u* W and a fresh outer
    product.  The reflections are drawn a block of _BLOCK_STEPS at a time,
    as the diagnostic draws them."""
    w = np.broadcast_to(np.eye(n, dtype=np.complex128), (m, n, n)).copy()
    sq = np.empty((k_max, m))
    for k in range(k_max):
        if k % _BLOCK_STEPS == 0:
            block_u, block_phi = block_draws(n, m, min(_BLOCK_STEPS, k_max - k), rng)
        u, phi = block_u[:, :, k % _BLOCK_STEPS], block_phi[:, k % _BLOCK_STEPS]
        uw = np.einsum("ri,rij->rj", u.conj(), w)
        w -= (1.0 - np.exp(1j * phi))[:, None, None] * u[:, :, None] * uw[:, None, :]
        sq[k] = np.abs(np.trace(w, axis1=1, axis2=2)) ** 2
    return sq


def exact_trace_moment(n: int, k: np.ndarray) -> np.ndarray:
    """E|Tr W_k|^2 = 1 + (n^2 - 1) ((n - 1)/(n + 1))^(2k) for the reflection walk."""
    return 1.0 + (n * n - 1.0) * ((n - 1.0) / (n + 1.0)) ** (2 * k)


class TestTVCurve:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TVCurve(np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            TVCurve(np.array([-0.1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TVCurve(np.array([]))

    def test_len(self):
        assert len(TVCurve(np.array([1.0, 0.5, 0.2]))) == 3


class TestExactWalkLaw:
    """The law exact_tv_curve keeps, the one finite-group samples from."""

    def test_step_zero_is_point_mass_at_identity(self):
        law = walk_law(walk_operator(3), 0)
        table = FiniteGroupTable(3)
        expected = np.zeros(6)
        expected[table.identity_index] = 1.0
        assert np.array_equal(law, expected)

    def test_step_one_equals_step_masses(self):
        law = walk_law(walk_operator(3), 1)
        table = FiniteGroupTable(3)
        for perm, mass in StepDistribution(3).support():
            assert law[table.rank(perm)] == pytest.approx(float(mass), abs=1e-16)

    def test_is_probability_vector(self):
        for k in (0, 1, 5, 12):
            law = walk_law(walk_operator(4), k)
            assert np.all(law >= 0.0)
            assert abs(law.sum() - 1.0) <= 1e-13

    def test_matches_kernel_powers(self):
        # k-fold convolution of the step law = identity row of the k-th
        # power of the dense kernel built from compose and invert.
        n = 4
        p = dense_kernel(n)
        row = np.zeros(p.shape[0])
        row[0] = 1.0
        for k in range(8):
            law = walk_law(walk_operator(n), k)
            assert float(np.max(np.abs(law - row))) <= 1e-13
            row = row @ p

    def test_bit_equal_to_scatter_convolution(self):
        for n in range(2, 8):
            k_max = 3 * n
            laws = scatter_laws(n, k_max)
            for k in (0, 1, n, k_max):
                assert np.array_equal(walk_law(walk_operator(n), k), laws[k])


class TestExactTVCurve:
    def test_initial_distance(self):
        for n in (2, 3, 5):
            curve = exact_tv_curve(walk_operator(n), 0)
            assert curve.values[0] == pytest.approx(1.0 - 1.0 / math.factorial(n), abs=1e-15)

    def test_one_step_hand_value_on_s3(self):
        # Half of |1/3 - 1/6| + 3|2/9 - 1/6| + 2|0 - 1/6| = 1/3.
        curve = exact_tv_curve(walk_operator(3), 1)
        assert abs(curve.values[1] - 1.0 / 3.0) <= 1e-14

    def test_mixes_below_target_on_s3(self):
        curve = exact_tv_curve(walk_operator(3), 20)
        assert curve.values[-1] <= 1e-6

    def test_non_increasing(self):
        for n in (3, 4, 5, 6):
            curve = exact_tv_curve(walk_operator(n), 30)
            diffs = np.diff(curve.values)
            assert float(np.max(diffs)) <= 1e-14

    def test_half_n_log_n_scale_on_s6(self):
        k = math.ceil(6 * math.log(6))
        curve = exact_tv_curve(walk_operator(6), k)
        assert curve.values[k] < 0.5

    def test_bit_equal_to_scatter_convolution(self):
        for n in range(2, 8):
            k_max = 25 * n
            uniform = 1.0 / math.factorial(n)
            want = [0.5 * float(np.sum(np.abs(law - uniform))) for law in scatter_laws(n, k_max)]
            assert np.array_equal(exact_tv_curve(walk_operator(n), k_max).values, np.array(want))

    @pytest.mark.parametrize("target", [1.0, 1e-6])
    def test_keeps_law_at_first_step_below_target(self, target):
        op = walk_operator(5)
        curve = exact_tv_curve(op, 125, law_below=target)
        k = int(np.nonzero(curve.values <= target)[0][0])
        assert curve.law_step == k
        assert np.array_equal(curve.law, walk_law(op, k))

    def test_keeps_last_law_when_target_is_not_reached(self):
        op = walk_operator(4)
        curve = exact_tv_curve(op, 5, law_below=1e-6)
        assert curve.values[-1] > 1e-6
        assert curve.law_step == 5
        assert np.array_equal(curve.law, walk_law(op, 5))

    @pytest.mark.parametrize("law_below", [-1.0, 1.0, 1e-6])
    @pytest.mark.parametrize("steps_per_degree", [25, 50])
    def test_equals_a_walk_that_applies_every_step(self, steps_per_degree, law_below):
        # The curve stops at the walk's fixed point (never reached at
        # n = 4); a walk that applies the operator at every k must read the
        # same values and keep the same law.
        for n in range(2, 8):
            op = walk_operator(n)
            k_max = steps_per_degree * n
            law = np.zeros(op.size)
            law[op.table.identity_index] = 1.0
            values, kept = [], None
            for k in range(k_max + 1):
                if k:
                    law = op.apply(law)
                values.append(0.5 * float(np.sum(np.abs(law - 1.0 / op.size))))
                if kept is None and (values[-1] <= law_below or k == k_max):
                    kept = (k, law)
            curve = exact_tv_curve(op, k_max, law_below)
            assert np.array_equal(curve.values, np.array(values))
            assert curve.law_step == kept[0]
            assert np.array_equal(curve.law, kept[1])

    def test_keeps_no_law_without_target(self):
        curve = exact_tv_curve(walk_operator(3), 4)
        assert curve.law_step is None and curve.law is None

    def test_degree_cap(self):
        assert len(exact_tv_curve(walk_operator(8), 2)) == 3
        with pytest.raises(ValueError):
            exact_tv_curve(walk_operator(9), 5)


class TestFitDecay:
    def test_recovers_synthetic_exponential(self):
        k = np.arange(40)
        curve = TVCurve(np.minimum(0.8 * np.exp(-0.7 * k), 1.0))
        fit = fit_decay(curve)
        assert abs(fit.a - 0.8) <= 1e-9
        assert abs(fit.b - 0.7) <= 1e-9
        assert abs(fit.tau - math.log(0.8) / 0.7) <= 1e-9
        assert fit.residual <= 1e-9

    def test_envelope_dominates_lazy_walk_curve(self):
        curve = exact_tv_curve(walk_operator(4), 60)
        fit = fit_decay(curve)
        assert fit.b > 0
        ks = np.arange(len(curve))
        envelope = fit.a * np.exp(-fit.b * ks)
        mask = curve.values > 1e-12
        assert np.all(envelope[mask] >= curve.values[mask] * (1.0 - 1e-12))

    def test_accepts_raw_array(self):
        vals = 0.3 * np.exp(-0.5 * np.arange(20))
        fit = fit_decay(vals)
        assert abs(fit.b - 0.5) <= 1e-9

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_decay(TVCurve(np.array([0.9, 0.8, 0.7])))

    def test_non_decaying_curve(self):
        vals = np.full(10, 0.25)
        with pytest.raises(ValueError):
            fit_decay(vals)

    def test_negative_floor(self):
        with pytest.raises(ValueError):
            fit_decay(np.array([0.4, 0.2, 0.1, 0.05]), floor=-1.0)

    def test_window_excludes_plateau(self):
        vals = np.concatenate([np.full(5, 0.9), 0.4 * np.exp(-0.3 * np.arange(30))])
        fit = fit_decay(vals)
        assert fit.window[0] >= 5
        assert abs(fit.b - 0.3) <= 1e-9


# Angles where c = 1 - e^{i phi} vanishes, nearly vanishes, is 2, or nearly
# vanishes from the other side.
EDGE_ANGLES = (0.0, 1e-9, math.pi, 2.0 * math.pi - 1e-9)


def block_parameters(n: int, s: int, walks: int, seed: int):
    """u (walks, n, s), phi (walks, s) and c = 1 - e^{i phi} for s steps of
    `walks` walks; walk i < 4 takes the edge angles in rotation."""
    rng = np.random.default_rng(seed)
    draws = [_sample_reflection_batch(n, walks, rng) for _ in range(s)]
    u = np.stack([d[0] for d in draws], axis=2)
    phi = np.stack([d[1] for d in draws], axis=1)
    for i in range(len(EDGE_ANGLES)):
        for j in range(s):
            phi[i, j] = EDGE_ANGLES[(i + j) % len(EDGE_ANGLES)]
    return u, phi, 1.0 - np.exp(1j * phi)


# Matrix orders n of TestBlockReflector, 6 walks each: the rows of
# _BLOCK_STEPS per walk hold tiles of 48 // n walks, one partial tile of all
# six at n = 2, 3 and 5, tiles of 4 and a partial 2 at n = 12, and tiles of
# one walk at n = 32; at n = 64 and 100 they hold bands of 48 rows of one
# walk, the last band partial.
REFLECTOR_NS = [2, 3, 5, 12, 32, 64, 100]


class TestBlockReflector:
    @pytest.mark.parametrize("n", REFLECTOR_NS)
    @pytest.mark.parametrize("s", range(1, _BLOCK_STEPS + 1))
    def test_equals_dense_product_of_reflections(self, n, s):
        walks = 6
        u, phi, c = block_parameters(n, s, walks, seed=10 * n + s)
        w = np.broadcast_to(np.eye(n, dtype=np.complex128), (walks, n, n)).copy()
        traces = np.empty((s, walks), dtype=np.complex128)
        reflect(w, u, c, traces)
        dense = np.broadcast_to(np.eye(n, dtype=np.complex128), (walks, n, n)).copy()
        for j in range(s):
            dense = reflection_matrices(u[:, :, j], phi[:, j]) @ dense
        assert float(np.max(np.abs(w - dense))) <= 1e-13

    @pytest.mark.parametrize("n", REFLECTOR_NS)
    @pytest.mark.parametrize("s", range(1, _BLOCK_STEPS + 1))
    def test_prefix_traces_equal_one_step_walk(self, n, s):
        walks = 6
        u, phi, c = block_parameters(n, s, walks, seed=10 * n + s)
        rng = np.random.default_rng(100 + n)
        shape = (walks, n, n)
        start = haar_unitaries(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        w = start.copy()
        traces = np.empty((s, walks), dtype=np.complex128)
        reflect(w, u, c, traces)
        stepped = start.copy()
        for j in range(s):
            stepped = reflection_matrices(u[:, :, j], phi[:, j]) @ stepped
            want = np.trace(stepped, axis1=1, axis2=2)
            np.testing.assert_allclose(traces[j], want, rtol=1e-12, atol=0.0)
        assert float(np.max(np.abs(w - stepped))) <= 1e-13


class TestUnitaryMixingDiagnostic:
    def test_initial_moment_exact(self):
        d = unitary_mixing_diagnostic(3, 2, 1000, np.random.default_rng(0))
        assert d.moments[0] == 9.0
        assert d.stderrs[0] == 0.0

    def test_rejects_small_replicate_count(self):
        with pytest.raises(ValueError):
            unitary_mixing_diagnostic(3, 2, 500, np.random.default_rng(0))

    def test_converges_to_haar_moment(self):
        d = unitary_mixing_diagnostic(8, 40, 3000, np.random.default_rng(0))
        assert abs(d.moments[-1] - 1.0) <= 4.0 * d.stderrs[-1]
        # Decay is visible well above the noise floor.
        assert d.deviations[20] < d.deviations[5] < d.deviations[1]

    def test_fit_is_labeled_proxy(self):
        d = unitary_mixing_diagnostic(8, 40, 3000, np.random.default_rng(0))
        assert "PROXY" in d.note
        assert d.fit is not None
        assert d.fit.b > 0
        assert d.fit.window[1] - d.fit.window[0] >= 2
        # The certified prefactor covers the exact k=0 deviation n^2 - 1.
        assert d.fit.a >= d.deviations[0] * (1.0 - 1e-12)
        lo, hi = d.fit.window
        for k in range(lo, hi + 1):
            assert d.fit.a * math.exp(-d.fit.b * k) >= d.deviations[k] * (1.0 - 1e-9)

    def test_no_window_case_is_flagged(self):
        d = unitary_mixing_diagnostic(4, 3, 1000, np.random.default_rng(1))
        assert d.fit is None
        assert "no usable fit window" in d.note

    def test_determinism(self):
        d1 = unitary_mixing_diagnostic(5, 6, 1200, np.random.default_rng(42))
        d2 = unitary_mixing_diagnostic(5, 6, 1200, np.random.default_rng(42))
        assert np.array_equal(d1.moments, d2.moments)
        assert np.array_equal(d1.stderrs, d2.stderrs)

    def test_matches_exact_moment_curve(self):
        n, k_max = 8, 40
        d = unitary_mixing_diagnostic(n, k_max, 3000, np.random.default_rng(0))
        exact = exact_trace_moment(n, np.arange(k_max + 1))
        assert d.moments[0] == exact[0]
        assert np.all(np.abs(d.moments[1:] - exact[1:]) <= 5.0 * d.stderrs[1:])

    def test_agrees_with_einsum_walk(self):
        d = unitary_mixing_diagnostic(8, 40, 3000, np.random.default_rng(0))
        moments, stderrs = group_walk_moments(8, 40, 3000, np.random.default_rng(0), einsum_walk)
        np.testing.assert_allclose(d.moments, moments, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(d.stderrs, stderrs, rtol=1e-12, atol=0.0)

    # Group sizes in walks (None: the default budget):
    # (5, 11, 1001, 300): groups 300, 300, 300 and a partial 101, blocks of 8
    # and a partial 3; (32, 9, 1000, None): eight of 117 and a partial 64,
    # blocks of 8 and 1; (3, 8, 1000, 1000): one group ending exactly at
    # reps, one full block; (2, 3, 1000, 0): one walk per group, units of 64 groups and
    # a partial unit of 40.  The reference walks each group on its own stream
    # with the whole group at once and reduces the units in order, so the
    # schedule and the worker processes must not change a bit.
    @pytest.mark.parametrize(
        "n,k_max,reps,walks",
        [(5, 11, 1001, 300), (32, 9, 1000, None), (3, 8, 1000, 1000), (2, 3, 1000, 0)],
        ids=["5-11-1001", "32-9-1000", "3-8-1000", "2-3-1000"],
    )
    def test_blocked_walk_equals_reference_walk(self, n, k_max, reps, walks, monkeypatch):
        if walks is not None:
            monkeypatch.setattr(mixing, "_GROUP_BYTES", walks * walk_bytes(n))
        rng = np.random.default_rng(2024)
        d = unitary_mixing_diagnostic(n, k_max, reps, rng)
        ref_rng = np.random.default_rng(2024)
        moments, stderrs = unit_walk_moments(n, k_max, reps, ref_rng, block_walk)
        assert np.array_equal(d.moments, moments)
        assert np.array_equal(d.stderrs, stderrs)
        # The caller's generator only keys the group seeds.
        stream = np.random.default_rng(2024)
        stream.integers(2**63, size=2)
        assert rng.bit_generator.state == stream.bit_generator.state
        assert ref_rng.bit_generator.state == stream.bit_generator.state


def walk_plan(monkeypatch, n: int, k_max: int, reps: int) -> workers.Plan:
    """The workers.plan of unitary_mixing_diagnostic(n, k_max, reps), taken
    before any walk: the diagnostic plans before it runs its groups."""
    plans = []
    real_plan = workers.plan

    def no_run(*args):
        raise LookupError("planned")

    with monkeypatch.context() as m:
        m.setattr(workers, "plan", lambda *args: plans.append(real_plan(*args)) or plans[-1])
        m.setattr(workers, "run", no_run)
        with pytest.raises(LookupError, match="planned"):
            unitary_mixing_diagnostic(n, k_max, reps, np.random.default_rng(0))
    return plans[0]


@pytest.mark.usefixtures("worker_time_limit")
class TestWalkGroups:
    @pytest.mark.parametrize("n,reps", [(2, 1000), (5, 1001), (32, 1000), (32, 4000), (700, 1000)])
    def test_groups_tile_the_walks(self, n, reps):
        groups = walk_groups(n, reps)
        size = max(1, mixing._GROUP_BYTES // walk_bytes(n))
        assert groups[0].start == 0 and groups[-1].stop == reps
        assert all(a.stop == b.start for a, b in zip(groups, groups[1:]))
        assert all(len(walks) == size for walks in groups[:-1])
        assert 1 <= len(groups[-1]) <= size

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_a_group_holds_the_group_budget(self, n):
        # The whole working set of a group fits _GROUP_BYTES, not its walk
        # matrices alone: sized by those, a group at n = 2 held 65 536 walks
        # and about 300 MB.  Beside the walks a group holds the draws'
        # division buffer and 16 KiB for its generator and array headers.
        fixed = np.getbufsize() * 8 + 16 * 1024
        assert mixing._group_bytes(n, 10**6) <= mixing._GROUP_BYTES + fixed

    def test_small_walks_run_on_every_cpu(self, monkeypatch):
        # 20 000 walks at n = 2 are 19 groups on two CPUs; sized by their
        # walk matrices alone they were one group, and one CPU idled.
        use_workers(monkeypatch, 2)
        assert walk_plan(monkeypatch, 2, 128, 20000).workers == 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_walk_runs_once(self, cpus, monkeypatch, tmp_path):
        # Eleven groups of 100 walks and one of 30, a unit each, each
        # recorded by the worker that runs it: a group run twice or never,
        # as by overlapping or short slices, shows here whatever the moments
        # read.
        log = tmp_path / "walks"
        real_group = mixing._walk_group

        def recorded_group(n, k_max, m, seed, acc, count):
            lo = 100 * seed.spawn_key[0]
            record_range(log, range(lo, lo + m))
            real_group(n, k_max, m, seed, acc, count)

        monkeypatch.setattr(mixing, "_GROUP_BYTES", 100 * walk_bytes(4))
        monkeypatch.setattr(mixing, "_walk_group", recorded_group)
        forks = use_workers(monkeypatch, cpus)
        unitary_mixing_diagnostic(4, 3, 1130, np.random.default_rng(0))
        assert len(forks) == cpus - 1
        assert recorded_items(log) == list(range(1130))

    def test_dead_worker_names_the_walks_it_held(self, monkeypatch, tmp_path):
        # Four units of 250 walks at n = 8.  The child dies in the first
        # group it runs, which the parent waits for: the error names the
        # walks of the unit the child held.
        monkeypatch.setattr(mixing, "_GROUP_BYTES", 250 * walk_bytes(8))
        parent, log = os.getpid(), tmp_path / "walks"
        real_group = mixing._walk_group

        def die_in_child(n, k_max, m, seed, acc, count):
            lo = 250 * seed.spawn_key[0]
            if os.getpid() != parent:
                record_range(log, range(lo, lo + m))
                os._exit(9)
            wait_for_a_child(log, parent)
            real_group(n, k_max, m, seed, acc, count)

        monkeypatch.setattr(mixing, "_walk_group", die_in_child)
        use_workers(monkeypatch, 2)
        assert mixing._unit_size(8) == 250
        with pytest.raises(workers.WorkerError) as raised:
            unitary_mixing_diagnostic(8, 4, 1000, np.random.default_rng(0))
        held, = recorded_ranges(log)
        assert str(raised.value) == (
            f"the worker for replicates {held.start}..{held.stop - 1} exited with status 9")

    def test_group_streams_differ(self, monkeypatch):
        # 1000 groups of one walk each: group g is seeded by child g of the
        # spawn, and no two streams start alike.
        seeds = []
        monkeypatch.setattr(mixing, "_walk_group", lambda n, k, m, seed, *rest: seeds.append(seed))
        use_workers(monkeypatch, 1)
        monkeypatch.setattr(mixing, "_GROUP_BYTES", 1)
        unitary_mixing_diagnostic(2, 1, 1000, np.random.default_rng(0))
        want = group_seeds(np.random.default_rng(0), 1000)
        assert ([seed.generate_state(4).tolist() for seed in seeds]
                == [child.generate_state(4).tolist() for child in want])
        firsts = {float(np.random.default_rng(seed).standard_normal()) for seed in seeds}
        assert len(firsts) == 1000

    def test_group_seeds_are_made_as_the_groups_start(self, monkeypatch):
        # At n = 512 a group is one walk; a seed list made before the first
        # step took 8.8 MiB here.
        monkeypatch.setattr(mixing, "_walk_group", lambda *args: None)
        use_workers(monkeypatch, 1)
        tracemalloc.start()
        try:
            unitary_mixing_diagnostic(512, 1, 20000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_same_result_on_any_worker_count(self, monkeypatch):
        # 7 groups: six of 150 walks and one of 100.
        monkeypatch.setattr(mixing, "_GROUP_BYTES", 150 * walk_bytes(8))
        results = {}
        for count in (1, 2, 3):
            forks = use_workers(monkeypatch, count)
            results[count] = unitary_mixing_diagnostic(8, 10, 1000, np.random.default_rng(7))
            assert len(forks) == count - 1
        for count in (2, 3):
            assert np.array_equal(results[count].moments, results[1].moments)
            assert np.array_equal(results[count].stderrs, results[1].stderrs)
            assert np.array_equal(results[count].deviations, results[1].deviations)

    def test_more_workers_than_cores_on_the_fork_path(self, monkeypatch):
        # 40 groups of 25 walks in 14 units of up to three groups, on 8
        # forked workers: a lost or misplaced unit would change the moments.
        monkeypatch.setattr(mixing, "_GROUP_BYTES", 25 * walk_bytes(4))
        use_workers(monkeypatch, 1)
        want = unitary_mixing_diagnostic(4, 9, 1000, np.random.default_rng(3))
        forks = use_workers(monkeypatch, 8)
        got = unitary_mixing_diagnostic(4, 9, 1000, np.random.default_rng(3))
        assert len(forks) == 7
        assert np.array_equal(got.moments, want.moments)
        assert np.array_equal(got.stderrs, want.stderrs)

    def test_memory_estimate_counts_the_workers_that_run(self, monkeypatch):
        # Three CPUs and a budget that fits two of the five groups beside
        # the moments and the curve: the estimate holds two groups in
        # flight, and the run forks once.
        n, k_max, reps = 8, 6, 1250
        monkeypatch.setattr(mixing, "_GROUP_BYTES", 250 * walk_bytes(n))
        group = mixing._group_bytes(n, reps)
        forks = use_workers(monkeypatch, 3)
        # Five units of one group each, and the curve's rows.
        moments = 5 * 2 * k_max * 8 + (k_max + 1) * mixing.CURVE_POINT_BYTES
        monkeypatch.setattr(workers, "BYTES_BUDGET", 2 * group + moments)
        estimate = walk_plan(monkeypatch, n, k_max, reps).estimate
        unitary_mixing_diagnostic(n, k_max, reps, np.random.default_rng(0))
        assert estimate == (len(forks) + 1) * group + moments
        assert len(forks) == 1

    @pytest.mark.parametrize("n", [2, 5, 32, 64, 100, 200, 256])
    def test_group_bytes_bound_the_traced_peak(self, n):
        # One group's walk matrices, its four s x n buffers, a block's s x s
        # factors and s-vectors, the draws' division buffer and the group's
        # generator, traced in a fresh interpreter, as a worker's first group
        # runs.  A leftover group-sized buffer would add n^2 per walk; a
        # fresh draw array per block kept through the next draw s n per walk,
        # and an identity copied into the walks n^2 per group (at n = 256).
        assert 0.8 <= first_group_peak(n) / mixing._group_bytes(n, mixing._group_size(n)) <= 1.0

    @pytest.mark.parametrize("cpus", [1, 2, 16])
    def test_walk_memory_does_not_grow_with_the_walks(self, cpus, monkeypatch):
        # Ten times the walks add only their units' moment accumulators, on
        # as many workers as the CPUs let both runs start.
        use_workers(monkeypatch, cpus)
        n, k_max = 32, 128
        units = [-(-reps // mixing._unit_size(n)) for reps in (4000, 40000)]
        growth = (walk_plan(monkeypatch, n, k_max, 40000).estimate
                  - walk_plan(monkeypatch, n, k_max, 4000).estimate)
        assert growth <= (units[1] - units[0]) * 2 * k_max * 8

    @pytest.mark.parametrize("n", [2, 32, 64, 65, 100, 4096])
    def test_units_hold_whole_groups_of_at_least_64_walks(self, n):
        size, unit = mixing._group_size(n), mixing._unit_size(n)
        assert unit % size == 0
        assert 64 <= unit < 64 + size
        assert unit == size if size >= 64 else unit > size

    def test_usable_cpus_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert workers.usable_cpus() == 1
        monkeypatch.delattr(workers.os, "sched_getaffinity")
        monkeypatch.setattr(workers.os, "cpu_count", lambda: 3)
        assert workers.usable_cpus() == 3
