"""Tests for total-variation curves, decay fitting, the reflection-walk
envelope, and the trace-moment mixing diagnostic on U(n)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarconc.groups import StepDistribution, _sample_reflection_batch
from haarconc.kernel import FiniteGroupTable, build_exact_kernel
from haarconc.mixing import (
    DecayFit,
    TVCurve,
    exact_tv_curve,
    exact_walk_law,
    fit_decay,
    reflection_walk_envelope,
    reflection_walk_tv_bound,
    unitary_mixing_diagnostic,
)


def lazy(n: int) -> StepDistribution:
    return StepDistribution.lazy_transposition(n)


def walk_moments(n: int, k_max: int, reps: int, rng: np.random.Generator, update):
    """m(k) and its standard errors from all walks stepped together, one
    step at a time, by update(w, u, phi)."""
    w = np.broadcast_to(np.eye(n, dtype=np.complex128), (reps, n, n)).copy()
    sq = np.empty((k_max + 1, reps))
    sq[0] = n * n
    for k in range(1, k_max + 1):
        u, phi = _sample_reflection_batch(n, reps, rng)
        update(w, u, phi)
        sq[k] = np.abs(np.trace(w, axis1=1, axis2=2)) ** 2
    moments = np.array([float(np.mean(row)) for row in sq])
    stderrs = np.array([float(np.std(row, ddof=1) / np.sqrt(reps)) for row in sq])
    return moments, stderrs


def matmul_update(w, u, phi):
    """The arithmetic of the blocked walk, on the full stack."""
    cu = (1.0 - np.exp(1j * phi))[:, None] * u
    w -= cu[:, :, None] * (u.conj()[:, None, :] @ w)


def einsum_update(w, u, phi):
    """The walk as first written: an einsum for u* W and a fresh outer product."""
    uw = np.einsum("ri,rij->rj", u.conj(), w)
    w -= (1.0 - np.exp(1j * phi))[:, None, None] * u[:, :, None] * uw[:, None, :]


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
    def test_step_zero_is_point_mass_at_identity(self):
        law = exact_walk_law(3, lazy(3), 0)
        table = FiniteGroupTable(3)
        expected = np.zeros(6)
        expected[table.identity_index] = 1.0
        assert np.array_equal(law, expected)

    def test_step_one_equals_step_masses(self):
        law = exact_walk_law(3, lazy(3), 1)
        table = FiniteGroupTable(3)
        for perm, mass in lazy(3).support():
            assert law[table.rank(perm)] == pytest.approx(float(mass), abs=1e-16)

    def test_is_probability_vector(self):
        for k in (0, 1, 5, 12):
            law = exact_walk_law(4, lazy(4), k)
            assert np.all(law >= 0.0)
            assert abs(law.sum() - 1.0) <= 1e-13

    def test_matches_kernel_powers(self):
        # k-fold convolution of the step law = identity row of the k-th
        # kernel power; the two are computed by different code paths.
        n = 4
        kern = build_exact_kernel(n, lazy(n))
        row = np.zeros(kern.size)
        row[kern.table.identity_index] = 1.0
        for k in range(8):
            law = exact_walk_law(n, lazy(n), k)
            assert float(np.max(np.abs(law - row))) <= 1e-13
            row = row @ kern.matrix

    def test_rejects_reflection_kind(self):
        with pytest.raises(ValueError):
            exact_walk_law(3, StepDistribution.unitary_reflection(3), 1)


class TestExactTVCurve:
    def test_initial_distance(self):
        for n in (2, 3, 5):
            curve = exact_tv_curve(n, lazy(n), 0)
            assert curve.values[0] == pytest.approx(1.0 - 1.0 / math.factorial(n), abs=1e-15)

    def test_one_step_hand_value_on_s3(self):
        # Half of |1/3 - 1/6| + 3|2/9 - 1/6| + 2|0 - 1/6| = 1/3.
        curve = exact_tv_curve(3, lazy(3), 1)
        assert abs(curve.values[1] - 1.0 / 3.0) <= 1e-14

    def test_mixes_below_target_on_s3(self):
        curve = exact_tv_curve(3, lazy(3), 20)
        assert curve.values[-1] <= 1e-6

    def test_non_increasing(self):
        for n in (3, 4, 5, 6):
            curve = exact_tv_curve(n, lazy(n), 30)
            diffs = np.diff(curve.values)
            assert float(np.max(diffs)) <= 1e-14

    def test_half_n_log_n_scale_on_s6(self):
        k = math.ceil(6 * math.log(6))
        curve = exact_tv_curve(6, lazy(6), k)
        assert curve.values[k] < 0.5

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            exact_tv_curve(9, lazy(9), 5)


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
        curve = exact_tv_curve(4, lazy(4), 60)
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


class TestReflectionWalkBound:
    def test_at_zero_steps(self):
        assert reflection_walk_tv_bound(1.0, 1.0, 16, 0) == pytest.approx(4.0, abs=1e-12)

    def test_vanishes_at_large_k(self):
        assert reflection_walk_tv_bound(1.0, 1.0, 4, 1e6) <= 1e-300

    def test_envelope_extraction(self):
        a, b = reflection_walk_envelope(2.0, 3.0, 10)
        assert a == pytest.approx(2.0 * 10**1.5, rel=1e-12)
        assert b == pytest.approx(0.3, rel=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            reflection_walk_tv_bound(0.0, 1.0, 4, 1)
        with pytest.raises(ValueError):
            reflection_walk_envelope(1.0, -2.0, 4)

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 5.0),
        st.floats(-2.0, 4.0),
        st.integers(2, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_cutoff_substitution(self, alpha, beta, c0, n):
        # Evaluating the bound at k = (n log n)/2 + c0 n collapses to
        # alpha * exp(-beta * c0), independent of n.
        k = 0.5 * n * math.log(n) + c0 * n
        value = reflection_walk_tv_bound(alpha, beta, n, k)
        assert value == pytest.approx(alpha * math.exp(-beta * c0), rel=1e-9)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 3.0), st.integers(2, 50), st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_envelope_consistent_with_bound(self, alpha, beta, n, k):
        a, b = reflection_walk_envelope(alpha, beta, n)
        direct = reflection_walk_tv_bound(alpha, beta, n, k)
        assert a * math.exp(-b * k) == pytest.approx(direct, rel=1e-9)


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
        moments, stderrs = walk_moments(8, 40, 3000, np.random.default_rng(0), einsum_update)
        np.testing.assert_allclose(d.moments, moments, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(d.stderrs, stderrs, rtol=1e-12, atol=0.0)

    # (5, 11, 1001): a partial block of 3 steps and a partial chunk of 346
    # walks after 655; (32, 9, 1000): a block of one step and 62 chunks of
    # 16 walks plus one of 8.
    @pytest.mark.parametrize("n,k_max,reps", [(5, 11, 1001), (32, 9, 1000)])
    def test_blocked_walk_equals_reference_walk(self, n, k_max, reps):
        rng = np.random.default_rng(2024)
        d = unitary_mixing_diagnostic(n, k_max, reps, rng)
        ref_rng = np.random.default_rng(2024)
        moments, stderrs = walk_moments(n, k_max, reps, ref_rng, matmul_update)
        assert np.array_equal(d.moments, moments)
        assert np.array_equal(d.stderrs, stderrs)
        stream = np.random.default_rng(2024)
        for _ in range(k_max):
            _sample_reflection_batch(n, reps, stream)
        assert rng.bit_generator.state == stream.bit_generator.state
        assert ref_rng.bit_generator.state == stream.bit_generator.state
