"""Tests for group elements, the step laws, and Haar samplers."""

import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarconc.groups import (
    Permutation,
    _sample_reflection_batch,
    complex_ginibre,
    compose,
    haar_unitaries,
    invert,
    reflection_matrices,
    require_unitary,
    sample_haar_permutation,
    sample_haar_unitary,
    sample_reflection_step,
    unitarity_defects,
)
from haarconc.kernel import walk_operator

from test_experiments import package_env
from test_kernel import lazy_step_law, operator_step_law

# 99.9% chi-square quantiles for df = 5 and df = 23 (frequency sanity checks).
CHI2_999 = {5: 20.515, 23: 49.728}

STACK_NS = [1, 2, 7, 8, 64, 128]

# For each n of STACK_NS: the widths k < n whose thin Haar columns, from the
# QR of the first k Gaussian columns, differ from the first k columns of the
# whole factor.
THIN_MISMATCHES = """
import json, sys
import numpy as np
from haarconc.groups import complex_ginibre, haar_unitaries
out = {}
for n in map(int, sys.argv[1:]):
    rng = np.random.default_rng(n)
    z = np.stack([complex_ginibre(n, rng) for _ in range(3)])
    stacked = haar_unitaries(z)
    out[n] = [k for k in sorted({1, n // 2, n - 1} - {0, n})
              if not np.array_equal(haar_unitaries(z[..., :k]), stacked[..., :k])]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def one_thread_thin_mismatches():
    """THIN_MISMATCHES run in a child process whose BLAS uses one thread.

    The thin columns are the whole factor's bits only while BLAS runs one
    thread: a threaded BLAS splits the k-column and the n-column reflector
    updates differently (from n = 97 on with two OpenBLAS 0.3.31 threads),
    and its thread count is fixed when the library loads.
    """
    done = subprocess.run([sys.executable, "-c", THIN_MISMATCHES, *map(str, STACK_NS)],
                          env=package_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    return {int(n): ks for n, ks in json.loads(done.stdout).items()}


def sphere_moment_gap(u: np.ndarray) -> float:
    """Largest distance, in standard errors over the rows of u, of a
    coordinate's |u_j|^2, |u_j|^4, u_j or u_j^2 (real and imaginary parts)
    from its value on the unit sphere of C^n.  A moment that does not vary
    from row to row is as far as its mean is from its value: 0 or infinite."""
    n = u.shape[1]
    sq = np.abs(u) ** 2
    moments = ((sq, 1.0 / n), (sq**2, 2.0 / (n * (n + 1))), (u.real, 0.0), (u.imag, 0.0),
               ((u * u).real, 0.0), ((u * u).imag, 0.0))
    gaps = [np.abs(v.mean(axis=0) - want)
            / np.maximum(v.std(axis=0, ddof=1) / math.sqrt(len(v)), np.finfo(float).tiny)
            for v, want in moments]
    return float(np.max(gaps))


def cycle(*images) -> Permutation:
    return Permutation(tuple(images))


def fixed_points(g: Permutation) -> int:
    return sum(1 for i, v in enumerate(g.mapping) if i == v)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_identity_and_transposition(self):
        ident = Permutation.identity(4)
        assert ident.mapping == (0, 1, 2, 3)
        swap = Permutation.transposition(4, 1, 3)
        assert swap.mapping == (0, 3, 2, 1)
        assert fixed_points(swap) == 2
        assert fixed_points(ident) == 4

    def test_transposition_index_check(self):
        with pytest.raises(ValueError):
            Permutation.transposition(3, 0, 3)


class TestCompose:
    def test_swap_squared_is_identity(self):
        swap = Permutation.transposition(2, 0, 1)
        assert compose(swap, swap) == Permutation.identity(2)

    def test_three_cycle_squared(self):
        # (0->1->2) composed with itself is (0->2->1).
        g = cycle(1, 2, 0)
        assert compose(g, g) == cycle(2, 0, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(3), Permutation.identity(4))

    def test_cross_group_type_error(self):
        with pytest.raises(TypeError):
            compose(Permutation.identity(2), np.eye(2, dtype=complex))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_associativity_on_s4(self, data):
        perms = []
        for _ in range(3):
            images = data.draw(st.permutations(list(range(4))))
            perms.append(Permutation(tuple(images)))
        g1, g2, g3 = perms
        assert compose(compose(g1, g2), g3) == compose(g1, compose(g2, g3))

    @given(st.permutations(list(range(5))))
    @settings(max_examples=50, deadline=None)
    def test_convention_matches_function_composition(self, images):
        g = Permutation(tuple(images))
        h = Permutation.transposition(5, 0, 4)
        gh = compose(g, h)
        for i in range(5):
            assert gh.mapping[i] == g.mapping[h.mapping[i]]


class TestInvert:
    def test_identity(self):
        assert invert(Permutation.identity(3)) == Permutation.identity(3)

    def test_three_cycle(self):
        assert invert(cycle(1, 2, 0)) == cycle(2, 0, 1)

    def test_not_a_group_element(self):
        with pytest.raises(TypeError):
            invert("swap")


class TestUnitaryMatrix:
    """The unitarity check of every sampled unitary stack."""

    def test_check_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(np.ones((2, 2), dtype=complex))

    def test_defect_of_true_unitary(self):
        rng = np.random.default_rng(1)
        u = sample_haar_unitary(8, rng)
        assert u.shape == (8, 8) and u.dtype == np.complex128
        assert unitarity_defects(u) <= 1e-12


class TestHaarUnitary:
    def test_n_equals_one_is_a_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = sample_haar_unitary(1, rng)
            assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            sample_haar_unitary(0, np.random.default_rng(0))

    def test_unitarity_contract(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 16):
            u = sample_haar_unitary(n, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12

    def test_trace_second_moment(self):
        # E|Tr X|^2 = 1 for Haar X on U(n), n >= 1.
        rng = np.random.default_rng(4)
        reps = 10_000
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = abs(np.trace(sample_haar_unitary(8, rng))) ** 2
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(mean - 1.0) <= 4.0 * se

    def test_trace_first_moment_vanishes(self):
        rng = np.random.default_rng(5)
        reps = 10_000
        traces = np.empty(reps, dtype=complex)
        for r in range(reps):
            traces[r] = np.trace(sample_haar_unitary(6, rng))
        for part in (traces.real, traces.imag):
            se = part.std(ddof=1) / math.sqrt(reps)
            assert abs(part.mean()) <= 4.0 * se

    def test_determinism(self):
        a = sample_haar_unitary(5, np.random.default_rng(99))
        b = sample_haar_unitary(5, np.random.default_rng(99))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", STACK_NS)
    def test_single_sample_equals_stacked_slice(self, n, one_thread_thin_mismatches):
        rng = np.random.default_rng(n)
        singles = [sample_haar_unitary(n, rng) for _ in range(3)]
        rng = np.random.default_rng(n)
        stacked = haar_unitaries(np.stack([complex_ginibre(n, rng) for _ in range(3)]))
        for i in range(3):
            assert np.array_equal(stacked[i], singles[i])
        # The QR of the first k Gaussian columns gives the first k columns.
        assert one_thread_thin_mismatches[n] == []

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_ginibre_equals_the_complex_expression(self, n):
        for seed in range(5):
            rng = np.random.default_rng([n, seed])
            want = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
            got = complex_ginibre(n, np.random.default_rng([n, seed]))
            assert got.shape == (n, n) and got.dtype == np.complex128
            assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_stack_with_one_non_unitary_slice_raises(self):
        rng = np.random.default_rng(6)
        z = np.stack([complex_ginibre(4, rng) for _ in range(3)])
        z[1] = 0.0  # R has a zero diagonal, so the phase fix is undefined
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="slice 1"):
            haar_unitaries(z)
        stack = np.stack([np.eye(3, dtype=complex)] * 3)
        stack[2, 0, 0] = 1.0 + 1e-9
        with pytest.raises(ValueError, match="slice 2"):
            require_unitary(stack)
        require_unitary(stack[:2])


def angle_moment_oracle(n: int, power: int = 2) -> float:
    """E cos(phi/2)^power under the density proportional to sin^{n-1}(phi/2),
    by Gauss-Legendre quadrature in the half-angle t = phi/2 over [0, pi]."""
    nodes, weights = np.polynomial.legendre.leggauss(80)
    t = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    dens = np.sin(t) ** (n - 1)
    return float(np.sum(w * np.cos(t) ** power * dens) / np.sum(w * dens))


class TestReflectionStep:
    """sample_reflection_step's (u, phi) and its matrix reflection_matrices(u, phi)."""

    def test_unit_vector_required(self):
        with pytest.raises(ValueError, match="not unitary"):
            reflection_matrices(np.array([1.0, 1.0], dtype=complex), np.float64(0.5))

    def test_action_on_u_and_orthogonal_complement(self):
        rng = np.random.default_rng(6)
        u, phi = sample_reflection_step(5, rng)
        y = reflection_matrices(u, phi)
        assert np.max(np.abs(y @ u - np.exp(1j * phi) * u)) <= 1e-12
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w -= (u.conj() @ w) * u
        assert np.max(np.abs(y @ w - w)) <= 1e-10

    def test_eigenvalue_multiset(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 8):
            u, phi = sample_reflection_step(n, rng)
            eigs = np.linalg.eigvals(reflection_matrices(u, phi))
            expected = np.concatenate(([np.exp(1j * phi)], np.ones(n - 1)))
            order = np.argsort(np.angle(eigs))
            expected = expected[np.argsort(np.angle(expected))]
            assert np.max(np.abs(eigs[order] - expected)) <= 1e-10

    def test_determinant_is_phase(self):
        rng = np.random.default_rng(8)
        u, phi = sample_reflection_step(6, rng)
        det = np.linalg.det(reflection_matrices(u, phi))
        assert abs(det - np.exp(1j * phi)) <= 1e-10

    def test_angle_moment_against_quadrature(self):
        n = 4
        oracle = angle_moment_oracle(n)
        # Closed form for this density is 1/(n+1); cross-check the oracle.
        assert abs(oracle - 1.0 / (n + 1)) <= 1e-10
        rng = np.random.default_rng(9)
        reps = 100_000
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = math.cos(sample_reflection_step(n, rng)[1] / 2.0) ** 2
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - oracle) <= 4.0 * se

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
    def test_angle_moments_of_the_sphere_coordinate(self, n):
        # cos(phi/2) is the first coordinate of a uniform point on the unit
        # sphere in R^{n+1}: E cos = 0, E cos^2 = 1/(n+1) and
        # E cos^4 = 3/((n+1)(n+3)).
        reps = 200_000
        _, phi = _sample_reflection_batch(n, reps, np.random.default_rng(40 + n))
        cos = np.cos(phi / 2.0)
        for power, want in ((1, 0.0), (2, 1.0 / (n + 1)), (4, 3.0 / ((n + 1) * (n + 3)))):
            vals = cos**power
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - want) <= 5.0 * se, (power, vals.mean(), want, se)

    @pytest.mark.parametrize("n", [2, 5, 32])
    def test_vector_moments_of_the_complex_sphere(self, n):
        # A uniform point of the unit sphere in C^n has E|u_j|^2 = 1/n,
        # E|u_j|^4 = 2/(n(n+1)) and, being circularly symmetric,
        # E u_j = E u_j^2 = 0.  A real sampler has E u_j^2 = 1/n, and one
        # whose imaginary part repeats its real part E u_j^2 = i/n.
        u, _ = _sample_reflection_batch(n, 20_000, np.random.default_rng(60 + n))
        assert sphere_moment_gap(u) <= 4.0
        for plant in (u.real + 0j, u.real + 1j * u.real):
            plant /= np.linalg.norm(plant, axis=1, keepdims=True)
            assert sphere_moment_gap(plant) > 4.0

    def test_inverse_has_same_trace_law(self):
        # Y and Y^{-1} = Y* should have identically distributed Re Tr;
        # compare two independent streams.
        n, reps = 4, 10_000
        rng1 = np.random.default_rng(10)
        rng2 = np.random.default_rng(20)
        fwd = np.empty(reps)
        bwd = np.empty(reps)
        for r in range(reps):
            fwd[r] = np.trace(reflection_matrices(*sample_reflection_step(n, rng1))).real
            bwd[r] = np.trace(reflection_matrices(*sample_reflection_step(n, rng2)).conj().T).real
        pooled = math.sqrt(fwd.var(ddof=1) / reps + bwd.var(ddof=1) / reps)
        assert abs(fwd.mean() - bwd.mean()) <= 4.0 * pooled

    def test_conjugation_preserves_trace_and_sphere_law(self):
        n, reps = 4, 10_000
        rng = np.random.default_rng(12)
        fixed = sample_haar_unitary(n, np.random.default_rng(1234))
        rotated_first = np.empty(reps, dtype=complex)
        for r in range(reps):
            u, phi = sample_reflection_step(n, rng)
            y = reflection_matrices(u, phi)
            conj = fixed @ y @ fixed.conj().T
            assert abs(np.trace(conj) - np.trace(y)) <= 1e-10
            rotated_first[r] = (fixed @ u)[0]
        # First coordinate of a rotated sphere point: mean 0, E|.|^2 = 1/n.
        for part in (rotated_first.real, rotated_first.imag):
            se = part.std(ddof=1) / math.sqrt(reps)
            assert abs(part.mean()) <= 4.0 * se
        sq = np.abs(rotated_first) ** 2
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - 1.0 / n) <= 4.0 * se


class TestHaarPermutation:
    def test_n_one_always_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            assert sample_haar_permutation(1, rng) == Permutation.identity(1)

    def test_uniform_frequencies_on_s3(self):
        rng = np.random.default_rng(14)
        reps = 60_000
        counts: dict = {}
        for _ in range(reps):
            g = sample_haar_permutation(3, rng)
            counts[g.mapping] = counts.get(g.mapping, 0) + 1
        assert len(counts) == 6
        p = 1.0 / 6.0
        se = math.sqrt(p * (1 - p) / reps)
        for c in counts.values():
            assert abs(c / reps - p) <= 4.0 * se

    def test_translate_stays_uniform_chi_square(self):
        # Left translation by a fixed g preserves uniformity.
        for n, df in ((3, 5), (4, 23)):
            rng = np.random.default_rng(15 + n)
            shift = Permutation.transposition(n, 0, n - 1)
            reps = 24_000
            counts: dict = {}
            for _ in range(reps):
                g = compose(shift, sample_haar_permutation(n, rng))
                counts[g.mapping] = counts.get(g.mapping, 0) + 1
            cells = math.factorial(n)
            expected = reps / cells
            chi2 = sum(
                (counts.get(key, 0) - expected) ** 2 / expected
                for key in counts
            ) + (cells - len(counts)) * expected
            assert chi2 <= CHI2_999[df]


class TestStepDistribution:
    """The lazy step law as walk_operator stores it, read off its maps and
    masses, against the law from the step's definition."""

    def test_lazy_masses_sum_to_one_exactly(self):
        for n in (2, 3, 5, 7):
            law = lazy_step_law(n)
            assert sum(law.values()) == Fraction(1)
            # The same elements in the same order, each mass the exact one
            # rounded once.
            got = operator_step_law(walk_operator(n))
            assert list(got) == list(law)
            assert list(got.values()) == [float(q) for q in law.values()]

    def test_lazy_mass_values(self):
        masses = {perm.mapping: mass
                  for perm, mass in operator_step_law(walk_operator(3)).items()}
        assert masses[(0, 1, 2)] == 1 / 3
        transpositions = [m for key, m in masses.items() if key != (0, 1, 2)]
        assert len(transpositions) == 3
        assert all(m == 2 / 9 for m in transpositions)

    def test_lazy_support_closed_under_inversion(self):
        # The step law is symmetric: the mass function is invariant under
        # group inversion, element by element.
        masses = operator_step_law(walk_operator(4))
        for perm, mass in masses.items():
            assert masses[invert(perm)] == mass

    def test_lazy_support_conjugation_invariant(self):
        masses = operator_step_law(walk_operator(4))
        g = Permutation((1, 2, 3, 0))
        for perm, mass in masses.items():
            conj = compose(compose(g, perm), invert(g))
            assert masses[conj] == mass


class TestSampleStep:
    """The step laws as the runners use them: the lazy step through the
    walk operator's maps and masses, the reflection step through
    sample_reflection_step and reflection_matrices."""

    def test_lazy_probabilities_on_s3(self):
        # i, j uniform with replacement: 3 of 9 pairs give the identity.
        op = walk_operator(3)
        masses = {}
        for action, mass in zip(op.actions, op.masses):
            key = op.table.mappings[action[op.table.identity_index]]
            masses[tuple(int(v) for v in key)] = mass
        for key, p in ((Permutation.identity(3).mapping, 1.0 / 3.0),
                       (Permutation.transposition(3, 0, 1).mapping, 2.0 / 9.0),
                       (Permutation.transposition(3, 0, 2).mapping, 2.0 / 9.0),
                       (Permutation.transposition(3, 1, 2).mapping, 2.0 / 9.0)):
            assert masses[key] == pytest.approx(p, abs=1e-16)
        assert len(masses) == 4

    def test_lazy_output_is_involution(self):
        for i, j in itertools.product(range(5), repeat=2):
            g = Permutation.transposition(5, i, j)
            assert compose(g, g) == Permutation.identity(5)
        op = walk_operator(5)
        cols = np.arange(op.size)
        for action in op.actions:
            assert np.array_equal(action[action], cols)

    def test_reflection_output_is_unitary(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            u, phi = sample_reflection_step(6, rng)
            assert u.shape == (6,) and abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert 0.0 <= phi <= 2.0 * math.pi
            assert unitarity_defects(reflection_matrices(u, phi)) <= 1e-12

    def test_determinism_per_seed(self):
        rng_a = np.random.default_rng(23)
        rng_b = np.random.default_rng(23)
        for _ in range(50):
            (u_a, phi_a), (u_b, phi_b) = (sample_reflection_step(6, rng_a),
                                          sample_reflection_step(6, rng_b))
            assert np.array_equal(u_a, u_b) and phi_a == phi_b
            assert sample_haar_permutation(6, rng_a) == sample_haar_permutation(6, rng_b)
