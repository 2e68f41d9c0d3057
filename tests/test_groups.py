"""Tests for group elements, step distributions, and Haar samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarconc.groups import (
    Permutation,
    ReflectionStep,
    StepDistribution,
    UnitaryMatrix,
    complex_ginibre,
    compose,
    haar_unitaries,
    invert,
    require_unitary,
    sample_haar_permutation,
    sample_haar_unitary,
    sample_reflection_step,
    sample_step,
)

# 99.9% chi-square quantiles for df = 5 and df = 23 (frequency sanity checks).
CHI2_999 = {5: 20.515, 23: 49.728}


def cycle(*images) -> Permutation:
    return Permutation(tuple(images))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_identity_and_transposition(self):
        ident = Permutation.identity(4)
        assert ident.mapping == (0, 1, 2, 3)
        swap = Permutation.transposition(4, 1, 3)
        assert swap.mapping == (0, 3, 2, 1)
        assert swap.fixed_points() == 2
        assert ident.fixed_points() == 4

    def test_transposition_index_check(self):
        with pytest.raises(ValueError):
            Permutation.transposition(3, 0, 3)


class TestCompose:
    def test_swap_squared_is_identity(self):
        swap = Permutation.transposition(2, 0, 1)
        assert compose(swap, swap) == Permutation.identity(2)

    def test_identity_neutral_for_unitary(self):
        rng = np.random.default_rng(7)
        u = sample_haar_unitary(5, rng)
        ident = UnitaryMatrix(np.eye(5, dtype=complex))
        left = compose(ident, u)
        assert np.array_equal(left.entries, u.entries)

    def test_three_cycle_squared(self):
        # (0->1->2) composed with itself is (0->2->1).
        g = cycle(1, 2, 0)
        assert compose(g, g) == cycle(2, 0, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(3), Permutation.identity(4))

    def test_cross_group_type_error(self):
        with pytest.raises(TypeError):
            compose(Permutation.identity(2), UnitaryMatrix(np.eye(2, dtype=complex)))

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
            assert gh(i) == g(h(i))


class TestInvert:
    def test_identity(self):
        assert invert(Permutation.identity(3)) == Permutation.identity(3)

    def test_three_cycle(self):
        assert invert(cycle(1, 2, 0)) == cycle(2, 0, 1)

    def test_unitary_inverse_contract(self):
        rng = np.random.default_rng(11)
        u = sample_haar_unitary(6, rng)
        prod = compose(u, invert(u))
        assert np.max(np.abs(prod.entries - np.eye(6))) <= 1e-12

    def test_not_a_group_element(self):
        with pytest.raises(TypeError):
            invert("swap")


class TestUnitaryMatrix:
    def test_check_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(np.ones((2, 2), dtype=complex), check=True)

    def test_defect_of_true_unitary(self):
        rng = np.random.default_rng(1)
        u = sample_haar_unitary(8, rng)
        assert u.unitarity_defect() <= 1e-12


class TestHaarUnitary:
    def test_n_equals_one_is_a_phase(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = sample_haar_unitary(1, rng)
            assert abs(abs(u.entries[0, 0]) - 1.0) <= 1e-12

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            sample_haar_unitary(0, np.random.default_rng(0))

    def test_unitarity_contract(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 16):
            u = sample_haar_unitary(n, rng)
            assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(n))) <= 1e-12

    def test_trace_second_moment(self):
        # E|Tr X|^2 = 1 for Haar X on U(n), n >= 1.
        rng = np.random.default_rng(4)
        reps = 10_000
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = abs(np.trace(sample_haar_unitary(8, rng).entries)) ** 2
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(mean - 1.0) <= 4.0 * se

    def test_trace_first_moment_vanishes(self):
        rng = np.random.default_rng(5)
        reps = 10_000
        traces = np.empty(reps, dtype=complex)
        for r in range(reps):
            traces[r] = np.trace(sample_haar_unitary(6, rng).entries)
        for part in (traces.real, traces.imag):
            se = part.std(ddof=1) / math.sqrt(reps)
            assert abs(part.mean()) <= 4.0 * se

    def test_determinism(self):
        a = sample_haar_unitary(5, np.random.default_rng(99))
        b = sample_haar_unitary(5, np.random.default_rng(99))
        assert np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_single_sample_equals_stacked_slice(self, n):
        rng = np.random.default_rng(n)
        singles = [sample_haar_unitary(n, rng).entries for _ in range(3)]
        rng = np.random.default_rng(n)
        stacked = haar_unitaries(np.stack([complex_ginibre(n, rng) for _ in range(3)]))
        for i in range(3):
            assert np.array_equal(stacked[i], singles[i])

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
    def test_unit_vector_required(self):
        with pytest.raises(ValueError):
            ReflectionStep(np.array([1.0, 1.0], dtype=complex), 0.5)

    def test_action_on_u_and_orthogonal_complement(self):
        rng = np.random.default_rng(6)
        step = sample_reflection_step(5, rng)
        y = step.matrix().entries
        assert np.max(np.abs(y @ step.u - np.exp(1j * step.phi) * step.u)) <= 1e-12
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w -= (step.u.conj() @ w) * step.u
        assert np.max(np.abs(y @ w - w)) <= 1e-10

    def test_eigenvalue_multiset(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 8):
            step = sample_reflection_step(n, rng)
            eigs = np.linalg.eigvals(step.matrix().entries)
            expected = np.concatenate(([np.exp(1j * step.phi)], np.ones(n - 1)))
            order = np.argsort(np.angle(eigs))
            expected = expected[np.argsort(np.angle(expected))]
            assert np.max(np.abs(eigs[order] - expected)) <= 1e-10

    def test_determinant_is_phase(self):
        rng = np.random.default_rng(8)
        step = sample_reflection_step(6, rng)
        det = np.linalg.det(step.matrix().entries)
        assert abs(det - np.exp(1j * step.phi)) <= 1e-10

    def test_angle_moment_against_quadrature(self):
        n = 4
        oracle = angle_moment_oracle(n)
        # Closed form for this density is 1/(n+1); cross-check the oracle.
        assert abs(oracle - 1.0 / (n + 1)) <= 1e-10
        rng = np.random.default_rng(9)
        reps = 100_000
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = math.cos(sample_reflection_step(n, rng).phi / 2.0) ** 2
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - oracle) <= 4.0 * se

    def test_inverse_has_same_trace_law(self):
        # Y and Y^{-1} should have identically distributed Re Tr; compare
        # two independent streams.
        n, reps = 4, 10_000
        rng1 = np.random.default_rng(10)
        rng2 = np.random.default_rng(20)
        fwd = np.empty(reps)
        bwd = np.empty(reps)
        for r in range(reps):
            fwd[r] = np.trace(sample_reflection_step(n, rng1).matrix().entries).real
            bwd[r] = np.trace(invert(sample_reflection_step(n, rng2).matrix()).entries).real
        pooled = math.sqrt(fwd.var(ddof=1) / reps + bwd.var(ddof=1) / reps)
        assert abs(fwd.mean() - bwd.mean()) <= 4.0 * pooled

    def test_conjugation_preserves_trace_and_sphere_law(self):
        n, reps = 4, 10_000
        rng = np.random.default_rng(12)
        fixed = sample_haar_unitary(n, np.random.default_rng(1234))
        rotated_first = np.empty(reps, dtype=complex)
        for r in range(reps):
            step = sample_reflection_step(n, rng)
            y = step.matrix()
            conj = compose(compose(fixed, y), invert(fixed))
            assert abs(np.trace(conj.entries) - np.trace(y.entries)) <= 1e-10
            rotated_first[r] = (fixed.entries @ step.u)[0]
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
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StepDistribution("gaussian", 3)

    def test_lazy_masses_sum_to_one_exactly(self):
        for n in (2, 3, 5, 7):
            dist = StepDistribution.lazy_transposition(n)
            total = sum(mass for _, mass in dist.support())
            assert total == Fraction(1)

    def test_lazy_mass_values(self):
        dist = StepDistribution.lazy_transposition(3)
        masses = {perm.mapping: mass for perm, mass in dist.support()}
        assert masses[(0, 1, 2)] == Fraction(1, 3)
        transpositions = [m for key, m in masses.items() if key != (0, 1, 2)]
        assert len(transpositions) == 3
        assert all(m == Fraction(2, 9) for m in transpositions)

    def test_support_requires_finite_kind(self):
        dist = StepDistribution.unitary_reflection(4)
        with pytest.raises(ValueError):
            list(dist.support())

    def test_lazy_support_closed_under_inversion(self):
        # The step law is symmetric: the mass function is invariant under
        # group inversion, element by element.
        dist = StepDistribution.lazy_transposition(4)
        masses = {perm: mass for perm, mass in dist.support()}
        for perm, mass in masses.items():
            assert masses[invert(perm)] == mass

    def test_lazy_support_conjugation_invariant(self):
        dist = StepDistribution.lazy_transposition(4)
        masses = {perm: mass for perm, mass in dist.support()}
        g = Permutation((1, 2, 3, 0))
        for perm, mass in masses.items():
            conj = compose(compose(g, perm), invert(g))
            assert masses[conj] == mass


class TestSampleStep:
    def test_lazy_probabilities_on_s3(self):
        rng = np.random.default_rng(16)
        dist = StepDistribution.lazy_transposition(3)
        reps = 30_000
        counts: dict = {}
        for _ in range(reps):
            g = sample_step(dist, rng)
            counts[g.mapping] = counts.get(g.mapping, 0) + 1
        # i, j uniform with replacement: 3 of 9 pairs give the identity.
        for key, p in ((Permutation.identity(3).mapping, 1.0 / 3.0),
                       (Permutation.transposition(3, 0, 1).mapping, 2.0 / 9.0),
                       (Permutation.transposition(3, 0, 2).mapping, 2.0 / 9.0),
                       (Permutation.transposition(3, 1, 2).mapping, 2.0 / 9.0)):
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(counts.get(key, 0) / reps - p) <= 4.0 * se

    def test_lazy_output_is_involution(self):
        rng = np.random.default_rng(17)
        dist = StepDistribution.lazy_transposition(5)
        for _ in range(200):
            g = sample_step(dist, rng)
            assert compose(g, g) == Permutation.identity(5)

    def test_reflection_output_is_unitary(self):
        rng = np.random.default_rng(18)
        dist = StepDistribution.unitary_reflection(6)
        for _ in range(20):
            y = sample_step(dist, rng)
            assert isinstance(y, UnitaryMatrix)
            assert y.unitarity_defect() <= 1e-12

    def test_determinism_per_seed(self):
        dist = StepDistribution.lazy_transposition(6)
        rng_a = np.random.default_rng(23)
        rng_b = np.random.default_rng(23)
        seq_a = [sample_step(dist, rng_a) for _ in range(50)]
        seq_b = [sample_step(dist, rng_b) for _ in range(50)]
        assert seq_a == seq_b
