"""Tests for hermitian spectral statistics: eigenvalues, spectral CDFs,
rank distance, and the rank perturbation inequality for CDF gaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarconc.groups import sample_haar_unitary, sample_reflection_step
from haarconc.hermitian import (
    HermitianMatrix,
    SpectralCDF,
    conjugate,
    ecdf_value,
    eigensystem,
    eigenvalues,
    hermitian_parts,
    rank_distance,
    sup_cdf_distance,
)


def random_hermitian(n: int, rng: np.random.Generator) -> HermitianMatrix:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix((g + g.conj().T) / 2.0)


def brute_force_sup_gap(e1: np.ndarray, e2: np.ndarray) -> float:
    """Independent oracle: two right-continuous step CDFs can only differ
    maximally at a jump point, so scan all eigenvalues of both matrices."""
    n = e1.size
    best = 0.0
    for x in np.concatenate([e1, e2]):
        d = abs(int(np.sum(e1 <= x)) - int(np.sum(e2 <= x))) / n
        best = max(best, d)
    return best


class TestHermitianMatrix:
    def test_rejects_far_from_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3), dtype=complex))

    def test_stored_entries_exactly_hermitian(self):
        rng = np.random.default_rng(0)
        m = random_hermitian(6, rng)
        assert np.array_equal(m.entries, m.entries.conj().T)

    def test_stack_with_one_non_hermitian_slice_raises(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_hermitian(4, rng).entries for _ in range(3)])
        assert np.array_equal(hermitian_parts(stack), stack)
        stack[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="slice 1"):
            hermitian_parts(stack)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="slice 1"):
            hermitian_parts(stack)


class TestEigenvalues:
    def test_diagonal_matrix_sorted(self):
        cdf = eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(cdf.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)

    def test_two_by_two_swap(self):
        cdf = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(cdf.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_trace_identities(self):
        rng = np.random.default_rng(1)
        for n in (3, 8, 16):
            m = random_hermitian(n, rng)
            eigs = eigenvalues(m).eigenvalues
            assert abs(eigs.sum() - np.trace(m.entries).real) <= 1e-9
            hs_sq = float(np.sum(np.abs(m.entries) ** 2))
            assert abs(np.sum(eigs**2) - hs_sq) <= 1e-8

    def test_eigensystem_residual(self):
        rng = np.random.default_rng(2)
        for n in (4, 12):
            m = random_hermitian(n, rng)
            cdf, vecs = eigensystem(m)
            residual = m.entries @ vecs - vecs * cdf.eigenvalues
            limit = 1e-8 * max(1.0, float(np.max(np.abs(m.entries))))
            assert float(np.max(np.abs(residual))) <= limit


class TestSpectralCDF:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpectralCDF(np.array([]))

    def test_frozen_example_values(self):
        cdf = eigenvalues(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert cdf.value(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cdf.value(0.5) == 0.0
        assert cdf.value(3.0) == 1.0

    def test_vectorized_matches_scalar(self):
        cdf = SpectralCDF(np.array([-1.0, 0.0, 0.5, 2.0]))
        xs = np.array([-2.0, -1.0, 0.25, 3.0])
        vec = cdf.value(xs)
        assert np.array_equal(vec, np.array([cdf.value(x) for x in xs]))

    def test_ecdf_value_alias(self):
        cdf = SpectralCDF(np.array([0.0, 1.0]))
        assert ecdf_value(cdf, 0.5) == 0.5

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.lists(st.floats(-60, 60), min_size=2, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_function_properties(self, eigs, queries):
        cdf = SpectralCDF(np.array(eigs))
        n = len(eigs)
        values = [cdf.value(x) for x in sorted(queries)]
        for v in values:
            assert 0.0 <= v <= 1.0
            # Every value is a multiple of 1/n.
            assert round(v * n) == pytest.approx(v * n, abs=1e-9)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert cdf.value(max(eigs)) == 1.0
        assert cdf.value(min(eigs) - 1.0) == 0.0


class TestSupCdfDistance:
    def test_hand_examples(self):
        d = sup_cdf_distance(SpectralCDF([0.0, 1.0]), SpectralCDF([0.0, 2.0]))
        assert d == pytest.approx(0.5, abs=1e-15)
        d = sup_cdf_distance(SpectralCDF([0.0, 1.0, 2.0]), SpectralCDF([0.0, 1.0, 5.0]))
        assert d == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_identical_spectra(self):
        cdf = SpectralCDF([0.0, 1.5, 2.0])
        assert sup_cdf_distance(cdf, cdf) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sup_cdf_distance(SpectralCDF([0.0]), SpectralCDF([0.0, 1.0]))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = SpectralCDF(rng.standard_normal(7))
        b = SpectralCDF(rng.standard_normal(7))
        assert sup_cdf_distance(a, b) == sup_cdf_distance(b, a)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_scan(self, seed, n):
        rng = np.random.default_rng(seed)
        e1 = np.sort(rng.standard_normal(n))
        e2 = np.sort(rng.standard_normal(n))
        got = sup_cdf_distance(SpectralCDF(e1), SpectralCDF(e2))
        assert got == pytest.approx(brute_force_sup_gap(e1, e2), abs=1e-12)

    def test_ties_and_duplicates(self):
        e1 = np.array([0.0, 0.0, 1.0, 1.0])
        e2 = np.array([0.0, 1.0, 1.0, 1.0])
        got = sup_cdf_distance(SpectralCDF(e1), SpectralCDF(e2))
        assert got == pytest.approx(brute_force_sup_gap(e1, e2), abs=1e-15)
        assert got == pytest.approx(0.25, abs=1e-15)


class TestRankDistance:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(6, rng)
        assert rank_distance(m, m) == 0

    def test_rank_one_update(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(6, rng)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        bumped = HermitianMatrix(m.entries + np.outer(u, u.conj()))
        assert rank_distance(m, bumped) == 1

    def test_reflection_conjugation_rank(self):
        rng = np.random.default_rng(6)
        n = 8
        m = random_hermitian(n, rng)
        y = sample_reflection_step(n, rng).matrix()
        conj = conjugate(y, m)
        r = rank_distance(m, conj)
        assert r <= 3
        assert r == 2

    def test_threshold_insensitivity(self):
        # Well-separated singular values: the count must not depend on the
        # tolerance anywhere in [1e-10, 1e-4].
        rng = np.random.default_rng(7)
        n = 8
        m = random_hermitian(n, rng)
        y = sample_reflection_step(n, rng).matrix()
        conj = conjugate(y, m)
        ranks = {rank_distance(m, conj, tol=t) for t in (1e-10, 1e-8, 1e-6, 1e-4)}
        assert len(ranks) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rank_distance(np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex))


class TestStackedDistances:
    def test_stack_results_equal_per_matrix_results(self):
        rng = np.random.default_rng(12)
        n = 6
        pairs = []
        for r in range(8):
            m = random_hermitian(n, rng)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pairs.append((m, HermitianMatrix(m.entries + (r % 3) * np.outer(u, u.conj()))))
        a = np.stack([m.entries for m, _ in pairs])
        b = np.stack([p.entries for _, p in pairs])
        ranks = rank_distance(a, b)
        gaps = sup_cdf_distance(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))
        for i, (m, p) in enumerate(pairs):
            assert ranks[i] == rank_distance(m, p)
            assert gaps[i] == sup_cdf_distance(eigenvalues(m), eigenvalues(p))
        assert set(ranks.tolist()) == {0, 1}


class TestConjugate:
    def test_identity_fixes_matrix(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(5, rng)
        out = conjugate(np.eye(5, dtype=complex), m)
        assert np.max(np.abs(out.entries - m.entries)) <= 1e-15

    def test_spectrum_and_trace_preserved(self):
        rng = np.random.default_rng(9)
        n = 16
        m = random_hermitian(n, rng)
        u = sample_haar_unitary(n, rng)
        out = conjugate(u, m)
        before = eigenvalues(m).eigenvalues
        after = eigenvalues(out).eigenvalues
        assert float(np.max(np.abs(before - after))) <= 1e-9
        assert abs(np.trace(out.entries) - np.trace(m.entries)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(np.eye(3, dtype=complex), np.zeros((2, 2), dtype=complex))


class TestRankPerturbationInequality:
    def test_cdf_gap_bounded_by_rank_over_n(self):
        # A rank-r change moves the spectral CDF by at most r/n in sup norm.
        rng = np.random.default_rng(10)
        instances = 0
        for n in (4, 8, 16):
            for r in (1, 2, 3):
                for _ in range(25):
                    m = random_hermitian(n, rng)
                    pert = np.zeros((n, n), dtype=complex)
                    for _ in range(r):
                        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                        pert += rng.standard_normal() * np.outer(u, u.conj())
                    bumped = HermitianMatrix(m.entries + pert)
                    assert rank_distance(m, bumped) <= r
                    gap = sup_cdf_distance(eigenvalues(m), eigenvalues(bumped))
                    assert gap <= r / n + 1e-12
                    instances += 1
        assert instances >= 200
