"""Tests for hermitian spectral statistics on arrays: hermitisation,
conjugation by a unitary and by a reflector, eigenvalues, CDF counts, the
sup-CDF distance, the rank of a difference, and the rank perturbation
inequality for CDF gaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarconc.groups import (
    _sample_reflection_batch,
    reflection_coefficients,
    reflection_matrices,
    sample_haar_unitary,
    sample_reflection_step,
)
from haarconc.hermitian import (
    _hermitian_rank,
    cdf_counts,
    conjugate_stack,
    hermitian_parts,
    reflect_stack,
    sup_cdf_distance,
)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_parts((g + g.conj().T) / 2.0)


def cdf(eigs, x):
    """F(x) = #{lambda <= x} / n of one spectrum, at a scalar or an array of x."""
    eigs = np.asarray(eigs, dtype=float)
    return cdf_counts(eigs, np.atleast_1d(np.asarray(x, dtype=float))) / eigs.size


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
    """hermitian_parts, the check every conjugated stack passes through."""

    def test_rejects_far_from_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            hermitian_parts(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_parts(np.zeros((2, 3), dtype=complex))

    def test_stored_entries_exactly_hermitian(self):
        rng = np.random.default_rng(0)
        m = random_hermitian(6, rng)
        assert np.array_equal(m, m.conj().T)

    def test_stack_with_one_non_hermitian_slice_raises(self):
        rng = np.random.default_rng(3)
        stack = np.stack([random_hermitian(4, rng) for _ in range(3)])
        assert np.array_equal(hermitian_parts(stack), stack)
        stack[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="slice 1"):
            hermitian_parts(stack)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="slice 1"):
            hermitian_parts(stack)


class TestEigenvalues:
    """np.linalg.eigvalsh, the sorted spectra every runner takes."""

    def test_diagonal_matrix_sorted(self):
        eigs = np.linalg.eigvalsh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(eigs, [1.0, 2.0, 3.0], atol=1e-12)

    def test_two_by_two_swap(self):
        eigs = np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)

    def test_trace_identities(self):
        rng = np.random.default_rng(1)
        for n in (3, 8, 16):
            m = random_hermitian(n, rng)
            eigs = np.linalg.eigvalsh(m)
            assert np.all(np.diff(eigs) >= 0.0)
            assert abs(eigs.sum() - np.trace(m).real) <= 1e-9
            hs_sq = float(np.sum(np.abs(m) ** 2))
            assert abs(np.sum(eigs**2) - hs_sq) <= 1e-8


class TestSpectralCDF:
    """cdf_counts / n, the step function F(x) = #{lambda <= x} / n."""

    def test_frozen_example_values(self):
        eigs = np.linalg.eigvalsh(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert cdf(eigs, 2.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cdf(eigs, 0.5)[0] == 0.0
        assert cdf(eigs, 3.0)[0] == 1.0

    def test_vectorized_matches_scalar(self):
        eigs = np.array([-1.0, 0.0, 0.5, 2.0])
        xs = np.array([-2.0, -1.0, 0.25, 3.0])
        vec = cdf(eigs, xs)
        assert np.array_equal(vec, np.array([cdf(eigs, x)[0] for x in xs]))
        # Stacked spectra: one row of counts per spectrum.
        stacked = cdf_counts(np.stack([eigs, eigs[::-1].copy()]), xs)
        assert np.array_equal(stacked, np.stack([vec, vec]) * eigs.size)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.lists(st.floats(-60, 60), min_size=2, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_function_properties(self, eigs, queries):
        n = len(eigs)
        values = cdf(eigs, sorted(queries)).tolist()
        for v in values:
            assert 0.0 <= v <= 1.0
            # Every value is a multiple of 1/n.
            assert round(v * n) == pytest.approx(v * n, abs=1e-9)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert cdf(eigs, max(eigs))[0] == 1.0
        assert cdf(eigs, min(eigs) - 1.0)[0] == 0.0


class TestSupCdfDistance:
    def test_hand_examples(self):
        d = sup_cdf_distance(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert d == pytest.approx(0.5, abs=1e-15)
        d = sup_cdf_distance(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 5.0]))
        assert d == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_identical_spectra(self):
        eigs = np.array([0.0, 1.5, 2.0])
        assert sup_cdf_distance(eigs, eigs) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sup_cdf_distance(np.array([0.0]), np.array([0.0, 1.0]))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        assert sup_cdf_distance(a, b) == sup_cdf_distance(b, a)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_scan(self, seed, n):
        rng = np.random.default_rng(seed)
        e1 = np.sort(rng.standard_normal(n))
        e2 = np.sort(rng.standard_normal(n))
        got = sup_cdf_distance(e1, e2)
        assert got == pytest.approx(brute_force_sup_gap(e1, e2), abs=1e-12)

    @given(st.integers(1, 12), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_counts_on_the_merged_grid(self, n, rows, data):
        # Integer spectra from seven values tie within each spectrum and
        # across the two; the rows are not sorted.
        spectrum = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        e1, e2 = (np.array([data.draw(spectrum) for _ in range(rows)], dtype=float)
                  for _ in range(2))
        want = [brute_force_sup_gap(a, b) for a, b in zip(e1, e2)]
        gaps = sup_cdf_distance(e1, e2)
        assert isinstance(gaps, np.ndarray) and gaps.tolist() == want
        one = sup_cdf_distance(e1[0], e2[0])
        assert type(one) is float and one == want[0]

    def test_ties_and_duplicates(self):
        e1 = np.array([0.0, 0.0, 1.0, 1.0])
        e2 = np.array([0.0, 1.0, 1.0, 1.0])
        got = sup_cdf_distance(e1, e2)
        assert got == pytest.approx(brute_force_sup_gap(e1, e2), abs=1e-15)
        assert got == pytest.approx(0.25, abs=1e-15)


class TestRankDistance:
    """_hermitian_rank of the difference of two hermitian matrices."""

    def test_zero_for_equal(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(6, rng)
        assert _hermitian_rank(m - m) == 0

    def test_rank_one_update(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(6, rng)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        bumped = hermitian_parts(m + np.outer(u, u.conj()))
        assert _hermitian_rank(m - bumped) == 1

    def test_reflection_conjugation_rank(self):
        rng = np.random.default_rng(6)
        n = 8
        m = random_hermitian(n, rng)
        y = reflection_matrices(*sample_reflection_step(n, rng))
        conj = conjugate_stack(y, m)
        r = _hermitian_rank(m - conj)
        assert r <= 3
        assert r == 2

    def test_threshold_insensitivity(self):
        # Well-separated singular values: the count must not depend on the
        # tolerance anywhere in [1e-10, 1e-4].
        rng = np.random.default_rng(7)
        n = 8
        m = random_hermitian(n, rng)
        y = reflection_matrices(*sample_reflection_step(n, rng))
        conj = conjugate_stack(y, m)
        ranks = {int(_hermitian_rank(m - conj, tol=t)) for t in (1e-10, 1e-8, 1e-6, 1e-4)}
        assert len(ranks) == 1

    def test_shape_mismatch(self):
        # A difference that is not square has no rank to take.
        with pytest.raises(ValueError):
            _hermitian_rank(np.zeros((2, 3), dtype=complex))

    def test_equals_svd_rank(self):
        # The ranks come from eigvalsh of the hermitian difference; an SVD
        # with the same threshold rule must count the same singular values,
        # for indefinite differences of every rank and for large norms.
        rng = np.random.default_rng(11)
        n = 7
        a, b, want = [], [], []
        for r in range(n + 1):
            for scale in (1e-3, 1.0, 1e6):
                m = random_hermitian(n, rng)
                pert = np.zeros((n, n), dtype=complex)
                for j in range(r):
                    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    pert += (-1.0) ** j * scale * np.outer(u, u.conj())
                a.append(m)
                b.append(hermitian_parts(m + pert))
                want.append(r)
        diff = np.stack(a) - np.stack(b)
        sing = np.linalg.svd(diff, compute_uv=False)
        threshold = 1e-8 * np.maximum(sing.max(axis=-1, keepdims=True), 1.0)
        svd_ranks = np.count_nonzero(sing > threshold, axis=-1)
        ranks = _hermitian_rank(diff)
        assert ranks.tolist() == svd_ranks.tolist() == want


class TestStackedDistances:
    def test_stack_results_equal_per_matrix_results(self):
        rng = np.random.default_rng(12)
        n = 6
        pairs = []
        for r in range(8):
            m = random_hermitian(n, rng)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pairs.append((m, hermitian_parts(m + (r % 3) * np.outer(u, u.conj()))))
        a = np.stack([m for m, _ in pairs])
        b = np.stack([p for _, p in pairs])
        ranks = _hermitian_rank(a - b)
        gaps = sup_cdf_distance(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))
        for i, (m, p) in enumerate(pairs):
            assert ranks[i] == _hermitian_rank(m - p)
            assert gaps[i] == sup_cdf_distance(np.linalg.eigvalsh(m), np.linalg.eigvalsh(p))
        assert set(ranks.tolist()) == {0, 1}


class TestConjugate:
    """conjugate_stack: U M U*, hermitised."""

    def test_identity_fixes_matrix(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(5, rng)
        out = conjugate_stack(np.eye(5, dtype=complex), m)
        assert np.max(np.abs(out - m)) <= 1e-15

    def test_spectrum_and_trace_preserved(self):
        rng = np.random.default_rng(9)
        n = 16
        m = random_hermitian(n, rng)
        u = sample_haar_unitary(n, rng)
        out = conjugate_stack(u, m)
        assert np.array_equal(out, out.conj().T)
        before = np.linalg.eigvalsh(m)
        after = np.linalg.eigvalsh(out)
        assert float(np.max(np.abs(before - after))) <= 1e-9
        assert abs(np.trace(out) - np.trace(m)) <= 1e-10
        # A diagonal M given by its entries is the column scaling U * m.
        d = np.diag(m).real.copy()
        assert np.array_equal(conjugate_stack(u, d), conjugate_stack(u, np.diag(d)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate_stack(np.eye(3, dtype=complex), np.zeros((2, 2), dtype=complex))


class TestReflectStack:
    """reflect_stack: Y M Y*, hermitised, with Y applied as a reflector."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_equals_the_dense_conjugation(self, n):
        rng = np.random.default_rng(n)
        m = np.stack([random_hermitian(n, rng) for _ in range(3)])
        u, phi = _sample_reflection_batch(n, 3, rng)
        got = reflect_stack(u, reflection_coefficients(u, phi), m)
        want = conjugate_stack(reflection_matrices(u, phi), m)
        assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(m))))
        one = reflect_stack(u[0], reflection_coefficients(u[0], phi[0]), m[0])
        assert np.array_equal(one, got[0])

    def test_spectrum_preserved_and_broadcast_m(self):
        # One matrix M broadcast against a stack of reflectors, as the
        # zero and trailing-run spectra hand it over.
        n, rng = 16, np.random.default_rng(20)
        m = random_hermitian(n, rng)
        u, phi = _sample_reflection_batch(n, 4, rng)
        out = reflect_stack(u, reflection_coefficients(u, phi), np.broadcast_to(m, (4, n, n)))
        assert out.shape == (4, n, n)
        assert np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(m))) <= 1e-12


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
                    bumped = hermitian_parts(m + pert)
                    assert _hermitian_rank(m - bumped) <= r
                    gap = sup_cdf_distance(np.linalg.eigvalsh(m), np.linalg.eigvalsh(bumped))
                    assert gap <= r / n + 1e-12
                    instances += 1
        assert instances >= 200

    @given(st.integers(0, 2**32 - 1), st.integers(2, 33))
    @settings(max_examples=100, deadline=None)
    def test_reflection_step_of_the_reduced_form(self, seed, n):
        # H = W + N and H' = Y W Y* + N, W = X M X*, as the matrix runner's
        # step check forms them, with Gaussian spectra M and N (no atoms).
        # D = H - H' = W - Y W Y* is a trace-zero rank-2 matrix: at most one
        # of its eigenvalues lies above _hermitian_rank's threshold and at
        # most one below minus it, so the CDF moves by at most 1/n.
        rng = np.random.default_rng(seed)
        w = conjugate_stack(sample_haar_unitary(n, rng), rng.standard_normal(n))
        diag_n = np.diag(rng.standard_normal(n))
        u, phi = sample_reflection_step(n, rng)
        h = w + diag_n
        h_prime = reflect_stack(u, reflection_coefficients(u, phi), w) + diag_n
        d = h - h_prime
        eigs = np.linalg.eigvalsh(d)
        threshold = 1e-8 * max(float(np.max(np.abs(eigs))), 1.0)
        assert np.count_nonzero(eigs > threshold) <= 1
        assert np.count_nonzero(eigs < -threshold) <= 1
        assert _hermitian_rank(d) <= 2
        gap = sup_cdf_distance(np.linalg.eigvalsh(h), np.linalg.eigvalsh(h_prime))
        assert gap <= 1.0 / n + 1e-12
