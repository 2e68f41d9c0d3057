"""Hermitian matrices and their spectral statistics.

Everything downstream consumes the empirical spectral CDF
F(x) = #{eigenvalues <= x} / n, so this module centers on exact operations on
sorted eigenvalue lists: evaluation, sup-distance between two CDFs, and the
rank of a difference (which controls how far two CDFs can be apart:
sup |F_M - F_N| <= rank(M - N) / n).
"""

from __future__ import annotations

import numpy as np

from .groups import UnitaryMatrix

HERMITICITY_TOL = 1e-12


class HermitianMatrix:
    """Square complex matrix stored in hermitianized form (M + M*) / 2.

    Construction rejects inputs whose hermiticity defect max|M - M*| exceeds
    ``tol * max(1, max|M|)``; roundoff-level asymmetry from products such as
    U M U* is silently symmetrized away.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, *, tol: float = HERMITICITY_TOL):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must form a square matrix")
        self.entries = hermitian_parts(arr, tol)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


def hermitian_parts(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """(A + A*) / 2 for every matrix A of a (..., n, n) stack.

    Raises ValueError if any A has hermiticity defect max|A - A*| above
    ``tol * max(1, max|A|)``, or a NaN defect.
    """
    ah = np.conj(np.swapaxes(a, -1, -2))
    defects = np.reshape(np.max(np.abs(a - ah), axis=(-2, -1), initial=0.0), -1)
    scales = np.reshape(np.max(np.abs(a), axis=(-2, -1), initial=1.0), -1)
    bad = np.flatnonzero(~(defects <= tol * scales))
    if bad.size:
        where = f" (slice {bad[0]})" if a.ndim > 2 else ""
        raise ValueError(
            f"matrix is not hermitian{where}: defect {defects[bad[0]]:.3e} exceeds tolerance"
        )
    return (a + ah) / 2.0


def conjugate_stack(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """U M U*, hermitised, for every U of a (..., n, n) stack of unitaries.

    ``m`` is an (..., n, n) stack of hermitian matrices, or a 1-D array of
    diagonal entries, applied as the column scaling U * m.
    """
    um = u * m if m.ndim == 1 else u @ m
    return hermitian_parts(um @ np.conj(np.swapaxes(u, -1, -2)))


def _hermitian_entries(m) -> np.ndarray:
    if isinstance(m, HermitianMatrix):
        return m.entries
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("entries must form a square matrix")
    return hermitian_parts(arr)


def _as_hermitian(m) -> HermitianMatrix:
    return m if isinstance(m, HermitianMatrix) else HermitianMatrix(m)


class SpectralCDF:
    """Empirical spectral distribution of a finite eigenvalue list.

    Right-continuous step function F(x) = #{lambda <= x} / n over the sorted
    eigenvalues.
    """

    __slots__ = ("eigenvalues",)

    def __init__(self, eigenvalues):
        arr = np.sort(np.asarray(eigenvalues, dtype=float).reshape(-1))
        if arr.size == 0:
            raise ValueError("eigenvalue list must be nonempty")
        self.eigenvalues = arr

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)

    def value(self, x):
        """F(x); accepts a scalar or an array of evaluation points."""
        counts = np.searchsorted(self.eigenvalues, x, side="right")
        if np.isscalar(x):
            return float(counts) / self.n
        return np.asarray(counts, dtype=float) / self.n


def eigenvalues(m) -> SpectralCDF:
    """Sorted eigenvalues of a hermitian matrix as a SpectralCDF."""
    return SpectralCDF(np.linalg.eigvalsh(_as_hermitian(m).entries))


def eigensystem(m) -> tuple[SpectralCDF, np.ndarray]:
    """Eigenvalues plus the unitary eigenvector matrix (columns)."""
    h = _as_hermitian(m)
    vals, vecs = np.linalg.eigh(h.entries)
    return SpectralCDF(vals), vecs


def ecdf_value(cdf: SpectralCDF, x: float) -> float:
    return cdf.value(float(x))


def cdf_counts(eigs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """#{lambda <= x} for each spectrum, one per row of ``eigs``, at each
    point of the last axis of ``x``; the leading axes broadcast."""
    return np.count_nonzero(eigs[..., :, None] <= x[..., None, :], axis=-2)


def sup_cdf_distance(cdf1, cdf2):
    """Exact sup-norm distance between two empirical spectral CDFs.

    Both step functions are constant between jump points, so the supremum is
    attained at one of the merged eigenvalues; integer jump counts keep the
    scan exact up to a single final division.  The arguments may also be
    (..., n) arrays of eigenvalues, one spectrum per row; the result is then
    an array of distances.
    """
    e1 = cdf1.eigenvalues if isinstance(cdf1, SpectralCDF) else np.sort(cdf1, axis=-1)
    e2 = cdf2.eigenvalues if isinstance(cdf2, SpectralCDF) else np.sort(cdf2, axis=-1)
    if e1.shape != e2.shape:
        raise ValueError("CDFs must have the same number of eigenvalues")
    grid = np.concatenate([e1, e2], axis=-1)
    gaps = np.max(np.abs(cdf_counts(e1, grid) - cdf_counts(e2, grid)), axis=-1) / e1.shape[-1]
    return float(gaps) if gaps.ndim == 0 else gaps


def rank_distance(m, n, tol: float = 1e-8):
    """Numerical rank of M - N: singular values above tol * max(sigma_max, 1).

    M and N may also be (..., n, n) stacks of hermitian matrices; the result
    is then an array of ranks from one stacked SVD.
    """
    a = _hermitian_entries(m)
    b = _hermitian_entries(n)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    sing = np.linalg.svd(a - b, compute_uv=False)
    threshold = tol * np.maximum(np.max(sing, axis=-1, keepdims=True, initial=0.0), 1.0)
    ranks = np.count_nonzero(sing > threshold, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def conjugate(u, m) -> HermitianMatrix:
    """U M U*; the spectrum is preserved."""
    umat = u.entries if isinstance(u, UnitaryMatrix) else np.asarray(u, dtype=np.complex128)
    h = _as_hermitian(m)
    if umat.shape != h.entries.shape:
        raise ValueError("dimension mismatch")
    return HermitianMatrix(umat @ h.entries @ umat.conj().T)
