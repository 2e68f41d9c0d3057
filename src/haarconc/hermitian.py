"""Hermitian matrices and their spectral statistics, on stacked arrays.

Everything downstream consumes the empirical spectral CDF
F(x) = #{eigenvalues <= x} / n, so this module works on (..., n, n) stacks
of matrices and (..., n) arrays of eigenvalues from np.linalg.eigvalsh:
hermitisation, conjugation by a unitary or by a reflector in O(n^2), CDF
counts, the exact sup-distance between two CDFs from one merge of their
spectra, and the rank of a difference from its eigvalsh (which controls how
far two CDFs can be apart: sup |F_M - F_N| <= rank(M - N) / n).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12


def hermitian_parts(a: np.ndarray) -> np.ndarray:
    """(A + A*) / 2 for every matrix A of a (..., n, n) stack.

    Raises ValueError if any A has hermiticity defect max|A - A*| above
    ``HERMITICITY_TOL * max(1, max|A|)``, or a NaN defect.
    """
    ah = np.conj(np.swapaxes(a, -1, -2))
    defects = np.reshape(np.max(np.abs(a - ah), axis=(-2, -1), initial=0.0), -1)
    scales = np.reshape(np.max(np.abs(a), axis=(-2, -1), initial=1.0), -1)
    bad = np.flatnonzero(~(defects <= HERMITICITY_TOL * scales))
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


def reflect_stack(u: np.ndarray, c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Y M Y*, hermitised, for every reflector Y = I - c u u* of a stack: u
    an (..., n) array of vectors, c the (...) array of their coefficients and
    ``m`` an (..., n, n) stack of hermitian matrices.

    Y is applied in its reflector form (Schreiber & Van Loan, 1989), never
    built: with a = u* M, Y M = M - c u a and Y M Y* = Y M - conj(c) (Y M u) u*,
    two rank-one updates in O(n^2) per matrix where conjugate_stack takes
    two O(n^3) products.
    """
    a = np.conj(u)[..., None, :] @ m
    ym = (c[..., None, None] * u[..., :, None]) * a
    np.subtract(m, ym, out=ym)
    ymy = (np.conj(c)[..., None, None] * (ym @ u[..., :, None])) * np.conj(u)[..., None, :]
    return hermitian_parts(np.subtract(ym, ymy, out=ymy))


def cdf_counts(eigs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """#{lambda <= x} for each spectrum, one per row of ``eigs``, at each
    point of the last axis of ``x``; the leading axes broadcast."""
    return np.count_nonzero(eigs[..., :, None] <= x[..., None, :], axis=-2)


def sup_cdf_distance(eigs1, eigs2):
    """Exact sup-norm distance between the empirical spectral CDFs of two
    (..., n) eigenvalue arrays, one spectrum per row: a float for one
    spectrum each, else an array of distances.

    Both step functions are constant between jump points, so the supremum is
    attained at one of the merged eigenvalues.  One stable sort of the 2n
    merged values, each counted +1 from eigs1 and -1 from eigs2, gives a
    running count; at the last entry of each run of equal values it is
    #{eigs1 <= x} - #{eigs2 <= x} at that value x, the integers cdf_counts
    gives on the merged grid, in O(n log n) instead of O(n^2), and exact up
    to a single final division.
    """
    e1, e2 = np.asarray(eigs1), np.asarray(eigs2)
    if e1.shape != e2.shape:
        raise ValueError("CDFs must have the same number of eigenvalues")
    n = e1.shape[-1]
    merged = np.concatenate([e1, e2], axis=-1)
    order = np.argsort(merged, axis=-1, kind="stable")
    running = np.cumsum(np.where(order < n, 1, -1), axis=-1)
    values = np.take_along_axis(merged, order, axis=-1)
    run_ends = np.ones(values.shape, dtype=bool)
    run_ends[..., :-1] = values[..., 1:] != values[..., :-1]
    gaps = np.max(np.abs(running), axis=-1, where=run_ends, initial=0) / n
    return float(gaps) if gaps.ndim == 0 else gaps


def _hermitian_rank(d: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Numerical rank of each D of an (..., n, n) stack that is already
    exactly hermitian: its singular values above tol * max(sigma_max, 1).

    They are the moduli of D's eigenvalues, so they come from eigvalsh,
    which is cheaper than an SVD.  D is taken as it is: (D + D*) / 2 would
    equal D bit for bit.
    """
    sing = np.abs(np.linalg.eigvalsh(d))
    threshold = tol * np.maximum(np.max(sing, axis=-1, keepdims=True, initial=0.0), 1.0)
    return np.count_nonzero(sing > threshold, axis=-1)

