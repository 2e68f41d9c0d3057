"""Hermitian matrices and their spectral statistics, on stacked arrays.

Everything downstream consumes the empirical spectral CDF
F(x) = #{eigenvalues <= x} / n, so this module works on (..., n, n) stacks
of matrices and (..., n) arrays of eigenvalues from np.linalg.eigvalsh:
hermitisation, conjugation by a unitary or by a reflector in O(n^2), CDF
counts, the exact sup-distance between two CDFs from one merge of their
spectra, and the rank of a difference (which controls how far two CDFs can
be apart: sup |F_M - F_N| <= rank(M - N) / n), certified from a 2 x 2
compression where it can be and from eigvalsh where it cannot.
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


# Rounding allowance of _certified_rank per unit of n |D|_F: it covers the
# products that form C and R, the 2 x 2 eigenvalues, and the backward error
# of the eigvalsh that _hermitian_rank would run.
_CERTIFICATE_ROUNDING = 16 * np.finfo(np.float64).eps


def _certified_rank(d: np.ndarray, u: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """_hermitian_rank(d, tol) of each D of an (..., n, n) stack that is
    already exactly hermitian, where u, the matching (..., n) vectors, and
    D u span (nearly) all of D's range, as for the difference of a matrix
    and its image under the reflector I - c u u*: then most slices need no
    eigvalsh of D.

    With Q an orthonormal basis of span{u, D u}, C = Q* D Q and
    R = D - Q (Q* D), D - Q C Q* = R + Q Q* D (I - Q Q*) has norm at most
    delta = 2 |R|_F (plus a rounding allowance), so by Weyl's inequality each
    eigenvalue of D lies within delta of its partner among eig(C) and n - 2
    zeros, and its largest modulus within delta of max |eig(C)|.  A slice is
    certified when delta and every |eig(C)| lie more than delta away from
    the band that this pins _hermitian_rank's threshold to; its rank is the
    count of |eig(C)| above the band.  Every other slice, where D u is
    parallel to u (D = 0 among them), a value is NaN, or D has range
    outside the span, goes to _hermitian_rank, so the result always equals
    _hermitian_rank(d, tol).
    """
    n = d.shape[-1]
    shape = d.shape[:-2]
    d = d.reshape(-1, n, n)
    u = u.reshape(-1, n)
    q1 = u / _nonzero(_norms(u))[:, None]
    p = (d @ q1[:, :, None])[:, :, 0]
    v = p - q1 * np.einsum("ij,ij->i", np.conj(q1), p)[:, None]
    v -= q1 * np.einsum("ij,ij->i", np.conj(q1), v)[:, None]
    v_norm = _norms(v)
    # Q is orthonormal to rounding once v keeps more than sqrt(eps) of D u.
    spans = v_norm > np.sqrt(np.finfo(np.float64).eps) * _norms(p)
    q_h = np.empty((len(d), 2, n), dtype=np.complex128)
    q_h[:, 0] = np.conj(q1)
    q_h[:, 1] = np.conj(v) / _nonzero(np.where(spans, v_norm, 0.0))[:, None]
    q = np.conj(np.swapaxes(q_h, -1, -2))
    qd = q_h @ d
    r = q @ qd
    r = _norms(np.subtract(d, r, out=r))
    c = qd @ q
    mid = (c[:, 0, 0].real + c[:, 1, 1].real) / 2.0
    off = (c[:, 0, 1] + np.conj(c[:, 1, 0])) / 2.0
    radius = np.hypot(np.hypot((c[:, 0, 0].real - c[:, 1, 1].real) / 2.0, off.real), off.imag)
    moduli = np.abs(mid[:, None] + radius[:, None] * np.array([-1.0, 1.0]))
    delta = 2.0 * r + _CERTIFICATE_ROUNDING * n * np.hypot(_norms(qd), r)
    top = np.abs(mid) + radius
    low = tol * np.maximum(top - delta, 1.0)
    high = tol * np.maximum(top + delta, 1.0)
    above = moduli - delta[:, None] > high[:, None]
    below = moduli + delta[:, None] < low[:, None]
    certified = spans & (delta < low) & np.all(above | below, axis=-1)
    ranks = np.count_nonzero(above, axis=-1)
    if not np.all(certified):
        ranks[~certified] = _hermitian_rank(d[~certified], tol)
    return ranks.reshape(shape)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each x[i] of a complex stack, over all its other
    axes."""
    flat = np.ascontiguousarray(x).reshape(len(x), -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _nonzero(x: np.ndarray) -> np.ndarray:
    """x with its zeros (and NaNs) replaced by 1, a divisor that cannot warn."""
    return np.where(x > 0, x, 1.0)
