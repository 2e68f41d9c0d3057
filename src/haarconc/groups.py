"""Permutations, and the Haar and step samplers of U(n) as arrays.

The lazy transposition step on S_n is defined in kernel.walk_operator, which
builds its maps; the random complex reflection step on U(n) is drawn here as
(u, phi).  Y = I - c u u* with c = 1 - e^{i phi} is applied as a reflector
from (u, c), checked unitary by reflection_coefficients without forming Y;
reflection_matrices builds the dense Y, as a reference.  Both step laws are
symmetric (Y and Y^-1 agree in law) and constant on conjugacy classes, which
is what the downstream variance machinery requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., n-1} stored as its image tuple.

    ``mapping[i]`` is the image of ``i``.  Composition follows map
    application: ``compose(g1, g2).mapping[i] == g1.mapping[g2.mapping[i]]``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection of {0, ..., n-1}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        """The transposition (i j); the identity when i == j."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("transposition indices out of range")
        m = list(range(n))
        m[i], m[j] = m[j], m[i]
        return Permutation(tuple(m))


def unitarity_defects(u: np.ndarray) -> np.ndarray:
    """max|U* U - I| of every matrix in a (..., n, n) stack."""
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return np.max(np.abs(gram - np.eye(u.shape[-1])), axis=(-2, -1))


def _require_small_defects(defects: np.ndarray, stacked: bool) -> None:
    """Raise ValueError unless every unitarity defect is at most
    UNITARITY_TOL, naming the first slice of a stack that misses; a NaN
    defect fails."""
    defects = np.reshape(defects, -1)
    bad = np.flatnonzero(~(defects <= UNITARITY_TOL))
    if bad.size:
        where = f" (slice {bad[0]})" if stacked else ""
        raise ValueError(f"matrix is not unitary{where}: defect {defects[bad[0]]:.3e} "
                         f"exceeds {UNITARITY_TOL:.1e}")


def require_unitary(u: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack has unitarity defect
    at most UNITARITY_TOL; a NaN defect fails."""
    _require_small_defects(unitarity_defects(u), u.ndim > 2)


def compose(g1: Permutation, g2: Permutation) -> Permutation:
    """Product g1 * g2 of two permutations, composed as maps, left factor outermost."""
    if not (isinstance(g1, Permutation) and isinstance(g2, Permutation)):
        raise TypeError("compose takes two permutations")
    if g1.n != g2.n:
        raise ValueError("degree mismatch")
    return Permutation(tuple(g1.mapping[v] for v in g2.mapping))


def invert(g: Permutation) -> Permutation:
    """Inverse of a permutation."""
    if not isinstance(g, Permutation):
        raise TypeError(f"not a permutation: {type(g).__name__}")
    inv = [0] * g.n
    for i, v in enumerate(g.mapping):
        inv[v] = i
    return Permutation(tuple(inv))


def complex_ginibre(n: int, rng: np.random.Generator,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """An n x n matrix of i.i.d. standard complex Gaussians, or `out`, a
    (..., n, n) complex stack, filled with them.

    One standard_normal call draws, matrix by matrix, the real parts before
    the imaginary parts, into the float view of the result, which is then
    scaled by 1/sqrt(2): the bits of (re + 1j * im) / sqrt(2), since numpy
    divides a complex by a real through the reciprocal, without its complex
    temporaries.
    """
    z = np.empty((n, n), dtype=np.complex128) if out is None else out
    parts = np.moveaxis(z[..., None].view(np.float64), -1, -3)
    parts[...] = rng.standard_normal(parts.shape)
    z *= 1.0 / np.sqrt(2.0)
    return z


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (..., n, n) stack of complex Gaussian matrices.

    One stacked QR factorization, with the R diagonal phase divided out so
    the column phases are uniform rather than pinned by the factorization's
    sign convention (Mezzadri, Notices AMS 54, 2007).  Raises ValueError if
    any result misses unitarity by more than UNITARITY_TOL.  Stacked LAPACK
    calls factor each matrix exactly as a call on that matrix alone would.

    A (..., n, k) stack of the first k < n Gaussian columns gives the first
    k columns of those unitaries, checked through their k x k Gram matrix:
    the same bits for n <= 128 while BLAS runs one thread, and equal to
    rounding above, where LAPACK factors in blocks, or where a threaded
    BLAS splits the k- and the n-column updates differently (from n = 97
    on two OpenBLAS 0.3.31 threads).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    require_unitary(q)
    return q


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar sample from U(n), an (n, n) array: :func:`haar_unitaries` of one
    :func:`complex_ginibre` draw."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return haar_unitaries(complex_ginibre(n, rng))


def reflector_defects(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """max|Y* Y - I| of each Y = I - c u u*, u on the last axis, from (u, c)
    alone: Y* Y - I = gamma u u* with gamma = |c|^2 |u|^2 - 2 Re c, whose
    largest entry is |gamma| max_i |u_i|^2."""
    moduli = np.abs(u) ** 2
    gamma = np.abs(c) ** 2 * np.sum(moduli, axis=-1) - 2.0 * c.real
    return np.abs(gamma) * np.max(moduli, axis=-1, initial=0.0)


def reflection_coefficients(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """c = 1 - e^{i phi} of each reflection Y = I - c u u* (u on the last
    axis); raises ValueError, as require_unitary does, if any Y misses
    unitarity by its reflector_defects."""
    c = 1.0 - np.exp(1j * phi)
    _require_small_defects(reflector_defects(u, c), u.ndim > 1)
    return c


def reflection_matrices(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Y = I - (1 - e^{i phi}) u u* for each unit vector u (last axis) and
    angle phi, as dense matrices; raises ValueError if any Y misses
    unitarity."""
    delta = 1.0 - np.exp(1j * phi)
    outer = u[..., :, None] * np.conj(u)[..., None, :]
    y = np.eye(u.shape[-1], dtype=np.complex128) - delta[..., None, None] * outer
    require_unitary(y)
    return y


def _sample_reflection_batch(
    n: int, count: int, rng: np.random.Generator, out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draw of `count` reflection parameters (u rows, phi values).
    u is the first count n entries of the complex buffer `out`, or a new
    array.  The normals go straight into its float view, row by row, each
    coordinate's real part next to its imaginary part; each row is then
    divided by the root of its sum of squares over that view.  cos(phi/2) is
    the first coordinate of a uniform point on the sphere in R^{n+1}, so
    (1 + cos(phi/2))/2 ~ Beta(n/2, n/2), drawn after all of u."""
    if out is None:
        out = np.empty(count * n, dtype=np.complex128)
    u = out[: count * n].reshape(count, n)
    parts = u.view(np.float64)
    rng.standard_normal(out=parts)
    parts /= np.sqrt(np.einsum("ij,ij->i", parts, parts))[:, None]
    return u, 2.0 * np.arccos(2.0 * rng.beta(n / 2, n / 2, count) - 1.0)


def sample_reflection_step(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.float64]:
    """One reflection step (u, phi): u uniform on the complex unit sphere in
    C^n, phi on [0, 2*pi] with density proportional to sin(phi/2)^(n-1)
    (one beta draw), independent; Y = I - c u u* with
    c = reflection_coefficients(u, phi) is its matrix, and
    reflection_matrices(u, phi) builds it."""
    if n < 1:
        raise ValueError("n must be at least 1")
    u, phi = _sample_reflection_batch(n, 1, rng)
    return u[0], phi[0]


def sample_haar_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform sample from S_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Permutation(tuple(int(v) for v in rng.permutation(n)))

