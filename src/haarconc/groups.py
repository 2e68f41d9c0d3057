"""Group elements and samplers for the symmetric group S_n and the unitary group U(n).

Two families of random walk steps are provided: lazy random transpositions on
S_n and random complex reflections on U(n).  Both step laws are symmetric
(Y and Y^-1 agree in law) and constant on conjugacy classes, which is what the
downstream variance machinery requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

UNITARITY_TOL = 1e-12

LAZY_TRANSPOSITION = "lazy-transposition"
UNITARY_REFLECTION = "unitary-reflection"


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., n-1} stored as its image tuple.

    ``mapping[i]`` is the image of ``i``.  Composition follows map
    application: ``compose(g1, g2)(i) == g1.mapping[g2.mapping[i]]``.
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

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def fixed_points(self) -> int:
        return sum(1 for i, v in enumerate(self.mapping) if i == v)


class UnitaryMatrix:
    """An n x n complex matrix expected to be unitary.

    Samplers check ``max|U* U - I| <= 1e-12`` when they build the entries
    (:func:`require_unitary`).  Products built with :func:`compose` are not
    re-checked; call :meth:`unitarity_defect` on demand.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, *, check: bool = False, tol: float = UNITARITY_TOL):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must form a square matrix")
        self.entries = arr
        if check:
            require_unitary(arr, tol)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    def unitarity_defect(self) -> float:
        return float(unitarity_defects(self.entries))


def unitarity_defects(u: np.ndarray) -> np.ndarray:
    """max|U* U - I| of every matrix in a (..., n, n) stack."""
    gram = np.conj(np.swapaxes(u, -1, -2)) @ u
    return np.max(np.abs(gram - np.eye(u.shape[-1])), axis=(-2, -1))


def require_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    """Raise ValueError unless every matrix of the stack has unitarity defect
    at most ``tol``; a NaN defect fails."""
    defects = np.reshape(unitarity_defects(u), -1)
    bad = np.flatnonzero(~(defects <= tol))
    if bad.size:
        where = f" (slice {bad[0]})" if u.ndim > 2 else ""
        raise ValueError(
            f"matrix is not unitary{where}: defect {defects[bad[0]]:.3e} exceeds {tol:.1e}"
        )


class ReflectionStep:
    """A complex reflection Y = I - (1 - e^{i phi}) u u*.

    Y acts as multiplication by e^{i phi} on the complex line through the unit
    vector u and as the identity on its orthocomplement, so its eigenvalues
    are e^{i phi} once and 1 with multiplicity n - 1, and det Y = e^{i phi}.
    """

    __slots__ = ("u", "phi")

    def __init__(self, u, phi: float):
        vec = np.array(u, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"u must be a unit vector (norm {norm!r})")
        phi = float(phi)
        if not (0.0 <= phi <= 2.0 * np.pi):
            raise ValueError("phi must lie in [0, 2*pi]")
        self.u = vec
        self.phi = phi

    @property
    def n(self) -> int:
        return int(self.u.size)

    def matrix(self) -> UnitaryMatrix:
        return UnitaryMatrix(reflection_matrices(self.u, np.float64(self.phi)))


@dataclass(frozen=True)
class StepDistribution:
    """The law of a single walk step.

    ``lazy-transposition`` on S_n puts mass 1/n on the identity and 2/n^2 on
    each transposition (draw i, j independently uniform; i == j is lazy).
    ``unitary-reflection`` on U(n) is the ReflectionStep law.
    """

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in (LAZY_TRANSPOSITION, UNITARY_REFLECTION):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @classmethod
    def lazy_transposition(cls, n: int) -> "StepDistribution":
        return cls(LAZY_TRANSPOSITION, n)

    @classmethod
    def unitary_reflection(cls, n: int) -> "StepDistribution":
        return cls(UNITARY_REFLECTION, n)

    @property
    def is_finite(self) -> bool:
        return self.kind == LAZY_TRANSPOSITION

    def support(self) -> Iterator[tuple[Permutation, Fraction]]:
        """Exact (element, mass) pairs; only defined for finite step kinds."""
        if not self.is_finite:
            raise ValueError("support enumeration requires a finite step kind")
        n = self.n
        yield Permutation.identity(n), Fraction(1, n)
        for i in range(n):
            for j in range(i + 1, n):
                yield Permutation.transposition(n, i, j), Fraction(2, n * n)


GroupElement = Union[Permutation, UnitaryMatrix]


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product g1 * g2 (permutations compose as maps, left factor outermost)."""
    if isinstance(g1, Permutation) and isinstance(g2, Permutation):
        if g1.n != g2.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(g1.mapping[v] for v in g2.mapping))
    if isinstance(g1, UnitaryMatrix) and isinstance(g2, UnitaryMatrix):
        if g1.n != g2.n:
            raise ValueError("dimension mismatch")
        return UnitaryMatrix(g1.entries @ g2.entries)
    raise TypeError("cannot compose elements of different groups")


def invert(g: GroupElement) -> GroupElement:
    """Group inverse; for a unitary matrix this is the conjugate transpose."""
    if isinstance(g, Permutation):
        inv = [0] * g.n
        for i, v in enumerate(g.mapping):
            inv[v] = i
        return Permutation(tuple(inv))
    if isinstance(g, UnitaryMatrix):
        return UnitaryMatrix(g.entries.conj().T)
    raise TypeError(f"not a group element: {type(g).__name__}")


def complex_ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """An n x n matrix of i.i.d. standard complex Gaussians; the real parts
    are drawn before the imaginary parts.

    Both draws go straight into the float view of the result, which is then
    scaled by 1/sqrt(2): the bits of (re + 1j * im) / sqrt(2), since numpy
    divides a complex by a real through the reciprocal, without its complex
    temporaries.
    """
    z = np.empty((n, n), dtype=np.complex128)
    parts = z.view(np.float64).reshape(n, n, 2)
    parts[..., 0] = rng.standard_normal((n, n))
    parts[..., 1] = rng.standard_normal((n, n))
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


def sample_haar_unitary(n: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Haar sample from U(n): :func:`haar_unitaries` of one
    :func:`complex_ginibre` draw."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return UnitaryMatrix(haar_unitaries(complex_ginibre(n, rng)))


def reflection_matrices(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Y = I - (1 - e^{i phi}) u u* for each unit vector u (last axis) and
    angle phi; raises ValueError if any Y misses unitarity."""
    delta = 1.0 - np.exp(1j * phi)
    outer = u[..., :, None] * np.conj(u)[..., None, :]
    y = np.eye(u.shape[-1], dtype=np.complex128) - delta[..., None, None] * outer
    require_unitary(y)
    return y


def _sample_reflection_batch(
    n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draw of `count` reflection parameters (u rows, phi values)."""
    g = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    # The first coordinate of a uniform point on the real unit sphere in
    # R^{n+1} is cos(theta) with theta-density proportional to sin^{n-1} on
    # [0, pi]; phi = 2*theta then has density proportional to sin^{n-1}(phi/2)
    # on [0, 2*pi].  Rejection-free and exact.
    v = rng.standard_normal((count, n + 1))
    cos_theta = v[:, 0] / np.linalg.norm(v, axis=1)
    phi = 2.0 * np.arccos(np.clip(cos_theta, -1.0, 1.0))
    return u, phi


def sample_reflection_step(n: int, rng: np.random.Generator) -> ReflectionStep:
    """One reflection step: u uniform on the complex unit sphere in C^n,
    phi on [0, 2*pi) with density proportional to sin(phi/2)^(n-1), independent."""
    if n < 1:
        raise ValueError("n must be at least 1")
    u, phi = _sample_reflection_batch(n, 1, rng)
    return ReflectionStep(u[0], float(phi[0]))


def sample_haar_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform sample from S_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Permutation(tuple(int(v) for v in rng.permutation(n)))


def sample_step(dist: StepDistribution, rng: np.random.Generator) -> GroupElement:
    """Draw one step from the given distribution, materialized as a group element."""
    if dist.is_finite:
        i, j = rng.integers(0, dist.n, size=2)
        return Permutation.transposition(dist.n, int(i), int(j))
    return sample_reflection_step(dist.n, rng).matrix()
