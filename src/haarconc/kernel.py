"""The exact S_n walk operator and its pair identities.

For a step law Y on a finite group G the walk moves x -> Yx, so the kernel is
P(x, z) = P{Y = z x^-1}, and (P f)(x) = sum_y q(y) f(yx).  The walk operator
stores that sum as one left-action index map per support element y with its
mass q(y), never as a |G| x |G| matrix; walk_operator defines the S_n step
and builds those maps from the group table.  With a symmetric step made of
involutions, P is exactly symmetric (the uniform measure makes (X, YX) an
exchangeable pair), so the same gather also advances the walk law.
One application is one stacked gather f[L_y] for every y at once, scaled by
the masses, whose rows are then summed strictly in support order: row 0,
then + row 1, and so on.  That is the floating-point sequence of summing
q(y) f[L_y] one map at a time, so the results are the same bits; the
certified envelope depends on them (see mixing.fit_decay), and a sum in any
other order is not a drop-in replacement.
The pair function F(x, y) = sum_k (P^k f(x) - P^k f(y)) telescopes through the
potential h = sum_k P^k f, which this module computes by certified series
truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .groups import Permutation

# One cap for the table, the walk operator and the S_n configs: at n = 8 the
# table is 40320 elements and the operator's maps take 9.4 MB.
MAX_DEGREE = 8

CENTERING_TOL = 1e-12
# Terms of the pair potential series before it gives up.
PAIR_POTENTIAL_MAX_ITER = 1_000_000


class FiniteGroupTable:
    """Canonical enumeration of S_n in Lehmer (lexicographic) order.

    itertools.permutations yields tuples in lexicographic order, so row index
    and Lehmer rank coincide.  Read as base-n numbers the rows keep that
    order, so the rank of any images is where their number falls among the
    rows' numbers.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        if n > MAX_DEGREE:
            raise ValueError(f"group table limited to degree {MAX_DEGREE}")
        self.n = n
        self.mappings = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        self._digits = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self._keys = self.mappings @ self._digits

    @property
    def size(self) -> int:
        return int(self.mappings.shape[0])

    @property
    def identity_index(self) -> int:
        return 0

    def _ranks(self, images: np.ndarray) -> np.ndarray:
        """Lehmer rank of each row of an (m, n) array of permutation images."""
        return np.searchsorted(self._keys, images @ self._digits)

    def rank(self, perm) -> int:
        key = perm.mapping if isinstance(perm, Permutation) else tuple(perm)
        if len(key) != self.n or sorted(key) != list(range(self.n)):
            raise ValueError(f"not an element of S_{self.n}: {key!r}")
        return int(self._ranks(np.array([key]))[0])

    def fixed_point_counts(self) -> np.ndarray:
        """Number of fixed points of each element, in table order."""
        return np.sum(self.mappings == np.arange(self.n), axis=1)


@dataclass(frozen=True)
class WalkOperator:
    """The lazy-transposition walk on S_n as index maps, built by
    walk_operator(n), where the step is defined: ``actions[r]`` (np.intp)
    is L with L[rank(g)] = rank(y o g) for the r-th support element y, and
    ``masses[r]`` is its probability."""

    table: FiniteGroupTable
    actions: np.ndarray
    masses: np.ndarray

    @property
    def size(self) -> int:
        return self.table.size

    def apply(self, f: np.ndarray) -> np.ndarray:
        """sum_y q(y) f[L_y] for a float vector f in table order: P f, and
        also the walk law one step on, since every map is an involution and
        P is therefore symmetric.

        One gather takes f[L_y] for every y; the rows, scaled by their
        masses, are then added one at a time in support order, starting
        from row 0 itself.  That keeps the bits of the per-map sum
        q_0 f[L_0] + q_1 f[L_1] + ...: np.add.reduce would start from +0.0
        and turn a -0.0 into +0.0, and a pairwise or blocked sum rounds
        differently.
        """
        rows = np.take(f, self.actions)
        rows *= self.masses[:, None]
        out = rows[0].copy()
        for row in rows[1:]:
            out += row
        return out

    def differences(self, f: np.ndarray) -> np.ndarray:
        """f - f o L_y for every support element y, one row each, taken in
        the buffer of the gather."""
        rows = np.take(f, self.actions)
        return np.subtract(f, rows, out=rows)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the two exact pair identities for one test function."""

    conditional_mean_residual: float
    variance_residual: float
    truncation_eps: float


def walk_operator(n: int) -> WalkOperator:
    """The walk operator of the lazy transposition step on S_n, defined here:
    draw i, j independently uniform in {0, ..., n-1} and move x -> (i j) x,
    so the identity has mass 1/n and each transposition (i j), taken i < j
    in lexicographic order, 2/n^2.  FiniteGroupTable refuses n > MAX_DEGREE
    before any enumeration.

    Checks that the masses sum to 1 within 1e-14 and that every map is an
    involution.
    """
    table = FiniteGroupTable(n)
    pairs = list(itertools.combinations(range(n), 2))
    masses = np.array([1.0 / n] + [2.0 / (n * n)] * len(pairs))
    mass_defect = abs(float(np.sum(masses)) - 1.0)
    if mass_defect > 1e-14:
        raise AssertionError(f"step masses sum to 1 within 1e-14 (defect {mass_defect:.3e})")
    actions = np.empty((len(masses), table.size), dtype=np.intp)
    actions[0] = np.arange(table.size)
    # (i j) o g has g's images with the values i and j swapped; one map at a
    # time, as the images of every map at once would take 74 MB at n = 8.
    for action, (i, j) in zip(actions[1:], pairs):
        swap = np.arange(n)
        swap[[i, j]] = j, i
        action[:] = table._ranks(swap[table.mappings])
        if not np.array_equal(action[action], actions[0]):
            raise AssertionError(f"the map of ({i} {j}) is not an involution")
    return WalkOperator(table, actions, masses)


def _check_vector(op: WalkOperator, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (op.size,):
        raise ValueError("f must be a vector over the group, in table order")
    return f


def pair_potential(op: WalkOperator, f, eps: float = 1e-12) -> np.ndarray:
    """h = sum_{k>=0} P^k f, truncated at the first K with max|P^K f| < eps/2.

    The remaining tail is geometrically dominated once the sup norm is below
    eps/2, so the truncation error in any pair difference h(x) - h(y) is
    O(eps) for a walk with a spectral gap.
    """
    f = _check_vector(op, f)
    if abs(float(np.mean(f))) > CENTERING_TOL:
        raise ValueError("f must be centered: |mean f| <= 1e-12")
    if eps <= 0:
        raise ValueError("eps must be positive")
    h = np.zeros_like(f)
    g = f.copy()
    for _ in range(PAIR_POTENTIAL_MAX_ITER):
        if float(np.max(np.abs(g))) < eps / 2.0:
            return h
        h += g
        g = op.apply(g)
    raise RuntimeError(
        "pair potential series did not meet the truncation criterion within "
        f"{PAIR_POTENTIAL_MAX_ITER} iterations"
    )


def _element_index(op: WalkOperator, x) -> int:
    if isinstance(x, (int, np.integer)):
        idx = int(x)
        if not 0 <= idx < op.size:
            raise ValueError("element index out of range")
        return idx
    return op.table.rank(x)


def pair_function(op: WalkOperator, f, x, y, eps: float = 1e-12) -> float:
    """F(x, y) = sum_k (P^k f(x) - P^k f(y)); antisymmetric by construction.

    x and y may be Permutations or table indices.
    """
    h = pair_potential(op, f, eps=eps)
    return float(h[_element_index(op, x)] - h[_element_index(op, y)])


def check_identities(op: WalkOperator, f, eps: float = 1e-12) -> IdentityReport:
    """Residuals of the conditional-mean and variance identities.

    (i)  E_Y F(x, Yx) = f(x) for every x, i.e. h - Ph = f.
    (ii) Var f = (1/2) sum_y q(y) E[(f(X) - f(yX)) (h(X) - h(yX))] with X uniform.
    """
    f = np.asarray(f, dtype=float)
    h = pair_potential(op, f, eps=eps)
    res_cond = float(np.max(np.abs(h - op.apply(h) - f)))
    var_exact = float(np.mean(f * f) - np.mean(f) ** 2)
    flow = op.differences(f)
    flow *= op.differences(h)
    var_pair = 0.5 * float(np.mean(op.masses @ flow))
    return IdentityReport(res_cond, abs(var_exact - var_pair), eps)


def step_seminorm(op: WalkOperator, f) -> float:
    """sup_x sqrt(E (f(x) - f(Yx))^2), computed exactly from the walk operator."""
    d = op.differences(_check_vector(op, f))
    d *= d
    return float(np.sqrt(np.max(op.masses @ d)))
