"""Total-variation decay of the walk and certified exponential envelopes.

The exact S_n curve d_TV(k) comes from k steps of the walk operator applied
to the point mass at the identity.
fit_decay turns a computed curve into a certified envelope a * e^(-b k):
the rate is a least-squares fit on the log curve, after which the prefactor
is inflated until the envelope dominates every computed point above the
noise floor.  For U(n), where no exact curve is available, a trace-moment
diagnostic provides a PROXY decay rate.

The U(n) diagnostic simulates its walks walk-major: the walks are split
into groups of _GROUP_BYTES of working set, and each group takes all of its
steps on its own generator, seeded from the caller's generator through a
SeedSequence.  Within a group, steps run in blocks of _BLOCK_STEPS, drawn
in one call; the product Y_s ... Y_1 of a block's reflections has the WY
form I - U T U^H (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989),
with U = [u_1 ... u_s] and T lower triangular, so a block costs two BLAS-3
products per walk instead of s rank-one updates, applied in place on
contiguous tiles of whole walks.  The groups run in units on the forked
workers of haarconc.workers, under one workers.plan like the matrix chunks:
each worker claims the next unclaimed unit until none is left.  Each unit
of groups streams the mean of |Tr W_k|^2 and the sum of squared deviations
per k, so memory grows with reps only by those moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import workers
from .groups import _sample_reflection_batch
from .kernel import WalkOperator

# Steps whose reflection parameters are drawn before the walks take them.
_BLOCK_STEPS = 8
# Working set of one walk group, _walk_bytes per walk: 117 walks at n = 32.
_GROUP_BYTES = 4 * 1024 * 1024
# Memory of one curve point from the walk to the report (peak RSS grew by
# 218 B a point for S_3, by 247 B for U(2) besides its units' moments).
CURVE_POINT_BYTES = 256
# Curve values at or below this are float noise: fit_decay neither fits nor
# certifies them.
FIT_FLOOR = 1e-12


@dataclass(frozen=True)
class TVCurve:
    """d_TV(walk law at step k, uniform) for k = 0 .. len(values) - 1.

    A curve computed with a `law_below` target also keeps `law`, the exact
    walk law at step `law_step`: the first k with d_TV(k) <= target, or the
    last k if none is.
    """

    values: np.ndarray
    law_step: Optional[int] = None
    law: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("curve must be a nonempty vector")
        if np.any(vals < -1e-15) or np.any(vals > 1.0 + 1e-12):
            raise ValueError("total-variation values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class DecayFit:
    """Envelope a * e^(-b k) with tau = log(a)/b, fit window, and log-domain residual."""

    a: float
    b: float
    tau: float
    window: tuple[int, int]
    residual: float


@dataclass(frozen=True)
class MixingDiagnostic:
    """Monte Carlo moment curve m(k) = E|Tr(Y_1 ... Y_k)|^2 with a PROXY fit.

    m(0) = n^2 and m(k) -> 1 (the Haar value) as the walk mixes; the decay of
    |m(k) - 1| tracks mixing but is not a total-variation bound.
    """

    moments: np.ndarray
    stderrs: np.ndarray
    deviations: np.ndarray
    fit: Optional[DecayFit]
    note: str


def _point_mass(op: WalkOperator) -> np.ndarray:
    law = np.zeros(op.size)
    law[op.table.identity_index] = 1.0
    return law


def exact_tv_curve(op: WalkOperator, k_max: int, law_below: Optional[float] = None) -> TVCurve:
    """d_TV(k) for k = 0 .. k_max, exact up to float summation.

    With `law_below`, the curve also keeps the law at the first step whose
    distance is at most `law_below` (at k_max if none is), so a caller that
    samples from it does not walk to that step a second time.

    The walk stops at its floating-point fixed point: op.apply is a
    deterministic function of its input, so once a step returns its input
    unchanged, every later step would too, and the remaining values repeat
    the last one (for the lazy transposition walk from k = 76 / 97 / 115 /
    150 at n = 5 / 6 / 7 / 8).  The laws are nonnegative, so no -0.0 can
    make equal values differ in their bits.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    uniform = 1.0 / op.size
    law = _point_mass(op)
    values = np.empty(k_max + 1)
    kept = ()
    for k in range(k_max + 1):
        if k:
            step = op.apply(law)
            if np.array_equal(step, law):
                values[k:] = values[k - 1]
                break
            law = step
        values[k] = 0.5 * float(np.sum(np.abs(law - uniform)))
        if not kept and law_below is not None and values[k] <= law_below:
            kept = (k, law)
    if not kept and law_below is not None:
        kept = (k_max, law)
    return TVCurve(values, *kept)


def fit_decay(curve, floor: float = FIT_FLOOR) -> DecayFit:
    """Certified exponential envelope for a decaying curve.

    The rate comes from a least-squares line on log(values) over the window
    where values lie strictly inside (floor, 0.5); the prefactor is then
    raised until a * e^(-b k) >= value(k) for every k with value(k) > floor.

    Both the window and the prefactor rest on the values just above the
    floor, where the rounding of an exact curve is large in relative terms,
    so the envelope of the S_n curve is reproducible only bit for bit.  At
    n = 7, summing the walk law in BLAS order instead of support order moves
    the curve by at most 3.1e-16, but the value at k = 84 by 5e-5 relative
    (1.27168565e-12 against 1.27175290e-12), a by 1.7e-6 and b by 2.8e-7.
    An L2 contraction bound on the tail from the exact law at one step, as
    planned for ROADMAP item 4, would not depend on these values.
    """
    values = np.asarray(curve.values if isinstance(curve, TVCurve) else curve, dtype=float)
    if floor < 0:
        raise ValueError("floor must be nonnegative")
    ks = np.arange(values.size)
    window = (values > floor) & (values < 0.5)
    if int(np.sum(window)) < 3:
        raise ValueError("need at least 3 curve points strictly between floor and 0.5")
    slope, intercept = np.polyfit(ks[window], np.log(values[window]), 1)
    b = -float(slope)
    if b <= 0:
        raise ValueError("curve does not decay: fitted rate is not positive")
    residual = float(np.max(np.abs(np.log(values[window]) - (intercept + slope * ks[window]))))
    certified = values > floor
    a = max(float(np.exp(intercept)), float(np.max(values[certified] * np.exp(b * ks[certified]))))
    tau = float(np.log(a) / b)
    lo, hi = int(ks[window][0]), int(ks[window][-1])
    return DecayFit(a=a, b=b, tau=tau, window=(lo, hi), residual=residual)


def _wy_factor(gram: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Lower-triangular T with Y_s ... Y_1 = I - U T U^H, per walk.

    Y_j = I - c_j u_j u_j^H; `gram` is U^H U (shape (m, s, s)) and `c` holds
    c_j (shape (m, s)).  Row j is T[j, :j] = -c_j (u_j^H U_{:j}) T_{:j, :j}
    with T[j, j] = c_j: no division, so c -> 0 (phi -> 0) is harmless.
    """
    m, s = c.shape
    t = np.zeros((m, s, s), dtype=np.complex128)
    t[:, 0, 0] = c[:, 0]
    for j in range(1, s):
        row = gram[:, j, None, :j] @ t[:, :j, :j]
        np.multiply(row[:, 0], -c[:, j, None], out=t[:, j, :j])
        t[:, j, j] = c[:, j]
    return t


def _reflect_block(w, u, u_h, c, traces, uhw, rows) -> None:
    """W <- Y_s ... Y_1 W in place for a stack of m walks, Y_j = I - c_j u_j u_j^H.

    `u` has shape (m, n, s) with u_j in column j, `u_h` is its conjugate
    transpose U^H (shape (m, s, n)), and `c` has shape (m, s).  traces[j]
    (shape (s, m)) receives Tr W after step j + 1: with M = U^H W and
    G = M U, Tr(Y_{j+1} ... Y_1 W) is Tr W minus the prefix sum over a <= j
    of sum_b T[a, b] G[b, a].  M goes into `uhw` (the shape of `u_h`), then
    T M over `u_h`, and W - U (T M) is taken one contiguous tile at a time
    through `rows`, whose cells (rows.size // n rows of n entries) hold a
    tile: whole walks when they hold at least one walk, else a band of rows
    of one walk.  A contiguous tile takes its subtraction without ufunc
    buffers.
    """
    t = _wy_factor(u_h @ u, c)
    np.matmul(u_h, w, out=uhw)
    g = uhw @ u
    steps = np.cumsum(np.einsum("wab,wba->wa", t, g), axis=1)
    traces[:] = (np.trace(w, axis1=1, axis2=2)[:, None] - steps).T
    tuhw = np.matmul(t, uhw, out=u_h)
    m, n = w.shape[:2]
    cells = rows.size // n
    walks = max(1, cells // n)
    band = min(n, cells // walks)
    for lo in range(0, m, walks):
        for top in range(0, n, band):
            tile = w[lo : lo + walks, top : top + band]
            tile -= np.matmul(u[lo : lo + walks, top : top + band], tuhw[lo : lo + walks],
                              out=rows.reshape(-1)[: tile.size].reshape(tile.shape))


def _merge(acc: np.ndarray, count: int, size: int, mean: np.ndarray, m2: np.ndarray) -> None:
    """Take `size` values of mean `mean` and sum of squared deviations `m2`
    into acc = (mean, m2) of `count` values, in place: the pairwise update of
    Chan, Golub & LeVeque (Amer. Stat. 37, 1983); exact from count = 0."""
    delta = mean - acc[0]
    acc[0] += delta * (size / (count + size))
    acc[1] += m2 + delta * delta * (count * size / (count + size))


def _walk_group(n: int, k_max: int, m: int, seed, acc: np.ndarray, count: int) -> None:
    """All k_max steps of one group of m walks, drawn from its own generator.

    acc (shape (2, k_max)) holds the moments of |Tr W_k|^2, k = 1 .. k_max,
    over the `count` walks of the unit before this group; the group's own,
    taken two-pass at the end of each block, are merged in.  Steps run in
    blocks of s <= _BLOCK_STEPS: the s m parameters (u, phi) of a block are
    drawn in one _sample_reflection_batch call into the group's draw buffer,
    walk-major (draw i s + j is step j of walk i), then the group takes the
    whole block as one rank-s update W <- W - U (T (U^H W)), where
    I - U T U^H is the compact WY form of the block's product; the traces
    after each step of the block come from the s x s matrix U^H W U.  The
    four s m x n buffers are made once per group, so no block allocates one
    (a fresh draw array each block let the heap's layout move peak RSS by
    2 MB with the length of the command line).
    """
    rng = np.random.default_rng(seed)
    w = np.zeros((m, n, n), dtype=np.complex128)
    w.reshape(m, n * n)[:, :: n + 1] = 1.0
    traces = np.empty((_BLOCK_STEPS, m), dtype=np.complex128)
    draws, u_h, uhw, rows = (np.empty(m * _BLOCK_STEPS * n, dtype=np.complex128)
                             for _ in range(4))
    for first in range(1, k_max + 1, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, k_max + 1 - first)
        block = (m, steps, n)
        u, phi = _sample_reflection_batch(n, m * steps, rng, draws)
        u_hb = np.conjugate(u.reshape(block), out=u_h[: u.size].reshape(block))
        c = 1.0 - np.exp(1j * phi.reshape(m, steps))
        _reflect_block(w, u.reshape(block).transpose(0, 2, 1), u_hb, c, traces[:steps],
                       uhw[: u.size].reshape(block), rows)
        sq = np.abs(traces[:steps]) ** 2
        mean = sq.mean(axis=1)
        _merge(acc[:, first - 1 : first + steps - 1], count, m, mean,
               np.sum((sq - mean[:, None]) ** 2, axis=1))


def _walk_bytes(n: int) -> int:
    """Working set of one walk of a group, (n^2 + 4sn + 2s^2 + 6s) 16 B: W,
    four s x n buffers (the block's draws, U^H, U^H W and the rows of the
    update's tiles), a block's s x s factors and its s-vectors, as traced by
    tracemalloc.  The draws' norms and the tile update take no n-sized
    temporary."""
    s = _BLOCK_STEPS
    return (n * n + 4 * s * n + 2 * s * s + 6 * s) * 16


def _group_size(n: int) -> int:
    """Walks per walk group: _GROUP_BYTES of working set, at least one walk."""
    return max(1, _GROUP_BYTES // _walk_bytes(n))


def _unit_size(n: int) -> int:
    """Walks per unit of streamed moments: whole walk groups, at least 64 walks."""
    return _group_size(n) * -(-64 // _group_size(n))


def _group_bytes(n: int, reps: int) -> int:
    """Working set of one group of m walks: m _walk_bytes(n), the float
    ufunc buffer that numpy takes to divide a block's draws by their norms,
    and 16 KiB for the group's generator and the headers of its arrays
    (about 5 KB traced)."""
    return min(_group_size(n), reps) * _walk_bytes(n) + np.getbufsize() * 8 + 16 * 1024


def unitary_mixing_diagnostic(
    n: int, k_max: int, reps: int, rng: np.random.Generator
) -> MixingDiagnostic:
    """Monte Carlo trace-moment curve for the reflection walk on U(n).

    Simulates `reps` independent walks W_k = Y_k ... Y_1 for k_max steps,
    Y = I - (1 - e^{i phi}) u u*, and records m(k) = E|Tr W_k|^2 with its
    standard error.  The fitted decay of |m(k) - 1| is labeled PROXY: it is
    not a total-variation envelope.

    The walks are split into groups of _GROUP_BYTES of working set; each
    group g takes all k_max steps on its own generator, seeded by
    SeedSequence(entropy, spawn_key=(g,)), where entropy is two 63-bit
    integers drawn from `rng`: child g of SeedSequence(entropy).spawn, made
    only when the group starts, so no seed list grows with reps.  It runs in
    units of whole groups (_unit_size), which the forked workers of
    workers.run claim one at a time in index order.  Each unit keeps the
    mean of |Tr W_k|^2 over its walks and the sum of squared deviations from
    it, and the units are merged in index order (_merge), so the result
    depends on (n, k_max, reps, rng) only, never on the worker count or on
    which worker claims a unit.  The run's workers.plan counts one group per
    worker (_group_bytes), the units' moments and CURVE_POINT_BYTES per
    curve point, and refuses a walk above the memory budget before any draw.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if reps < 1000:
        raise ValueError("at least 1000 replicates are required for a stable curve")
    size, unit = _group_size(n), _unit_size(n)
    plan = workers.plan(reps, unit, [((-(-reps // unit), 2, k_max), np.float64)],
                        _group_bytes(n, reps),
                        f"a U({n}) walk of {reps} replicates and {k_max} steps",
                        (k_max + 1) * CURVE_POINT_BYTES)
    entropy = rng.integers(2**63, size=2).tolist()

    def work(part, out) -> None:
        for walks in part:
            for lo in range(walks.start, walks.stop, size):
                seed = np.random.SeedSequence(entropy, spawn_key=(lo // size,))
                _walk_group(n, k_max, min(size, walks.stop - lo), seed,
                            out[0][lo // unit], lo - walks.start)

    acc, = workers.run(plan, work)
    for i in range(1, len(acc)):
        _merge(acc[0], i * unit, min(unit, reps - i * unit), *acc[i])
    moments = np.concatenate(([float(n * n)], acc[0, 0]))
    stderrs = np.concatenate(([0.0], np.sqrt(acc[0, 1] / (reps - 1)) / np.sqrt(reps)))
    deviations = np.abs(moments - 1.0)
    note = "PROXY: fit of |E|Tr W_k|^2 - 1|, not a total-variation envelope"
    try:
        # Fit only above twice the median standard error: below it is noise.
        fit = fit_decay(deviations, floor=max(FIT_FLOOR, 2.0 * float(np.median(stderrs[1:]))))
    except ValueError:
        fit = None
        note += " (no usable fit window)"
    return MixingDiagnostic(moments, stderrs, deviations, fit, note)

