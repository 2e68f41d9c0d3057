"""Total-variation decay of the walk and certified exponential envelopes.

The exact S_n curve d_TV(k) comes from k steps of the walk operator applied
to the point mass at the identity.
fit_decay turns a computed curve into a certified envelope a * e^(-b k):
the rate is a least-squares fit on the log curve, after which the prefactor
is inflated until the envelope dominates every computed point above the
noise floor.  For U(n), where no exact curve is available, a trace-moment
diagnostic provides a PROXY decay rate.

The U(n) diagnostic simulates its walks walk-major: the walks are split
into groups of _GROUP_BYTES of walk matrices, and each group takes all of
its steps on its own generator, seeded from the caller's generator through a
SeedSequence.  Within a group, steps run in blocks of _BLOCK_STEPS; the
product Y_s ... Y_1 of a block's reflections has the compact WY form
I - U T U^H (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989),
with U = [u_1 ... u_s] and T lower triangular, so a block costs two BLAS-3
products per walk instead of s rank-one updates.  The groups run on the
forked workers of haarconc.workers, under the worker rule of the matrix
chunks, and only the |Tr W_k|^2 array grows with reps (_walk_bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import workers
from .groups import _sample_reflection_batch
from .kernel import WalkOperator, apply_kernel_power

# Steps whose reflection parameters are drawn before the walks take them.
_BLOCK_STEPS = 8
# Bytes of walk matrices in one walk group: 256 walks at n = 32.
_GROUP_BYTES = 4 * 1024 * 1024
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


def exact_walk_law(op: WalkOperator, k: int) -> np.ndarray:
    """Exact law of the k-step walk product as a vector in table order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return apply_kernel_power(op, _point_mass(op), k)


def exact_tv_curve(op: WalkOperator, k_max: int, law_below: Optional[float] = None) -> TVCurve:
    """d_TV(k) for k = 0 .. k_max, exact up to float summation.

    With `law_below`, the curve also keeps the law at the first step whose
    distance is at most `law_below` (at k_max if none is), so a caller that
    samples from it does not walk to that step a second time.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    uniform = 1.0 / op.size
    law = _point_mass(op)
    values = []
    kept = ()
    for k in range(k_max + 1):
        if k:
            law = op.apply(law)
        values.append(0.5 * float(np.sum(np.abs(law - uniform))))
        if not kept and law_below is not None and (values[-1] <= law_below or k == k_max):
            kept = (k, law)
    return TVCurve(np.array(values), *kept)


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
    planned for ROADMAP item 3, would not depend on these values.
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


def _reflect_block(
    w: np.ndarray,
    u: np.ndarray,
    u_h: np.ndarray,
    c: np.ndarray,
    traces: np.ndarray,
    buf: np.ndarray,
) -> None:
    """W <- Y_s ... Y_1 W in place for a stack of m walks, Y_j = I - c_j u_j u_j^H.

    `u` has shape (m, n, s) with u_j in column j, `u_h` is its conjugate
    transpose U^H (shape (m, s, n)), `c` has shape (m, s), and `buf` the
    shape of `w`.  traces[j] (shape (s, m)) receives Tr W after step j + 1:
    with M = U^H W and G = M U, Tr(Y_{j+1} ... Y_1 W) is Tr W minus the
    prefix sum over a <= j of sum_b T[a, b] G[b, a].
    """
    t = _wy_factor(u_h @ u, c)
    uhw = u_h @ w
    g = uhw @ u
    steps = np.cumsum(np.sum(t * g.transpose(0, 2, 1), axis=2), axis=1)
    traces[:] = (np.trace(w, axis1=1, axis2=2)[:, None] - steps).T
    np.matmul(u, t @ uhw, out=buf)
    w -= buf


def _walk_group(n: int, k_max: int, seed: np.random.SeedSequence, sq: np.ndarray) -> None:
    """All k_max steps of one group of m walks, drawn from its own generator.

    `sq` (shape (k_max + 1, m)) receives |Tr W_k|^2 for k >= 1.  Steps run in
    blocks of s <= _BLOCK_STEPS: the parameters (u, phi) of every walk of the
    group are drawn one step at a time, then the group takes the whole block
    as one rank-s update W <- W - U (T (U^H W)), where I - U T U^H is the
    compact WY form of the block's product; the traces after each step of
    the block come from the s x s matrix U^H W U.
    """
    m = sq.shape[1]
    rng = np.random.default_rng(seed)
    w = np.broadcast_to(np.eye(n, dtype=np.complex128), (m, n, n)).copy()
    buf = np.empty_like(w)
    traces = np.empty((_BLOCK_STEPS, m), dtype=np.complex128)
    u = np.empty((m, n, _BLOCK_STEPS), dtype=np.complex128)
    u_h = np.empty((m, _BLOCK_STEPS, n), dtype=np.complex128)
    phi = np.empty((m, _BLOCK_STEPS))
    for first in range(1, k_max + 1, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, k_max + 1 - first)
        for j in range(steps):
            u[:, :, j], phi[:, j] = _sample_reflection_batch(n, m, rng)
        block_u = u[:, :, :steps]
        np.conjugate(block_u.transpose(0, 2, 1), out=u_h[:, :steps])
        c = 1.0 - np.exp(1j * phi[:, :steps])
        _reflect_block(w, block_u, u_h[:, :steps], c, traces[:steps], buf)
        sq[first : first + steps] = np.abs(traces[:steps]) ** 2


def _group_size(n: int) -> int:
    """Walks per walk group: _GROUP_BYTES of walk matrices, at least one walk."""
    return max(1, _GROUP_BYTES // (n * n * np.dtype(np.complex128).itemsize))


def _group_bytes(n: int, reps: int) -> int:
    """Working set of one group of m walks in s-step blocks: m (2n^2 + 6sn + 3s^2) 16 B."""
    m, s = min(_group_size(n), reps), _BLOCK_STEPS
    return m * (2 * n * n + 6 * s * n + 3 * s * s) * 16


def _check_walk(n: int, k_max: int, reps: int) -> None:
    if n < 2:
        raise ValueError("n must be at least 2")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if reps < 1000:
        raise ValueError("at least 1000 replicates are required for a stable curve")


def _walk_bytes(n: int, k_max: int, reps: int) -> int:
    """Estimated memory of unitary_mixing_diagnostic(n, k_max, reps, ...):
    one group's _group_bytes per worker that workers.run starts, plus
    (k_max + 1) * reps * 8 B of |Tr W_k|^2, held twice (shared, then copied
    out).  Cheap at any size; raises ValueError for arguments the diagnostic
    refuses."""
    _check_walk(n, k_max, reps)
    group = _group_bytes(n, reps)
    count = workers.worker_count(-(-reps // _group_size(n)), group)
    return count * group + 2 * (k_max + 1) * reps * 8


def _group_seeds(rng: np.random.Generator, groups: int) -> list[np.random.SeedSequence]:
    """One independent seed per walk group, spawned from a SeedSequence
    keyed by two 63-bit integers drawn from `rng`."""
    return np.random.SeedSequence(rng.integers(2**63, size=2).tolist()).spawn(groups)


def unitary_mixing_diagnostic(
    n: int,
    k_max: int,
    reps: int,
    rng: np.random.Generator,
    floor: Optional[float] = None,
) -> MixingDiagnostic:
    """Monte Carlo trace-moment curve for the reflection walk on U(n).

    Simulates `reps` independent walks W_k = Y_k ... Y_1 for k_max steps,
    Y = I - (1 - e^{i phi}) u u*, and records m(k) = E|Tr W_k|^2 with its
    standard error.  The fitted decay of |m(k) - 1| is labeled PROXY: it is
    not a total-variation envelope.

    The walks are split into groups of _GROUP_BYTES of walk matrices; each
    group takes all k_max steps on its own generator (_group_seeds) and
    writes its own columns of the (k_max + 1, reps) array of |Tr W_k|^2, on
    the forked workers of workers.run.  So the result depends on (n, k_max,
    reps, rng) only, never on the worker count.
    """
    _check_walk(n, k_max, reps)
    size = _group_size(n)
    groups = workers.ranges(reps, size)
    seeds = _group_seeds(rng, len(groups))

    def work(part, out) -> None:
        for walks in part:
            _walk_group(n, k_max, seeds[walks.start // size], out[0][:, walks.start:walks.stop])

    sq, = workers.run(groups, [((k_max + 1, reps), np.float64)], work, _group_bytes(n, reps))
    sq[0] = n * n
    moments = sq.mean(axis=1)
    stderrs = sq.std(axis=1, ddof=1) / np.sqrt(reps)
    deviations = np.abs(moments - 1.0)
    if floor is None:
        floor = max(1e-12, 2.0 * float(np.median(stderrs[1:])))
    note = "PROXY: fit of |E|Tr W_k|^2 - 1|, not a total-variation envelope"
    try:
        fit = fit_decay(deviations, floor=floor)
    except ValueError:
        fit = None
        note += " (no usable fit window)"
    return MixingDiagnostic(moments, stderrs, deviations, fit, note)

