"""Total-variation decay of the walk and certified exponential envelopes.

The exact S_n curve d_TV(k) comes from k-fold convolution of the step law.
fit_decay turns a computed curve into a certified envelope a * e^(-b k):
the rate is a least-squares fit on the log curve, after which the prefactor
is inflated until the envelope dominates every computed point above the
noise floor.  For U(n), where no exact curve is available, a trace-moment
diagnostic provides a PROXY decay rate.

The U(n) diagnostic simulates its walks in a cache-blocked schedule: the
reflection parameters of _BLOCK_STEPS steps are drawn for all walks, then
each chunk of _WALK_CHUNK_BYTES of walk matrices takes those steps one after
another while it stays in cache.  Its memory is reps * n^2 * 16 B for the
walks plus _BLOCK_STEPS steps of parameters (reps * (n + 1) * 16 B each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .groups import StepDistribution, _sample_reflection_batch
from .kernel import MAX_KERNEL_DEGREE, FiniteGroupTable

# Steps whose reflection parameters are drawn before the walks take them.
_BLOCK_STEPS = 8
# Bytes of walk matrices updated together: 16 walks at n = 32.
_WALK_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class TVCurve:
    """d_TV(walk law at step k, uniform) for k = 0 .. len(values) - 1."""

    values: np.ndarray

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


def _law_iterator(table: FiniteGroupTable, step: StepDistribution, k_max: int) -> Iterator[np.ndarray]:
    """Laws of Y_1 ... Y_k for k = 0 .. k_max, by scatter convolution."""
    size = table.size
    support = [(table.left_action(y), float(mass)) for y, mass in step.support()]
    law = np.zeros(size)
    law[table.identity_index] = 1.0
    yield law
    for _ in range(k_max):
        nxt = np.zeros(size)
        for action, mass in support:
            nxt[action] += mass * law
        law = nxt
        yield law


def _check_exact_inputs(n: int, step: StepDistribution) -> None:
    if not step.is_finite:
        raise ValueError("exact computation requires a finite step kind")
    if step.n != n:
        raise ValueError("step degree does not match n")
    if n > MAX_KERNEL_DEGREE:
        raise ValueError(f"exact computation limited to degree {MAX_KERNEL_DEGREE}")


def exact_walk_law(n: int, step: StepDistribution, k: int) -> np.ndarray:
    """Exact law of the k-step walk product as a vector in table order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_exact_inputs(n, step)
    table = FiniteGroupTable(n)
    law = None
    for law in _law_iterator(table, step, k):
        pass
    return law


def exact_tv_curve(n: int, step: StepDistribution, k_max: int) -> TVCurve:
    """d_TV(k) for k = 0 .. k_max, exact up to float summation."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    _check_exact_inputs(n, step)
    table = FiniteGroupTable(n)
    uniform = 1.0 / table.size
    values = [
        0.5 * float(np.sum(np.abs(law - uniform)))
        for law in _law_iterator(table, step, k_max)
    ]
    return TVCurve(np.array(values))


def fit_decay(curve, floor: float = 1e-12) -> DecayFit:
    """Certified exponential envelope for a decaying curve.

    The rate comes from a least-squares line on log(values) over the window
    where values lie strictly inside (floor, 0.5); the prefactor is then
    raised until a * e^(-b k) >= value(k) for every k with value(k) > floor.
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


def reflection_walk_tv_bound(alpha: float, beta: float, n: int, k: float) -> float:
    """Distance-to-Haar bound alpha * n^(beta/2) * e^(-beta k / n) for the
    reflection walk on U(n)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    return float(alpha * n ** (beta / 2.0) * np.exp(-beta * k / n))


def reflection_walk_envelope(alpha: float, beta: float, n: int) -> tuple[float, float]:
    """The (a, b) envelope parameters induced by the reflection-walk bound:
    a = alpha * n^(beta/2), b = beta / n."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    return float(alpha * n ** (beta / 2.0)), float(beta / n)


def unitary_mixing_diagnostic(
    n: int,
    k_max: int,
    reps: int,
    rng: np.random.Generator,
    floor: Optional[float] = None,
) -> MixingDiagnostic:
    """Monte Carlo trace-moment curve for the reflection walk on U(n).

    Simulates `reps` independent walks for k_max steps via rank-one updates
    W <- W - (1 - e^{i phi}) u (u* W) and records m(k) = E|Tr W_k|^2 with
    its standard error.  The fitted decay of |m(k) - 1| is labeled PROXY: it
    is not a total-variation envelope.

    Steps run in blocks of _BLOCK_STEPS.  For each block, the parameters
    (u, phi) of every walk are drawn one step at a time, in the same order
    as an unblocked loop would draw them.  Then each chunk of walks (as many
    as fit in _WALK_CHUNK_BYTES, at least one) takes the block's steps in
    turn, so a chunk stays in cache across them.  Memory: reps * n^2 * 16 B
    for the walks, reps * (n + 1) * 16 B per step of the block for its
    parameters, and (k_max + 1) * reps * 8 B for |Tr W_k|^2.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if reps < 1000:
        raise ValueError("at least 1000 replicates are required for a stable curve")
    itemsize = np.dtype(np.complex128).itemsize
    chunk = max(1, _WALK_CHUNK_BYTES // (n * n * itemsize))
    w = np.broadcast_to(np.eye(n, dtype=np.complex128), (reps, n, n)).copy()
    update = np.empty((chunk, n, n), dtype=np.complex128)
    u_block = np.empty((_BLOCK_STEPS, reps, n), dtype=np.complex128)
    c_block = np.empty((_BLOCK_STEPS, reps), dtype=np.complex128)
    traces = np.empty((_BLOCK_STEPS, reps), dtype=np.complex128)
    sq = np.empty((k_max + 1, reps))
    sq[0] = n * n
    for first in range(1, k_max + 1, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, k_max + 1 - first)
        for j in range(steps):
            u_block[j], phi = _sample_reflection_batch(n, reps, rng)
            c_block[j] = 1.0 - np.exp(1j * phi)
        for lo in range(0, reps, chunk):
            hi = min(lo + chunk, reps)
            wc = w[lo:hi]
            buf = update[: hi - lo]
            cu = c_block[:steps, lo:hi, None, None] * u_block[:steps, lo:hi, :, None]
            u_conj = u_block[:steps, lo:hi, None, :].conj()
            for j in range(steps):
                np.multiply(cu[j], u_conj[j] @ wc, out=buf)
                wc -= buf
                np.trace(wc, axis1=1, axis2=2, out=traces[j, lo:hi])
        sq[first : first + steps] = np.abs(traces[:steps]) ** 2
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

