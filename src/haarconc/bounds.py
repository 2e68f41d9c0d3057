"""Concentration constants and tail bounds from mixing envelopes.

Given sup-norm and step-seminorm bounds on a function of the walk state
(sup|f| <= A, step RMS <= B) and a total-variation envelope
d_TV(k) <= a e^(-b k), the walk yields

    C = (B^2 / b) * [ (log(4 a A / B))_+ + b / (1 - e^(-b)) ],

with Var f(X) <= C / 2 and P{|f(X) - E f(X)| >= t} <= 2 e^(-t^2 / C) for the
stationary X.  For the empirical spectral CDF under Haar conjugation the same
shape specializes to variance <= kappa log(n) / n and tail
2 exp(-n t^2 / (2 kappa log n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundInputs:
    """Validated inputs (A, B, a, b) for the concentration constant.

    sup_bound (A) dominates sup|f|; step_bound (B) dominates the step RMS
    seminorm; tv_prefactor/tv_rate (a, b) give the envelope a e^(-b k).  A
    step can change f by at most 2 sup|f|, so B <= 2A is enforced.
    """

    sup_bound: float
    step_bound: float
    tv_prefactor: float
    tv_rate: float

    def __post_init__(self) -> None:
        for name in ("sup_bound", "step_bound", "tv_prefactor", "tv_rate"):
            value = getattr(self, name)
            if not (value > 0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite")
        if self.step_bound > 2.0 * self.sup_bound * (1.0 + 1e-12):
            raise ValueError("step_bound exceeds 2 * sup_bound, which is impossible")


@dataclass(frozen=True)
class BoundResult:
    """The constant C with its derived quantities.

    variance_bound = C/2; envelope_ratio = 4 a A / B; crossover is the k at
    which the decaying envelope term falls below B^2 (clamped at 0), and
    crossover_step is its integer ceiling.
    """

    constant: float
    variance_bound: float
    envelope_ratio: float
    crossover: float
    crossover_step: int


def concentration_constant(inputs: BoundInputs) -> BoundResult:
    """Evaluate C = (B^2/b) [ (log(4aA/B))_+ + b/(1 - e^(-b)) ]; refuse the
    finite inputs that overflow C or the crossover (b = 1e-320, say)."""
    a_sup = inputs.sup_bound
    b_step = inputs.step_bound
    ratio = 4.0 * inputs.tv_prefactor * a_sup / b_step
    log_term = max(math.log(ratio), 0.0)
    rate = inputs.tv_rate
    # b / (1 - e^(-b)) via expm1 for small-rate accuracy.
    geom_term = rate / (-math.expm1(-rate))
    constant = (b_step * b_step / rate) * (log_term + geom_term)
    crossover = log_term / rate
    if not (math.isfinite(constant) and math.isfinite(crossover)):
        raise ValueError(f"C = {constant!r} and crossover {crossover!r} are not finite at A = "
                         f"{a_sup!r}, B = {b_step!r}, a = {inputs.tv_prefactor!r}, b = {rate!r}")
    return BoundResult(
        constant=constant,
        variance_bound=constant / 2.0,
        envelope_ratio=ratio,
        crossover=crossover,
        crossover_step=int(math.ceil(crossover)),
    )


def tail_bound(constant: float, t: float) -> float:
    """2 e^(-t^2 / C); 2 at t = 0 (vacuous), 0 when C = 0 and t > 0.

    Deliberately not clamped to 1: the raw bound is what the certificates
    compare against.
    """
    if not constant >= 0:
        raise ValueError(f"constant must be nonnegative (got {constant!r})")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite (got {t!r})")
    if t == 0:
        return 2.0
    if constant == 0:
        return 0.0
    return float(2.0 * math.exp(-(t * t) / constant))


def esd_bounds(n: int, kappa: float, t: float) -> tuple[float, float]:
    """Variance and tail bounds for the empirical spectral CDF at one point:
    (kappa log(n)/n, 2 exp(-n t^2 / (2 kappa log n)))."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not (kappa > 0):
        raise ValueError("kappa must be positive")
    if not t >= 0:
        raise ValueError(f"t must be nonnegative (got {t!r})")
    variance = kappa * math.log(n) / n
    return variance, tail_bound(2.0 * variance, t)

