"""Tests for the concentration constant, tail bounds, the spectral-CDF
specialization, and the step size of the spectral CDF on U(n)."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarconc.bounds import (
    BoundInputs,
    BoundResult,
    concentration_constant,
    esd_bounds,
    tail_bound,
)
from haarconc.groups import reflection_matrices, sample_haar_unitary, sample_reflection_step
from haarconc.hermitian import cdf_counts, conjugate_stack


def partial_sum_oracle(A: float, B: float, a: float, b: float, k_cap: int = 1_000_000) -> float:
    """Brute-force oracle: the largest partial sum of min(B^2, 4aAB e^{-bk}).

    All terms are positive, so the supremum over partial sums is the full
    sum; chunked evaluation stops once the geometric terms underflow.
    """
    total = 0.0
    cap = B * B
    coeff = 4.0 * a * A * B
    chunk = 4096
    start = 0
    while start <= k_cap:
        ks = np.arange(start, min(start + chunk, k_cap + 1), dtype=float)
        terms = np.minimum(cap, coeff * np.exp(-b * ks))
        total += float(terms.sum())
        if terms[-1] < 1e-300:
            break
        start += chunk
    return total


def parameter_grid(count: int = 200):
    """Deterministic (A, B, a, b) grid with both envelope-ratio branches."""
    rng = np.random.default_rng(2024)
    points = [
        (1.0, 1.0, 1.0, 1.0),           # ratio 4
        (1.0, 2.0, 0.5, math.log(2.0)),  # ratio exactly 1
        (1.0, 2.0, 0.1, 1.0),           # ratio 0.2
        (0.5, 0.9, 3.0, 0.08),          # slow rate
    ]
    while len(points) < count:
        A = float(np.exp(rng.uniform(-1.5, 1.5)))
        B = float(A * 2.0 * rng.uniform(0.05, 1.0))
        a = float(np.exp(rng.uniform(-2.5, 2.0)))
        b = float(rng.uniform(0.05, 4.0))
        points.append((A, B, a, b))
    return points


class TestBoundInputs:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BoundInputs(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BoundInputs(1.0, 1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            BoundInputs(1.0, 1.0, 1.0, math.inf)

    def test_rejects_step_bound_above_twice_sup(self):
        with pytest.raises(ValueError):
            BoundInputs(1.0, 2.1, 1.0, 1.0)

    def test_allows_step_bound_at_twice_sup(self):
        inputs = BoundInputs(1.0, 2.0, 1.0, 1.0)
        assert inputs.step_bound == 2.0


# Finite (A, B, a, b) whose constant or crossover overflows: B^2/b and
# log(4aA/B)/b above the float range, or 4aA/B itself.
OVERFLOWING_INPUTS = [
    (1.0, 1.0, 1.0, 1e-320),
    (1.0, 1.0, 1e308, 1e-300),
    (1e308, 1e-300, 1e308, 1.0),
]


class TestConcentrationConstant:
    def test_unit_inputs(self):
        result = concentration_constant(BoundInputs(1.0, 1.0, 1.0, 1.0))
        expected = math.log(4.0) + 1.0 / (1.0 - math.exp(-1.0))
        assert result.constant == pytest.approx(expected, rel=1e-14)
        assert result.constant == pytest.approx(2.968271067989217, rel=1e-12)
        assert result.variance_bound == result.constant / 2.0
        assert result.envelope_ratio == pytest.approx(4.0, rel=1e-14)

    def test_log_clamp_case(self):
        # 4aA/B = 1 makes the log term vanish; C = B^2 / (1 - e^{-b}) = 8.
        result = concentration_constant(BoundInputs(1.0, 2.0, 0.5, math.log(2.0)))
        assert result.constant == pytest.approx(8.0, rel=1e-14)
        assert result.crossover == 0.0
        assert result.crossover_step == 0

    def test_clamp_below_one(self):
        below = concentration_constant(BoundInputs(1.0, 2.0, 0.2, 1.0))
        at_one = concentration_constant(BoundInputs(1.0, 2.0, 0.25, 1.0))
        assert below.envelope_ratio < 1.0
        assert below.crossover == 0.0
        assert below.constant == at_one.constant

    def test_fast_rate_limit(self):
        # With 4aA/B = 1 and b large, b/(1 - e^{-b}) ~ b collapses C to B^2.
        result = concentration_constant(BoundInputs(1.0, 2.0, 0.5, 50.0))
        assert result.constant == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("A,B,a,b", OVERFLOWING_INPUTS)
    def test_overflow_is_refused(self, A, B, a, b):
        # Finite inputs whose C or crossover overflows: int(ceil(inf)) raised
        # an OverflowError, which the CLI printed as a traceback.
        with pytest.raises(ValueError, match=re.escape(f"not finite at A = {A!r}, B = {B!r}")):
            concentration_constant(BoundInputs(A, B, a, b))

    def test_crossover_step_is_ceiling(self):
        result = concentration_constant(BoundInputs(1.0, 1.0, 1.0, 1.0))
        assert result.crossover == pytest.approx(math.log(4.0), rel=1e-14)
        assert result.crossover_step == 2

    def test_dominates_partial_sum_oracle(self):
        grid = parameter_grid()
        assert len(grid) >= 200
        branches = {True: 0, False: 0}
        for A, B, a, b in grid:
            result = concentration_constant(BoundInputs(A, B, a, b))
            branches[result.envelope_ratio >= 1.0] += 1
            oracle = partial_sum_oracle(A, B, a, b)
            assert oracle <= result.constant * (1.0 + 1e-10)
        assert branches[True] >= 20
        assert branches[False] >= 20

    def test_monotone_in_each_parameter(self):
        base = (1.0, 1.0, 1.0, 1.0)
        values_a = [
            concentration_constant(BoundInputs(A, base[1], base[2], base[3])).constant
            for A in (0.6, 1.0, 2.0, 5.0)
        ]
        assert all(x <= y for x, y in zip(values_a, values_a[1:]))
        values_pref = [
            concentration_constant(BoundInputs(base[0], base[1], a, base[3])).constant
            for a in (0.3, 1.0, 4.0, 9.0)
        ]
        assert all(x <= y for x, y in zip(values_pref, values_pref[1:]))
        values_rate = [
            concentration_constant(BoundInputs(base[0], base[1], base[2], b)).constant
            for b in (0.2, 0.7, 1.5, 4.0)
        ]
        assert all(x >= y for x, y in zip(values_rate, values_rate[1:]))


class TestTailBound:
    def test_vacuous_at_zero(self):
        assert tail_bound(4.0, 0.0) == 2.0
        assert tail_bound(0.0, 0.0) == 2.0

    def test_hand_value(self):
        assert tail_bound(4.0, 2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
        assert tail_bound(4.0, 2.0) == pytest.approx(0.7357588823428847, rel=1e-12)

    def test_degenerate_constant(self):
        assert tail_bound(0.0, 0.1) == 0.0

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            tail_bound(-1.0, 0.5)
        with pytest.raises(ValueError):
            tail_bound(1.0, -0.5)

    def test_rejects_nan_arguments(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            tail_bound(1.0, math.nan)
        with pytest.raises(ValueError, match="constant must be nonnegative"):
            tail_bound(math.nan, 0.5)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            esd_bounds(8, 1.0, math.nan)

    def test_not_clamped_to_one(self):
        assert tail_bound(100.0, 0.1) > 1.0

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_crossover_point(self, constant):
        t = math.sqrt(constant * math.log(2.0))
        assert tail_bound(constant, t) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(1e-3, 1e3), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_t(self, constant, t1, t2):
        lo, hi = sorted((t1, t2))
        assert tail_bound(constant, hi) <= tail_bound(constant, lo)


class TestEsdBounds:
    def test_variance_value(self):
        var, _ = esd_bounds(10, 1.0, 0.0)
        assert var == pytest.approx(math.log(10.0) / 10.0, rel=1e-14)
        assert var == pytest.approx(0.23025850929940458, rel=1e-12)

    def test_tail_values(self):
        assert esd_bounds(10, 1.0, 0.0)[1] == 2.0
        tail = esd_bounds(10, 1.0, 0.1)[1]
        assert tail == pytest.approx(2.0 * math.exp(-0.1 / (2.0 * math.log(10.0))), rel=1e-14)
        assert tail == pytest.approx(1.9570386864578775, rel=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            esd_bounds(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            esd_bounds(4, 0.0, 0.0)
        with pytest.raises(ValueError):
            esd_bounds(4, 1.0, -0.1)

    @given(st.integers(2, 4096), st.floats(1e-3, 1e3), st.floats(0.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_tail_is_general_form_with_substituted_constant(self, n, kappa, t):
        # The per-point CDF tail is the general tail with C = 2 kappa log(n)/n.
        var, tail = esd_bounds(n, kappa, t)
        assert tail == tail_bound(2.0 * var, t)


class TestEstimateNorms:
    def test_spectral_cdf_function_on_unitary_group(self):
        # f(U) = F(0.25) of U M U* + N: values lie in [0, 1], and one
        # reflection step moves the CDF by at most 3/n pointwise, so the
        # step RMS of f at every probe U is at most 3/n.
        n, reps = 8, 100
        rng = np.random.default_rng(2)
        spec_m = np.where(np.arange(n) < n // 2, -1.0, 1.0)
        diag_n = np.diag(np.linspace(-1.0, 1.0, n))
        x = np.array([0.25])

        def f(w):
            return cdf_counts(np.linalg.eigvalsh(w + diag_n), x)[..., 0] / n

        for _ in range(10):
            w = conjugate_stack(sample_haar_unitary(n, rng), spec_m)
            steps = [sample_reflection_step(n, rng) for _ in range(reps)]
            y = reflection_matrices(np.stack([u for u, _ in steps]),
                                    np.array([phi for _, phi in steps]))
            sq = (f(w) - f(conjugate_stack(y, w))) ** 2
            assert 0.0 <= f(w) <= 1.0
            assert math.sqrt(float(np.mean(sq))) <= 3.0 / n + 1e-12
            assert float(np.max(sq)) <= (3.0 / n) ** 2 + 1e-12
