"""Seeded experiment pipelines that confront the bounds with data.

Every pipeline derives one child generator per (master seed, stream label,
replicate index), so results are bit-identical for a fixed config.  The U(n)
runners draw each replicate's Gaussians from its own generator, then process
a chunk of replicates with stacked LAPACK calls (QR, eigvalsh, SVD), which
give the same bits as one call per matrix.  All work runs on the calling
thread: the ``threads`` argument of the runners is accepted for
compatibility and changes neither speed nor results.  Checks come in two
kinds: exact guarantees are hard assertions (violation raises
GuaranteeViolation), statistical comparisons are verdicts under a
4-standard-error policy and never raise.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .bounds import BoundInputs, concentration_constant, esd_bounds, tail_bound
from .groups import (
    StepDistribution,
    _sample_reflection_batch,
    complex_ginibre,
    haar_unitaries,
    reflection_matrices,
)
from .hermitian import cdf_counts, conjugate_stack, rank_distance, sup_cdf_distance
from .kernel import build_exact_kernel, check_identities, step_seminorm
from .mixing import exact_tv_curve, exact_walk_law, fit_decay

TAIL_MIN_REPLICATES = 500
FINITE_GROUP_TEST_FUNCTIONS = 20
WALK_TV_TARGET = 1e-6
IDENTITY_RESIDUAL_LIMIT = 1e-9
FLOAT_SLACK = 1e-12
STEP_RANK_LIMIT = 3
# Byte budget of one chunk's unitaries: three complex n x n matrices per
# replicate.  Larger chunks ran no faster and raised peak memory.
CHUNK_BYTES = 256 * 1024


class GuaranteeViolation(RuntimeError):
    """A mathematically guaranteed check failed; this is a defect, not noise."""


_KINDS = ("matrix", "finite-group", "identity-suite", "scaling")

_ALLOWED_KEYS = {
    "matrix": ("kind", "n", "spectrum_M", "spectrum_N", "x_grid", "replicates",
               "seed", "kappa", "t_grid", "step_check"),
    "scaling": ("kind", "n_grid", "spectrum_M", "spectrum_N", "x_grid", "replicates",
                "seed", "kappa", "t_grid"),
    "finite-group": ("kind", "n", "replicates", "seed", "t_grid", "k_max"),
    "identity-suite": ("kind", "n", "replicates", "seed"),
}
_ALL_KEYS = frozenset(k for keys in _ALLOWED_KEYS.values() for k in keys)

_SPECTRUM_NAMES = ("two_point", "uniform_grid", "zero")
_DEFAULT_X_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
_DEFAULT_T_GRID = {
    "matrix": (0.005, 0.01, 0.02, 0.05, 0.1),
    "scaling": (0.005, 0.01, 0.02, 0.05, 0.1),
    "finite-group": (0.05, 0.1, 0.2, 0.4, 0.8),
}
_DEFAULT_REPLICATES = {
    "matrix": 1000,
    "scaling": 1000,
    "finite-group": 10000,
    "identity-suite": 50,
}


def child_rng(master_seed: int, label: str, index: int) -> np.random.Generator:
    """Deterministic child generator from (master seed, stream label, index)."""
    stream = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed, stream, index]))


def resolve_spectrum(source, n: int) -> np.ndarray:
    """Concrete eigenvalue list for a generator name or an explicit list."""
    if source == "two_point":
        return np.where(np.arange(n) < n // 2, -1.0, 1.0)
    if source == "uniform_grid":
        return np.linspace(-1.0, 1.0, n)
    if source == "zero":
        return np.zeros(n)
    arr = np.asarray(source, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"explicit spectrum must have length {n}")
    return arr


def _require_int(data: dict, key: str, minimum: int, maximum: Optional[int] = None) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"config key '{key}' must be an integer")
    value = int(value)
    if value < minimum or (maximum is not None and value > maximum):
        bound = f"{minimum}..{maximum}" if maximum is not None else f">= {minimum}"
        raise ValueError(f"config key '{key}' must be in range {bound} (got {value})")
    return value


def _require_float_list(data: dict, key: str, minimum: Optional[float] = None) -> tuple[float, ...]:
    value = data[key]
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ValueError(f"config key '{key}' must be a nonempty array of numbers")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float, np.integer, np.floating)):
            raise ValueError(f"config key '{key}' must contain only numbers")
        item = float(item)
        if minimum is not None and item < minimum:
            raise ValueError(f"config key '{key}' entries must be >= {minimum}")
        out.append(item)
    return tuple(out)


def _parse_spectrum(data: dict, key: str, kind: str, n: Optional[int]):
    value = data.get(key, "two_point")
    if isinstance(value, str):
        if value not in _SPECTRUM_NAMES:
            raise ValueError(
                f"config key '{key}' must be one of {list(_SPECTRUM_NAMES)} or an explicit array"
            )
        return value
    if kind == "scaling":
        raise ValueError(
            f"config key '{key}' must be a generator name for kind 'scaling' "
            "(an explicit list cannot match every n in n_grid)"
        )
    spectrum = _require_float_list(data, key)
    if len(spectrum) != n:
        raise ValueError(f"config key '{key}' must have length n={n} (got {len(spectrum)})")
    return spectrum


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, canonicalized experiment configuration.

    Spectra are either a generator name ("two_point" | "uniform_grid") or an
    explicit tuple of eigenvalues.
    """

    kind: str
    seed: int
    replicates: int
    n: Optional[int] = None
    n_grid: Optional[tuple[int, ...]] = None
    spectrum_M: object = None
    spectrum_N: object = None
    x_grid: Optional[tuple[float, ...]] = None
    kappa: Optional[float] = None
    t_grid: Optional[tuple[float, ...]] = None
    step_check: Optional[bool] = None
    k_max: Optional[int] = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        for key in data:
            if key not in _ALL_KEYS:
                raise ValueError(f"unknown config key '{key}'")
        kind = data.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"config key 'kind' must be one of {list(_KINDS)} (got {kind!r})")
        allowed = _ALLOWED_KEYS[kind]
        for key in data:
            if key not in allowed:
                raise ValueError(f"config key '{key}' is not allowed for kind '{kind}'")
        if "seed" not in data:
            raise ValueError("missing required config key 'seed' (no ambient randomness)")
        seed = _require_int(data, "seed", 0)

        fields: dict = {"kind": kind, "seed": seed}
        if "replicates" in data:
            fields["replicates"] = _require_int(data, "replicates", 1)
        else:
            fields["replicates"] = _DEFAULT_REPLICATES[kind]

        if kind == "scaling":
            if "n_grid" not in data:
                raise ValueError("missing required config key 'n_grid' for kind 'scaling'")
            grid = data["n_grid"]
            if not isinstance(grid, (list, tuple)) or len(grid) == 0:
                raise ValueError("config key 'n_grid' must be a nonempty array of integers")
            parsed = []
            for item in grid:
                if isinstance(item, bool) or not isinstance(item, (int, np.integer)) or item < 2:
                    raise ValueError("config key 'n_grid' entries must be integers >= 2")
                parsed.append(int(item))
            fields["n_grid"] = tuple(parsed)
        else:
            if "n" not in data:
                raise ValueError(f"missing required config key 'n' for kind '{kind}'")
            cap = {"matrix": None, "finite-group": 7, "identity-suite": 5}[kind]
            fields["n"] = _require_int(data, "n", 2, cap)

        if kind in ("matrix", "scaling"):
            fields["spectrum_M"] = _parse_spectrum(data, "spectrum_M", kind, fields.get("n"))
            fields["spectrum_N"] = _parse_spectrum(data, "spectrum_N", kind, fields.get("n"))
            fields["x_grid"] = (
                _require_float_list(data, "x_grid") if "x_grid" in data else _DEFAULT_X_GRID
            )
            kappa = data.get("kappa", 1.0)
            if isinstance(kappa, bool) or not isinstance(kappa, (int, float, np.integer, np.floating)):
                raise ValueError("config key 'kappa' must be a positive number")
            kappa = float(kappa)
            if not (kappa > 0):
                raise ValueError("config key 'kappa' must be a positive number")
            fields["kappa"] = kappa
        if kind in ("matrix", "scaling", "finite-group"):
            fields["t_grid"] = (
                _require_float_list(data, "t_grid", minimum=0.0)
                if "t_grid" in data
                else _DEFAULT_T_GRID[kind]
            )
        if kind == "matrix":
            step_check = data.get("step_check", False)
            if not isinstance(step_check, bool):
                raise ValueError("config key 'step_check' must be a boolean")
            fields["step_check"] = step_check
        if kind == "finite-group":
            if "k_max" in data:
                fields["k_max"] = _require_int(data, "k_max", 1)
            else:
                fields["k_max"] = 25 * fields["n"]
        return ExperimentConfig(**fields)

    def to_dict(self) -> dict:
        """Canonical JSON form: every key allowed for the kind, defaults filled."""
        out: dict = {}
        for key in _ALLOWED_KEYS[self.kind]:
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = list(value)
            out[key] = value
        return out


@dataclass
class ExperimentReport:
    """Full result bundle; to_json_dict() drops the CSV curve payloads."""

    config_echo: dict
    estimates: dict
    bounds: dict
    verdicts: list
    environment: dict
    curves: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config_echo": self.config_echo,
            "estimates": self.estimates,
            "bounds": self.bounds,
            "verdicts": self.verdicts,
            "environment": self.environment,
        }

    def has_failure(self) -> bool:
        return any(v["status"] == "fail" for v in self.verdicts)


def _environment(cfg: ExperimentConfig) -> dict:
    return {
        "package": f"haarconc {__version__}",
        "seed": cfg.seed,
        "replicates": cfg.replicates,
        "runtime_seconds": 0.0,
    }


def _verdict(name, status, observed, threshold, policy, stderr=None) -> dict:
    out = {
        "name": name,
        "status": status,
        "observed": float(observed),
        "threshold": float(threshold),
        "policy": policy,
    }
    if stderr is not None:
        out["stderr"] = float(stderr)
    return out


def _upper_confidence_status(observed: float, stderr: float, threshold: float) -> str:
    if observed + 4.0 * stderr <= threshold:
        return "pass"
    if observed - 4.0 * stderr > threshold:
        return "fail"
    return "inconclusive"


def _allowance_status(observed: float, stderr: float, threshold: float) -> str:
    return "pass" if observed <= threshold + 4.0 * stderr else "fail"


def _fmt(x: float) -> str:
    return f"{x:g}"


def chunk_size(n: int) -> int:
    """Replicates per chunk of the U(n) runners: 85 / 21 / 5 / 1 at
    n = 8 / 16 / 32 / 64."""
    return max(1, CHUNK_BYTES // (3 * n * n * np.dtype(np.complex128).itemsize))


def _chunks(count: int, n: int):
    size = chunk_size(n)
    for start in range(0, count, size):
        yield range(start, min(start + size, count))


def _variance_stats(values: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and a normal-approximation standard error."""
    reps = values.size
    if reps < 2:
        return 0.0, 0.0
    var = float(np.var(values, ddof=1))
    centered = values - np.mean(values)
    m4 = float(np.mean(centered**4))
    se_sq = max(m4 - var * var * (reps - 3) / (reps - 1), 0.0) / reps
    return var, float(np.sqrt(se_sq))


def sample_spectral_cdfs(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """F_H(x) for H = U M U* + V N V* and for the reduced form X M X* + N,
    one row per replicate and one column per x-grid point.

    Replicate r draws U, V, X in that order from child_rng(seed, "matrix", r).
    """
    n = cfg.n
    xs = np.asarray(cfg.x_grid)
    spec_m = resolve_spectrum(cfg.spectrum_M, n)
    spec_n = resolve_spectrum(cfg.spectrum_N, n)
    f_def = np.empty((cfg.replicates, xs.size))
    f_red = np.empty((cfg.replicates, xs.size))
    for rows in _chunks(cfg.replicates, n):
        z = np.empty((3, len(rows), n, n), dtype=np.complex128)
        for i, r in enumerate(rows):
            rng = child_rng(cfg.seed, "matrix", r)
            for j in range(3):
                z[j, i] = complex_ginibre(n, rng)
        # One QR stack per factor: a single (3, chunk, n, n) stack ran slower.
        u, v, x = map(haar_unitaries, z)
        h = conjugate_stack(u, spec_m) + conjugate_stack(v, spec_n)
        h_red = conjugate_stack(x, spec_m) + np.diag(spec_n)
        f_def[rows.start:rows.stop] = cdf_counts(np.linalg.eigvalsh(h), xs) / n
        f_red[rows.start:rows.stop] = cdf_counts(np.linalg.eigvalsh(h_red), xs) / n
    return f_def, f_red


def run_matrix_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Sample H = U M U* + V N V* (and the reduced form X M X* + N), estimate
    the spectral CDF mean/variance/tails on the x grid, and compare against
    the kappa-scaled bounds."""
    if cfg.kind != "matrix":
        raise ValueError("run_matrix_experiment requires kind 'matrix'")
    n = cfg.n
    xs = np.asarray(cfg.x_grid)
    ts = list(cfg.t_grid)
    reps = cfg.replicates
    f_def, f_red = sample_spectral_cdfs(cfg)

    kappa = cfg.kappa
    variance_bound = esd_bounds(n, kappa, 0.0)[0]
    tail_bounds = [esd_bounds(n, kappa, t)[1] for t in ts]
    tail_warning = reps < TAIL_MIN_REPLICATES

    per_x = []
    verdicts = []
    tail_rows = []
    for ix, x in enumerate(xs):
        col = f_def[:, ix]
        col_red = f_red[:, ix]
        mean = float(np.mean(col))
        mean_red = float(np.mean(col_red))
        se_mean = float(np.std(col, ddof=1) / np.sqrt(reps)) if reps >= 2 else 0.0
        se_mean_red = float(np.std(col_red, ddof=1) / np.sqrt(reps)) if reps >= 2 else 0.0
        var, se_var = _variance_stats(col)
        ratio = n * var / math.log(n)
        dev = np.abs(col - mean)
        tails = []
        for it, t in enumerate(ts):
            freq = float(np.mean(dev >= t))
            se_freq = float(np.sqrt(freq * (1.0 - freq) / reps))
            tails.append({"t": t, "frequency": freq, "stderr": se_freq})
            status = _allowance_status(freq, se_freq, tail_bounds[it])
            if tail_warning or reps < 2:
                status = "inconclusive"
            verdicts.append(
                _verdict(f"tail_x={_fmt(x)}_t={_fmt(t)}", status, freq, tail_bounds[it],
                         "4se-allowance", stderr=se_freq)
            )
            tail_rows.append([float(x), t, freq, se_freq, tail_bounds[it]])
        var_status = (
            _upper_confidence_status(var, se_var, variance_bound) if reps >= 2 else "inconclusive"
        )
        verdicts.append(
            _verdict(f"variance_x={_fmt(x)}", var_status, var, variance_bound,
                     "4se-upper-confidence", stderr=se_var)
        )
        diff = abs(mean - mean_red)
        pooled = math.sqrt(se_mean**2 + se_mean_red**2)
        agree_status = _allowance_status(diff, pooled, 0.0) if reps >= 2 else "inconclusive"
        verdicts.append(
            _verdict(f"form_agreement_x={_fmt(x)}", agree_status, diff, 0.0,
                     "4se-allowance", stderr=pooled)
        )
        per_x.append(
            {
                "x": float(x),
                "mean": mean,
                "mean_stderr": se_mean,
                "mean_reduced": mean_red,
                "mean_reduced_stderr": se_mean_red,
                "variance": var,
                "variance_stderr": se_var,
                "scaled_ratio": ratio,
                "tail": tails,
            }
        )

    estimates = {"n": n, "per_x": per_x, "tail_resolution_warning": tail_warning}
    bounds = {
        "kappa": kappa,
        "variance_bound": variance_bound,
        "tail_bounds": [{"t": t, "value": b} for t, b in zip(ts, tail_bounds)],
    }
    curves = {
        "tails": {
            "header": ["x", "t", "frequency", "stderr", "bound"],
            "rows": tail_rows,
        }
    }
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts, _environment(cfg), curves)


def run_reflection_step_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Hard structural checks on one reflection step: for H = X M X* + N and
    H' after the step X -> YX, rank(H - H') <= 3 and the spectral CDFs are
    within 3/n everywhere."""
    if cfg.kind != "matrix" or not cfg.step_check:
        raise ValueError("run_reflection_step_experiment requires kind 'matrix' with step_check")
    n = cfg.n
    reps = cfg.replicates
    gap_limit = 3.0 / n + FLOAT_SLACK
    spec_m = resolve_spectrum(cfg.spectrum_M, n)
    diag_n = np.diag(resolve_spectrum(cfg.spectrum_N, n))

    max_rank = 0
    max_gap = 0.0
    for rows in _chunks(reps, n):
        z = np.empty((len(rows), n, n), dtype=np.complex128)
        u = np.empty((len(rows), n), dtype=np.complex128)
        phi = np.empty(len(rows))
        for i, r in enumerate(rows):
            rng = child_rng(cfg.seed, "step-check", r)
            z[i] = complex_ginibre(n, rng)
            u_row, phi_row = _sample_reflection_batch(n, 1, rng)
            u[i], phi[i] = u_row[0], phi_row[0]
        y = reflection_matrices(u, phi)
        w = conjugate_stack(haar_unitaries(z), spec_m)
        h = w + diag_n
        h_prime = conjugate_stack(y, w) + diag_n
        ranks, gaps = np.broadcast_arrays(
            rank_distance(h, h_prime),
            sup_cdf_distance(np.linalg.eigvalsh(h), np.linalg.eigvalsh(h_prime)),
        )
        bad = np.flatnonzero((ranks > STEP_RANK_LIMIT) | (gaps > gap_limit))
        if bad.size:
            i = bad[0]
            if ranks[i] > STEP_RANK_LIMIT:
                raise GuaranteeViolation(
                    f"step perturbation rank {ranks[i]} > {STEP_RANK_LIMIT} "
                    f"at replicate {rows[i]} (n={n})"
                )
            raise GuaranteeViolation(
                f"step CDF gap {gaps[i]:.6e} > 3/n + {FLOAT_SLACK} at replicate {rows[i]} (n={n})"
            )
        max_rank = max(max_rank, int(np.max(ranks)))
        max_gap = max(max_gap, float(np.max(gaps)))
    estimates = {
        "n": n,
        "replicates": reps,
        "max_rank": int(max_rank),
        "max_cdf_gap": float(max_gap),
    }
    bounds = {"rank_limit": STEP_RANK_LIMIT, "cdf_gap_limit": gap_limit}
    verdicts = [
        _verdict("step_rank_le_3", "pass", max_rank, STEP_RANK_LIMIT, "exact"),
        _verdict("step_cdf_gap_le_3_over_n", "pass", max_gap, gap_limit, "exact"),
    ]
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts, _environment(cfg))


def run_finite_group_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Exact certification on S_n: certified TV envelope, exact norms and
    variance per test function, hard Var <= C/2 and tail checks."""
    if cfg.kind != "finite-group":
        raise ValueError("run_finite_group_experiment requires kind 'finite-group'")
    n = cfg.n
    step = StepDistribution.lazy_transposition(n)
    kern = build_exact_kernel(n, step)
    size = kern.size
    curve = exact_tv_curve(n, step, cfg.k_max)
    fit = fit_decay(curve)

    below = np.nonzero(curve.values <= WALK_TV_TARGET)[0]
    k_star = int(below[0]) if below.size else cfg.k_max
    law = exact_walk_law(n, step, k_star)
    law = law / law.sum()
    samples = child_rng(cfg.seed, "finite-tail", 0).choice(size, size=cfg.replicates, p=law)

    counts = kern.table.fixed_point_counts().astype(float) / n
    default_f = counts - counts.mean()
    functions = [("default", default_f)]
    for i in range(FINITE_GROUP_TEST_FUNCTIONS):
        f = child_rng(cfg.seed, "finite-f", i).standard_normal(size)
        functions.append((f"random_{i}", f - f.mean()))

    ts = list(cfg.t_grid)
    rows = []
    max_var_margin = 0.0
    max_tail_excess = -math.inf
    default_tail = []
    for label, f in functions:
        sup_norm = float(np.max(np.abs(f)))
        step_norm = step_seminorm(kern, f)
        variance = float(np.var(f))
        result = concentration_constant(BoundInputs(sup_norm, step_norm, fit.a, fit.b))
        if variance > result.variance_bound * (1.0 + FLOAT_SLACK):
            raise GuaranteeViolation(
                f"exact variance {variance:.6e} exceeds C/2 = {result.variance_bound:.6e} "
                f"for f '{label}' on S_{n}"
            )
        margin = variance / result.variance_bound
        max_var_margin = max(max_var_margin, margin)
        dev = np.abs(f)
        sampled_dev = dev[samples]
        for t in ts:
            bound = tail_bound(result.constant, t)
            freq = float(np.mean(sampled_dev >= t))
            exact_prob = float(np.mean(dev >= t))
            for value, src in ((freq, "sampled"), (exact_prob, "exact")):
                if value > bound + FLOAT_SLACK:
                    raise GuaranteeViolation(
                        f"{src} tail {value:.6e} exceeds bound {bound:.6e} at t={t} "
                        f"for f '{label}' on S_{n}"
                    )
            max_tail_excess = max(max_tail_excess, freq - bound, exact_prob - bound)
            if label == "default":
                default_tail.append(
                    {"t": t, "frequency": freq, "exact_probability": exact_prob, "bound": bound}
                )
        rows.append(
            {
                "label": label,
                "sup_norm": sup_norm,
                "step_norm": step_norm,
                "variance": variance,
                "constant": result.constant,
                "variance_margin": margin,
            }
        )

    estimates = {
        "n": n,
        "group_order": size,
        "k_star": k_star,
        "tv_at_k_star": float(curve.values[k_star]),
        "functions": rows,
        "default_tail": default_tail,
        "max_variance_margin": max_var_margin,
    }
    bounds = {
        "envelope": {
            "a": fit.a,
            "b": fit.b,
            "tau": fit.tau,
            "window": list(fit.window),
            "residual": fit.residual,
        },
        "default_constant": rows[0]["constant"],
    }
    verdicts = [
        _verdict("variance_le_half_constant", "pass", max_var_margin, 1.0, "exact"),
        _verdict("tails_le_bound", "pass", max_tail_excess, FLOAT_SLACK, "exact"),
    ]
    curves = {
        "tv_curve": {
            "header": ["k", "value"],
            "rows": [[k, float(v)] for k, v in enumerate(curve.values)],
        },
        "tails": {
            "header": ["t", "frequency", "exact_probability", "bound"],
            "rows": [[d["t"], d["frequency"], d["exact_probability"], d["bound"]]
                     for d in default_tail],
        },
    }
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts, _environment(cfg), curves)


def run_identity_suite(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Exact pair identities on S_n (n <= 5) for random centered functions."""
    if cfg.kind != "identity-suite":
        raise ValueError("run_identity_suite requires kind 'identity-suite'")
    n = cfg.n
    kern = build_exact_kernel(n, StepDistribution.lazy_transposition(n))
    rows = []
    for i in range(cfg.replicates):
        f = child_rng(cfg.seed, "identity-f", i).standard_normal(kern.size)
        f -= f.mean()
        report = check_identities(kern, f, eps=1e-12)
        rows.append([i, report.conditional_mean_residual, report.variance_residual])
    max_cond = max(r[1] for r in rows)
    max_var = max(r[2] for r in rows)
    worst = max(max_cond, max_var)
    if worst > IDENTITY_RESIDUAL_LIMIT:
        raise GuaranteeViolation(
            f"pair identity residual {worst:.3e} exceeds {IDENTITY_RESIDUAL_LIMIT} on S_{n}"
        )
    estimates = {
        "n": n,
        "functions": cfg.replicates,
        "max_conditional_mean_residual": max_cond,
        "max_variance_residual": max_var,
    }
    bounds = {"residual_limit": IDENTITY_RESIDUAL_LIMIT}
    verdicts = [_verdict("identity_residuals", "pass", worst, IDENTITY_RESIDUAL_LIMIT, "exact")]
    curves = {
        "residuals": {
            "header": ["f_index", "conditional_mean_residual", "variance_residual"],
            "rows": rows,
        }
    }
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts, _environment(cfg), curves)


def run_scaling_study(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Matrix experiments across an n grid; checks that n * Var / log n stays
    below the configured kappa and re-tests tails with the measured kappa."""
    if cfg.kind != "scaling":
        raise ValueError("run_scaling_study requires kind 'scaling'")
    ts = list(cfg.t_grid)
    sub_reports = []
    for n in cfg.n_grid:
        sub = ExperimentConfig.from_dict(
            {
                "kind": "matrix",
                "n": n,
                "spectrum_M": cfg.spectrum_M,
                "spectrum_N": cfg.spectrum_N,
                "x_grid": list(cfg.x_grid),
                "replicates": cfg.replicates,
                "seed": cfg.seed,
                "kappa": cfg.kappa,
                "t_grid": ts,
            }
        )
        sub_reports.append((n, run_matrix_experiment(sub, threads=threads)))

    kappa_measured = 0.0
    for n, rep in sub_reports:
        for row in rep.estimates["per_x"]:
            kappa_measured = max(kappa_measured, row["scaled_ratio"])

    verdicts = []
    scaling_rows = []
    tail_rows = []
    per_n = []
    for n, rep in sub_reports:
        logn = math.log(n)
        for row in rep.estimates["per_x"]:
            x = row["x"]
            ratio = row["scaled_ratio"]
            ratio_se = n * row["variance_stderr"] / logn
            upper = ratio + 4.0 * ratio_se
            status = (
                _upper_confidence_status(ratio, ratio_se, cfg.kappa)
                if cfg.replicates >= 2
                else "inconclusive"
            )
            verdicts.append(
                _verdict(f"ratio_n={n}_x={_fmt(x)}", status, ratio, cfg.kappa,
                         "4se-upper-confidence", stderr=ratio_se)
            )
            scaling_rows.append(
                [n, x, row["variance"], row["variance_stderr"], ratio, upper]
            )
            for tail in row["tail"]:
                t = tail["t"]
                if kappa_measured > 0:
                    bound = esd_bounds(n, kappa_measured, t)[1]
                else:
                    bound = 2.0 if t == 0 else 0.0
                status = _allowance_status(tail["frequency"], tail["stderr"], bound)
                if cfg.replicates < TAIL_MIN_REPLICATES:
                    status = "inconclusive"
                verdicts.append(
                    _verdict(
                        f"tail_measured_kappa_n={n}_x={_fmt(x)}_t={_fmt(t)}",
                        status,
                        tail["frequency"],
                        bound,
                        "4se-allowance",
                        stderr=tail["stderr"],
                    )
                )
                tail_rows.append([n, x, t, tail["frequency"], tail["stderr"], bound])
        per_n.append({"n": n, "per_x": rep.estimates["per_x"]})

    estimates = {
        "n_grid": list(cfg.n_grid),
        "kappa_configured": cfg.kappa,
        "kappa_measured": kappa_measured,
        "per_n": per_n,
        "tail_resolution_warning": cfg.replicates < TAIL_MIN_REPLICATES,
    }
    bounds = {
        "variance_bounds": [
            {"n": n, "value": esd_bounds(n, cfg.kappa, 0.0)[0]} for n in cfg.n_grid
        ],
    }
    curves = {
        "scaling": {
            "header": ["n", "x", "variance", "variance_stderr", "ratio", "ratio_upper_4se"],
            "rows": scaling_rows,
        },
        "tails": {
            "header": ["n", "x", "t", "frequency", "stderr", "bound_measured_kappa"],
            "rows": tail_rows,
        },
    }
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts, _environment(cfg), curves)


_RUNNERS = {
    "matrix": run_matrix_experiment,
    "finite-group": run_finite_group_experiment,
    "identity-suite": run_identity_suite,
    "scaling": run_scaling_study,
}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Dispatch on cfg.kind; for matrix configs with step_check, merge the
    reflection-step hard checks into the main report."""
    import time

    start = time.perf_counter()
    report = _RUNNERS[cfg.kind](cfg, threads=threads)
    if cfg.kind == "matrix" and cfg.step_check:
        step_report = run_reflection_step_experiment(cfg, threads=threads)
        report.estimates["step_check"] = step_report.estimates
        report.bounds["step_check"] = step_report.bounds
        report.verdicts.extend(step_report.verdicts)
    report.environment["runtime_seconds"] = time.perf_counter() - start
    return report
