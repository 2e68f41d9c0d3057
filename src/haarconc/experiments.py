"""Seeded experiment pipelines that confront the bounds with data.

Every pipeline derives one child generator per (master seed, stream label,
replicate index), so results are bit-identical for a fixed config.  The U(n)
runners, matrix at its n and scaling at each n of its grid, share one
sampler and one statistics path: sample_spectral_cdfs draws each replicate's
Gaussians (and, with step_check, its one reflection step) from its own
generator, then processes a chunk of replicates with stacked LAPACK calls
(QR, eigvalsh), which give the same bits as one call per matrix, and
_cdf_statistics turns its replicate rows into the per_x estimates.  A
spectrum that ends in a run of r >= 2 equal values needs only the first
n - r columns of its Haar factor, so only those Gaussian columns are
factored (_haar_conjugates).  The reflection step perturbs the replicate's
sampled reduced form, so the step check needs no Haar draw of its own.  The
chunks go to the forked workers of haarconc.workers (two threads ran these
small LAPACK calls no faster than one), one per CPU that one BLAS call may
use, so a BLAS left to use every CPU runs the chunks inline, under the
_matrix_plan that also refuses a config above the memory budget.  A
replicate's result depends on its index only, so reports do not depend on
the worker count.  Checks come in two kinds: exact guarantees are hard
assertions (violation raises GuaranteeViolation), statistical comparisons
are verdicts that never raise, all made by _estimate_verdict under one
4-standard-error rule.  The reports of all six CLI commands are assembled
here.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__, workers
from .bounds import BoundInputs, concentration_constant, esd_bounds, tail_bound
from .groups import haar_unitaries, reflection_matrices, sample_reflection_step
from .hermitian import _hermitian_rank, cdf_counts, conjugate_stack, sup_cdf_distance
from .kernel import MAX_DEGREE, check_identities, step_seminorm, walk_operator
from .mixing import (
    CURVE_POINT_BYTES,
    FIT_FLOOR,
    exact_tv_curve,
    fit_decay,
    unitary_mixing_diagnostic,
)

TAIL_MIN_REPLICATES = 500
FINITE_GROUP_TEST_FUNCTIONS = 20
WALK_TV_TARGET = 1e-6
IDENTITY_RESIDUAL_LIMIT = 1e-9
FLOAT_SLACK = 1e-12
STEP_RANK_LIMIT = 3
# Byte budget of one chunk's unitaries: three complex n x n matrices per
# replicate.  Larger chunks ran no faster and raised peak memory.
CHUNK_BYTES = 256 * 1024
# Bytes a finite-group replicate holds while its element is drawn: a uniform
# draw and the element's index (traced peak: 16.2 B per replicate at
# 4 million replicates).
FINITE_GROUP_REPLICATE_BYTES = 16


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


def _require_int(value, key: str, minimum: int, maximum: Optional[int] = None) -> int:
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
        if not math.isfinite(item):
            raise ValueError(f"config key '{key}' must contain only finite numbers (got {item})")
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

    Spectra are either a generator name ("two_point" | "uniform_grid" |
    "zero") or an explicit tuple of finite eigenvalues.
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
        seed = _require_int(data["seed"], "seed", 0)

        fields: dict = {"kind": kind, "seed": seed}
        if "replicates" in data:
            fields["replicates"] = _require_int(data["replicates"], "replicates", 1)
        else:
            fields["replicates"] = _DEFAULT_REPLICATES[kind]

        if kind == "scaling":
            if "n_grid" not in data:
                raise ValueError("missing required config key 'n_grid' for kind 'scaling'")
            grid = data["n_grid"]
            if not isinstance(grid, (list, tuple)) or len(grid) == 0:
                raise ValueError("config key 'n_grid' must be a nonempty array of integers")
            fields["n_grid"] = tuple(_require_int(item, "n_grid", 2) for item in grid)
        else:
            if "n" not in data:
                raise ValueError(f"missing required config key 'n' for kind '{kind}'")
            cap = None if kind == "matrix" else MAX_DEGREE
            least = 3 if kind == "finite-group" else 2
            fields["n"] = _require_int(data["n"], "n", least, cap)

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
            if not 0 < kappa < math.inf:
                raise ValueError(
                    f"config key 'kappa' must be a positive finite number (got {kappa})")
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
                fields["k_max"] = _require_int(data["k_max"], "k_max", 1)
            else:
                fields["k_max"] = 25 * fields["n"]
        for key in ("n_grid", "x_grid", "t_grid"):
            _require_distinct(f"config key '{key}'", fields.get(key) or (), "verdict names")
        cfg = ExperimentConfig(**fields)
        if kind in ("matrix", "scaling"):
            for n in cfg.n_grid or (cfg.n,):
                _matrix_plan(cfg, n)
        elif kind == "finite-group":
            workers.require_budget(
                f"a finite-group run of {cfg.replicates} replicates and {cfg.k_max} steps",
                FINITE_GROUP_REPLICATE_BYTES * cfg.replicates + CURVE_POINT_BYTES * (cfg.k_max + 1))
        return cfg

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

    def verdict_summary(self) -> str:
        """One line: how many verdicts passed, failed and were inconclusive."""
        return " / ".join(
            f"{sum(v['status'] == status for v in self.verdicts)} {status}"
            for status in ("pass", "fail", "inconclusive")
        )


def report_environment(seed: int, replicates: int) -> dict:
    """The ``environment`` block of every report: the package, the seed, the
    replicate count and the numerical environment (runtime Python, numpy,
    its BLAS build, the BLAS thread variables, null where unset, and the
    CPUs this process may use); _timed stamps runtime_seconds."""
    return {
        "package": f"haarconc {__version__}",
        "seed": seed,
        "replicates": replicates,
        "runtime_seconds": 0.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": workers.blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in workers.BLAS_THREAD_VARS},
        "usable_cpus": workers.usable_cpus(),
    }


def _timed(runner):
    """Stamp the wall time of a top-level runner on its report."""
    @functools.wraps(runner)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        report = runner(*args, **kwargs)
        report.environment["runtime_seconds"] = time.perf_counter() - start
        return report

    return timed


def _envelope(fit) -> dict:
    return {"a": fit.a, "b": fit.b, "tau": fit.tau, "window": list(fit.window),
            "residual": fit.residual}


def _k_curve(**columns) -> dict:
    """A CSV curve with one row per walk step k and the given value columns."""
    rows = [[k, *map(float, row)] for k, row in enumerate(zip(*columns.values()))]
    return {"header": ["k", *columns], "rows": rows}


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


def _estimate_verdict(name, observed, stderr, threshold, policy, conclusive) -> dict:
    """The one rule of every Monte Carlo verdict, at 4 standard errors.

    "4se-upper-confidence" passes when observed + 4 stderr <= threshold,
    fails when observed - 4 stderr > threshold and is inconclusive between;
    "4se-allowance" passes when observed <= threshold + 4 stderr and fails
    above.  Either is inconclusive when the sample cannot decide
    (`conclusive` false: fewer than 2 replicates, or tails below
    TAIL_MIN_REPLICATES)."""
    if not conclusive:
        status = "inconclusive"
    elif policy == "4se-allowance":
        status = "pass" if observed <= threshold + 4.0 * stderr else "fail"
    elif observed + 4.0 * stderr <= threshold:
        status = "pass"
    else:
        status = "fail" if observed - 4.0 * stderr > threshold else "inconclusive"
    return _verdict(name, status, observed, threshold, policy, stderr)


def _fmt(x: float) -> str:
    return f"{x:g}"


def _require_distinct(what: str, values, where: str) -> None:
    """Refuse two `values` that print alike with _fmt: `where` would repeat."""
    names = [_fmt(v) for v in values]
    clash = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if clash is not None:
        raise ValueError(f"{what} has two entries that both print as {clash!r} in {where}")


def chunk_size(n: int) -> int:
    """Replicates per chunk of the U(n) runners: 85 / 21 / 5 / 1 at
    n = 8 / 16 / 32 / 64."""
    return max(1, CHUNK_BYTES // (3 * n * n * np.dtype(np.complex128).itemsize))


def _check_steps(h_red, eig_red, w, y, diag_n, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rank of H - H' and sup |F_H - F_H'| for one chunk, where H = W + N is
    the reduced form and H' = Y W Y* + N its image after one reflection step.
    Both come out of conjugate_stack plus a real diagonal, so they are exactly
    hermitian and their difference needs no second hermitisation.

    Raises GuaranteeViolation, naming the global replicate, at the first
    replicate whose rank exceeds STEP_RANK_LIMIT or whose gap exceeds 3/n.
    """
    n = h_red.shape[-1]
    h_prime = conjugate_stack(y, w) + diag_n
    ranks, gaps = np.broadcast_arrays(
        _hermitian_rank(h_red - h_prime),
        sup_cdf_distance(eig_red, np.linalg.eigvalsh(h_prime)),
    )
    bad = np.flatnonzero((ranks > STEP_RANK_LIMIT) | (gaps > 3.0 / n + FLOAT_SLACK))
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
    return ranks, gaps


def _matrix_plan(cfg: ExperimentConfig, n: int) -> workers.Plan:
    """The workers.plan of a matrix run at n (each n of a scaling run), and
    the only size limit of a U(n) run: a chunk holds about 16 complex n x n
    matrices per replicate, step check included (peak RSS grew by 21 / 69 /
    256 MB at n = 256 / 512 / 1024), so n >= 2048 is refused even at one
    replicate.  The shared arrays hold F_H and the reduced form's F per
    replicate and x point, and with step_check each replicate's step rank
    and CDF gap.  A scaling run's refusal names the n that is over the budget."""
    reps, chunk = cfg.replicates, chunk_size(n)
    at = f" at n = {n}" if cfg.kind == "scaling" else ""
    layouts = [((reps, len(cfg.x_grid)), np.float64)] * 2
    if cfg.step_check:
        layouts += [((reps,), np.dtype(int)), ((reps,), np.float64)]
    return workers.plan(reps, chunk, layouts,
                        chunk * 16 * n * n * np.dtype(np.complex128).itemsize,
                        f"a {cfg.kind} run of {reps} replicates{at}")


def _factored_columns(spectrum: np.ndarray) -> int:
    """Columns of a Haar unitary U that U M U* needs, M = diag(spectrum):
    n - r when the spectrum ends in a run of r >= 2 equal values, else n."""
    n = spectrum.size
    differ = np.flatnonzero(spectrum != spectrum[-1])
    k = int(differ[-1]) + 1 if differ.size else 0
    return k if n - k >= 2 else n


def _haar_conjugates(z: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """U M U*, hermitised once, for the Haar unitary U of each Gaussian
    matrix of the (chunk, n, n) stack z, and M = diag(spectrum).

    With k = _factored_columns(spectrum) < n the spectrum ends in n - k
    copies of lam, and U M U* = lam I + U_S (M_S - lam) U_S* needs only the
    first k columns U_S of U: haar_unitaries of z's first k columns (the
    same bits as U's for n <= 128 with one BLAS thread; see
    haar_unitaries).  With k = 0 it is lam I, and no QR runs.
    With k = n it is conjugate_stack of the whole U.
    """
    n = spectrum.size
    k = _factored_columns(spectrum)
    if k == n:
        return conjugate_stack(haar_unitaries(z), spectrum)
    lam = spectrum[-1]
    if k == 0:
        return np.broadcast_to(lam * np.eye(n, dtype=np.complex128), z.shape)
    h = conjugate_stack(haar_unitaries(z[..., :k]), spectrum[:k] - lam)
    diagonal = np.arange(n)
    h[..., diagonal, diagonal] += lam
    return h


def sample_spectral_cdfs(
    cfg: ExperimentConfig, n: int,
) -> tuple[np.ndarray, np.ndarray, Optional[tuple[np.ndarray, np.ndarray]]]:
    """F_H(x) for H = U M U* + V N V* and for the reduced form X M X* + N
    at n (cfg.n of a matrix run, one n of a scaling grid), one row per
    replicate and one column per x-grid point, plus, with cfg.step_check,
    the per-replicate rank and CDF gap of one reflection step (None
    without it).

    Replicate r draws the whole n x n Gaussian matrices of U, V, X, each
    real parts first, in one standard_normal call (the bits of three
    complex_ginibre draws) from child_rng(seed, "matrix", r), and with
    step_check one reflection (u, phi) after them, but only the columns a
    spectrum needs are factored (_haar_conjugates): the first n // 2 for
    two_point at n >= 3, none for zero, all n for uniform_grid.  The step
    moves the replicate's own reduced form: H' = Y W Y* + N with W = X M X*,
    so it needs no Haar draw of its own.  A step whose rank exceeds
    STEP_RANK_LIMIT or whose CDF gap exceeds 3/n raises GuaranteeViolation.
    The chunks run under _matrix_plan on the workers of workers.run, each
    of which claims the next unclaimed chunk; a replicate's draws and
    arithmetic depend on its index only, not on which worker claims its
    chunk or when, so neither do the results.
    """
    xs = np.asarray(cfg.x_grid)
    spec_m = resolve_spectrum(cfg.spectrum_M, n)
    spec_n = resolve_spectrum(cfg.spectrum_N, n)
    diag_n = np.diag(spec_n)

    def work(chunks, out) -> None:
        f_def, f_red, *steps = out
        for rows in chunks:
            z = np.empty((3, len(rows), n, n), dtype=np.complex128)
            parts = z.view(np.float64).reshape(3, len(rows), n, n, 2).transpose(1, 0, 4, 2, 3)
            refl_u = np.empty((len(rows), n), dtype=np.complex128)
            refl_phi = np.empty(len(rows))
            for i, r in enumerate(rows):
                rng = child_rng(cfg.seed, "matrix", r)
                parts[i] = rng.standard_normal((3, 2, n, n))
                if cfg.step_check:
                    refl_u[i], refl_phi[i] = sample_reflection_step(n, rng)
            z *= 1.0 / np.sqrt(2.0)
            # One QR stack per factor: a single (3, chunk, n, n) stack ran slower.
            h = _haar_conjugates(z[0], spec_m) + _haar_conjugates(z[1], spec_n)
            w = _haar_conjugates(z[2], spec_m)
            h_red = w + diag_n
            eig_red = np.linalg.eigvalsh(h_red)
            f_def[rows.start:rows.stop] = cdf_counts(np.linalg.eigvalsh(h), xs) / n
            f_red[rows.start:rows.stop] = cdf_counts(eig_red, xs) / n
            if cfg.step_check:
                y = reflection_matrices(refl_u, refl_phi)
                ranks, gaps = steps
                ranks[rows.start:rows.stop], gaps[rows.start:rows.stop] = _check_steps(
                    h_red, eig_red, w, y, diag_n, rows)

    f_def, f_red, *steps = workers.run(_matrix_plan(cfg, n), work)
    return f_def, f_red, tuple(steps) if cfg.step_check else None


def _cdf_statistics(cfg: ExperimentConfig, n: int, f_def: np.ndarray,
                    f_red: np.ndarray) -> list:
    """The per_x rows of one n from the replicate rows of sample_spectral_cdfs.

    Per x point: the means of F_H and of the reduced form's F with their
    standard errors, the unbiased variance of F_H with its normal-
    approximation standard error (these four are 0 below 2 replicates),
    scaled_ratio = n Var / log n, and per t of cfg.t_grid the frequency of
    |F_H - mean| >= t with its binomial standard error.
    """
    reps = cfg.replicates
    per_x = []
    for ix, x in enumerate(cfg.x_grid):
        col, col_red = f_def[:, ix], f_red[:, ix]
        mean = float(np.mean(col))
        var = se_var = se_mean = se_mean_red = 0.0
        if reps >= 2:
            var = float(np.var(col, ddof=1))
            m4 = float(np.mean((col - mean)**4))
            se_var = float(np.sqrt(max(m4 - var * var * (reps - 3) / (reps - 1), 0.0) / reps))
            se_mean = float(np.std(col, ddof=1) / np.sqrt(reps))
            se_mean_red = float(np.std(col_red, ddof=1) / np.sqrt(reps))
        dev = np.abs(col - mean)
        freqs = [float(np.mean(dev >= t)) for t in cfg.t_grid]
        per_x.append({
            "x": float(x), "mean": mean, "mean_stderr": se_mean,
            "mean_reduced": float(np.mean(col_red)), "mean_reduced_stderr": se_mean_red,
            "variance": var, "variance_stderr": se_var, "scaled_ratio": n * var / math.log(n),
            "tail": [{"t": t, "frequency": f, "stderr": float(np.sqrt(f * (1.0 - f) / reps))}
                     for t, f in zip(cfg.t_grid, freqs)],
        })
    return per_x


def run_matrix_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Sample H = U M U* + V N V* (and the reduced form X M X* + N), estimate
    the spectral CDF mean/variance/tails on the x grid, and compare against
    the kappa-scaled bounds.  With step_check, also report the hard checks
    on one reflection step of every replicate's reduced form: rank(H - H')
    <= 3 and sup |F_H - F_H'| <= 3/n."""
    if cfg.kind != "matrix":
        raise ValueError("run_matrix_experiment requires kind 'matrix'")
    n, reps, kappa, ts = cfg.n, cfg.replicates, cfg.kappa, list(cfg.t_grid)
    f_def, f_red, steps = sample_spectral_cdfs(cfg, n)
    per_x = _cdf_statistics(cfg, n, f_def, f_red)
    variance_bound = esd_bounds(n, kappa, 0.0)[0]
    tail_bounds = [esd_bounds(n, kappa, t)[1] for t in ts]
    tail_warning = reps < TAIL_MIN_REPLICATES

    verdicts = []
    tail_rows = []
    for row in per_x:
        x = row["x"]
        for tail, bound in zip(row["tail"], tail_bounds):
            t, freq, se_freq = tail["t"], tail["frequency"], tail["stderr"]
            verdicts.append(_estimate_verdict(f"tail_x={_fmt(x)}_t={_fmt(t)}", freq, se_freq,
                                              bound, "4se-allowance", not tail_warning))
            tail_rows.append([x, t, freq, se_freq, bound])
        verdicts.append(_estimate_verdict(
            f"variance_x={_fmt(x)}", row["variance"], row["variance_stderr"], variance_bound,
            "4se-upper-confidence", reps >= 2))
        pooled = math.sqrt(row["mean_stderr"]**2 + row["mean_reduced_stderr"]**2)
        verdicts.append(_estimate_verdict(
            f"form_agreement_x={_fmt(x)}", abs(row["mean"] - row["mean_reduced"]), pooled, 0.0,
            "4se-allowance", reps >= 2))

    estimates = {"n": n, "per_x": per_x, "tail_resolution_warning": tail_warning}
    bounds = {
        "kappa": kappa,
        "variance_bound": variance_bound,
        "tail_bounds": [{"t": t, "value": b} for t, b in zip(ts, tail_bounds)],
    }
    if steps is not None:
        ranks, gaps = steps
        max_rank = int(np.max(ranks))
        max_gap = float(np.max(gaps))
        gap_limit = 3.0 / n + FLOAT_SLACK
        estimates["step_check"] = {"n": n, "replicates": reps, "max_rank": max_rank,
                                   "max_cdf_gap": max_gap}
        bounds["step_check"] = {"rank_limit": STEP_RANK_LIMIT, "cdf_gap_limit": gap_limit}
        verdicts.append(_verdict("step_rank_le_3", "pass", max_rank, STEP_RANK_LIMIT, "exact"))
        verdicts.append(_verdict("step_cdf_gap_le_3_over_n", "pass", max_gap, gap_limit, "exact"))
    curves = {
        "tails": {
            "header": ["x", "t", "frequency", "stderr", "bound"],
            "rows": tail_rows,
        }
    }
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts,
                            report_environment(cfg.seed, cfg.replicates), curves)


def _lazy_walk(n: int, k_max: int, law_below: Optional[float] = None):
    """The lazy-transposition walk operator on S_n, its exact TV curve up to
    k_max (keeping the law at the first step with TV <= `law_below`, if
    given) and the certified envelope of that curve.  Refuses n < 3 before
    the walk, and a k_max too short to fit the envelope."""
    if n < 3:
        raise ValueError(f"n = {n} has no S_n envelope: for n <= 2 the walk is uniform after "
                         "at most one step, so there is no decay to fit; n must be at least 3")
    op = walk_operator(n)
    curve = exact_tv_curve(op, k_max, law_below)
    try:
        return op, curve, fit_decay(curve)
    except ValueError as exc:
        raise ValueError(
            f"k_max = {k_max} is too short to fit the S_{n} envelope: {exc}") from None


def run_finite_group_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Exact certification on S_n: certified TV envelope, exact norms and
    variance per test function, hard Var <= C/2 and tail checks."""
    if cfg.kind != "finite-group":
        raise ValueError("run_finite_group_experiment requires kind 'finite-group'")
    n = cfg.n
    op, curve, fit = _lazy_walk(n, cfg.k_max, WALK_TV_TARGET)
    size = op.size

    k_star = curve.law_step
    law = curve.law / curve.law.sum()
    # Draws per element, whose sums give the sampled tails: no per-replicate
    # array outlives the draw.
    hits = np.bincount(child_rng(cfg.seed, "finite-tail", 0).choice(
        size, size=cfg.replicates, p=law), minlength=size)

    counts = op.table.fixed_point_counts().astype(float) / n
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
        step_norm = step_seminorm(op, f)
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
        for t in ts:
            bound = tail_bound(result.constant, t)
            freq = float(np.sum(hits[dev >= t]) / cfg.replicates)
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
    bounds = {"envelope": _envelope(fit), "default_constant": rows[0]["constant"]}
    verdicts = [
        _verdict("variance_le_half_constant", "pass", max_var_margin, 1.0, "exact"),
        _verdict("tails_le_bound", "pass", max_tail_excess, FLOAT_SLACK, "exact"),
    ]
    curves = {
        "tv_curve": _k_curve(value=curve.values),
        "tails": {
            "header": ["t", "frequency", "exact_probability", "bound"],
            "rows": [[d["t"], d["frequency"], d["exact_probability"], d["bound"]]
                     for d in default_tail],
        },
    }
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts,
                            report_environment(cfg.seed, cfg.replicates), curves)


def run_identity_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Exact pair identities on S_n (n <= MAX_DEGREE) for random centered functions."""
    if cfg.kind != "identity-suite":
        raise ValueError("run_identity_suite requires kind 'identity-suite'")
    n = cfg.n
    op = walk_operator(n)
    rows = []
    for i in range(cfg.replicates):
        f = child_rng(cfg.seed, "identity-f", i).standard_normal(op.size)
        f -= f.mean()
        report = check_identities(op, f, eps=1e-12)
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
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts,
                            report_environment(cfg.seed, cfg.replicates), curves)


def run_scaling_study(cfg: ExperimentConfig) -> ExperimentReport:
    """The matrix sampler and statistics at every n of the grid; checks that
    n * Var / log n stays below the configured kappa and re-tests tails with
    the measured kappa."""
    if cfg.kind != "scaling":
        raise ValueError("run_scaling_study requires kind 'scaling'")
    per_n = [{"n": n, "per_x": _cdf_statistics(cfg, n, *sample_spectral_cdfs(cfg, n)[:2])}
             for n in cfg.n_grid]
    kappa_measured = max([0.0] + [row["scaled_ratio"] for d in per_n for row in d["per_x"]])
    tail_warning = cfg.replicates < TAIL_MIN_REPLICATES

    verdicts = []
    scaling_rows = []
    tail_rows = []
    for d in per_n:
        n = d["n"]
        logn = math.log(n)
        for row in d["per_x"]:
            x = row["x"]
            ratio = row["scaled_ratio"]
            ratio_se = n * row["variance_stderr"] / logn
            verdicts.append(_estimate_verdict(f"ratio_n={n}_x={_fmt(x)}", ratio, ratio_se,
                                              cfg.kappa, "4se-upper-confidence",
                                              cfg.replicates >= 2))
            scaling_rows.append(
                [n, x, row["variance"], row["variance_stderr"], ratio, ratio + 4.0 * ratio_se])
            for tail in row["tail"]:
                t, freq, se_freq = tail["t"], tail["frequency"], tail["stderr"]
                bound = (esd_bounds(n, kappa_measured, t)[1] if kappa_measured > 0
                         else tail_bound(0.0, t))
                verdicts.append(_estimate_verdict(
                    f"tail_measured_kappa_n={n}_x={_fmt(x)}_t={_fmt(t)}", freq, se_freq, bound,
                    "4se-allowance", not tail_warning))
                tail_rows.append([n, x, t, freq, se_freq, bound])

    estimates = {
        "n_grid": list(cfg.n_grid),
        "kappa_configured": cfg.kappa,
        "kappa_measured": kappa_measured,
        "per_n": per_n,
        "tail_resolution_warning": tail_warning,
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
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts,
                            report_environment(cfg.seed, cfg.replicates), curves)


_RUNNERS = {
    "matrix": run_matrix_experiment,
    "finite-group": run_finite_group_experiment,
    "identity-suite": run_identity_suite,
    "scaling": run_scaling_study,
}


@_timed
def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the runner for cfg.kind."""
    return _RUNNERS[cfg.kind](cfg)


@_timed
def run_mixing_curve(
    group: str, n: int, k_max: Optional[int], seed: int, replicates: int
) -> ExperimentReport:
    """Walk mixing up to k_max steps (None: 25 n for "sn", 4 n for "un").
    "sn": exact TV curve and certified envelope, checked against every value
    above FIT_FLOOR; "un": Monte Carlo trace moments with a PROXY envelope."""
    if group == "sn":
        k_max = 25 * n if k_max is None else k_max
        workers.require_budget(f"an S_{n} walk of {k_max} steps", CURVE_POINT_BYTES * (k_max + 1))
        _, curve, fit = _lazy_walk(n, k_max)
        ks = np.arange(len(curve))
        certified = curve.values > FIT_FLOOR
        ratio = float(np.max(curve.values[certified] * np.exp(fit.b * ks[certified]) / fit.a))
        status = "pass" if ratio <= 1.0 + FLOAT_SLACK else "fail"
        return ExperimentReport(
            config_echo={"command": "mixing-curve", "group": "sn", "n": n, "k_max": k_max},
            estimates={"final_tv": float(curve.values[-1])},
            bounds={"envelope": _envelope(fit)},
            verdicts=[_verdict("envelope_dominates_certified_range", status, ratio, 1.0, "exact")],
            environment=report_environment(seed, 0),
            curves={"mixing_curve": _k_curve(value=curve.values)},
        )
    if group != "un":
        raise ValueError(f"group must be 'sn' or 'un' (got {group!r})")
    k_max = 4 * n if k_max is None else k_max
    diag = unitary_mixing_diagnostic(n, k_max, replicates, child_rng(seed, "unitary-mixing", 0))
    bounds = {}
    if diag.fit is not None:
        # kappa implied by treating the PROXY (a, b) as a TV envelope for
        # the spectral CDF function class (A = 1, B = 3/n); labeled, not
        # certified.
        res = concentration_constant(BoundInputs(1.0, 3.0 / n, diag.fit.a, diag.fit.b))
        bounds = {
            "proxy_envelope": _envelope(diag.fit),
            "proxy_constant": res.constant,
            "proxy_kappa": n * res.constant / (2.0 * math.log(n)),
            "note": diag.note,
        }
    return ExperimentReport(
        config_echo={"command": "mixing-curve", "group": "un", "n": n, "k_max": k_max,
                     "replicates": replicates, "seed": seed},
        estimates={"moment_at_0": float(diag.moments[0]),
                   "moment_at_k_max": float(diag.moments[-1]), "note": diag.note},
        bounds=bounds,
        verdicts=[],
        environment=report_environment(seed, replicates),
        curves={"mixing_curve": _k_curve(value=diag.moments, stderr=diag.stderrs)},
    )


@_timed
def run_bound_calc(A: float, B: float, a: float, b: float, ts) -> ExperimentReport:
    """The concentration constant C for sup|f| <= A, step seminorm <= B and
    TV envelope a e^(-b k), with the tail bound at each t in ts."""
    _require_distinct("--t", ts, "tail bound lines")
    result = concentration_constant(BoundInputs(A, B, a, b))
    tails = [{"t": t, "value": tail_bound(result.constant, t)} for t in ts]
    return ExperimentReport({"command": "bound-calc", "A": A, "B": B, "a": a, "b": b}, {},
                            {**asdict(result), "tail_bounds": tails}, [],
                            report_environment(0, 0))
