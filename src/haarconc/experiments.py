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
sampled reduced form, so the step check needs no Haar draw of its own; it
applies the reflection as a reflector in O(n^2) (_check_steps), so a step
costs two eigvalsh calls: one of H - H' for its rank and one of the moved
matrix H' for its CDF gap.  The chunks go to the
forked workers of haarconc.workers (two threads ran these small LAPACK
calls no faster than one), one per CPU that one BLAS call may use, so a
BLAS left to use every CPU runs the chunks inline, under the _matrix_plan
that also refuses, first, a run above the memory budget.  A
replicate's result depends on its index only, so reports do not depend on
the worker count.  Every check is a verdict that the report records,
failed or not: an exact check by _exact_verdict, which fails on any value
that breaks its limit and names the first, a statistical comparison by
_estimate_verdict under one 4-standard-error rule, and the U(n) walk's
moments by their distance from the exact curve in standard errors.  The
reports of all six CLI commands are assembled here, a config's by
run_experiment alone, and every config is parsed and echoed by one key table,
_KEYS: per key, each kind's default or "required", and the key's parser.
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
from .groups import (
    complex_ginibre,
    haar_unitaries,
    reflection_coefficients,
    sample_reflection_step,
)
from .hermitian import (
    _hermitian_rank,
    cdf_counts,
    conjugate_stack,
    reflect_stack,
    sup_cdf_distance,
)
from .kernel import MAX_DEGREE, check_identities, step_seminorm, walk_operator
from .mixing import CURVE_POINT_BYTES, exact_tv_curve, fit_decay, unitary_mixing_diagnostic

TAIL_MIN_REPLICATES = 500
FINITE_GROUP_TEST_FUNCTIONS = 20
WALK_TV_TARGET = 1e-6
IDENTITY_RESIDUAL_LIMIT = 1e-9
FLOAT_SLACK = 1e-12
STEP_RANK_LIMIT = 3
# Standard errors by which a U(n) walk moment may miss the exact curve.
MOMENT_Z_LIMIT = 5.0
# Byte budget of one chunk's unitaries: three complex n x n matrices per
# replicate.  Larger chunks ran no faster and raised peak memory.
CHUNK_BYTES = 256 * 1024
# Bytes a finite-group replicate holds while its element is drawn: a uniform
# draw and the element's index (traced peak: 16.2 B per replicate at
# 4 million replicates).
FINITE_GROUP_REPLICATE_BYTES = 16
# Bytes an identity-suite replicate holds: its residual row (traced peak:
# 168 B per replicate, peak RSS 193 B, from 20 000 to 200 000 at n = 2).
IDENTITY_REPLICATE_BYTES = 200


_KINDS = ("matrix", "finite-group", "identity-suite", "scaling")
_SPECTRUM_NAMES = ("two_point", "uniform_grid", "zero")
# The least n with an S_n envelope: for n <= 2 the lazy walk is uniform
# after at most one step, so there is no decay to fit.
MIN_ENVELOPE_DEGREE = 3
# The default length of the S_n walk of finite-group: 25 n.
SN_STEPS_PER_DEGREE = 25


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


def _require_float_list(value, key: str, minimum: Optional[float] = None) -> tuple[float, ...]:
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


def _parse_n(value, key: str, fields: dict) -> int:
    kind = fields["kind"]  # the memory plan is the only cap of a matrix run's n
    least = MIN_ENVELOPE_DEGREE if kind == "finite-group" else 2
    return _require_int(value, key, least, None if kind == "matrix" else MAX_DEGREE)


def _parse_n_grid(value, key: str, fields: dict) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ValueError(f"config key '{key}' must be a nonempty array of integers")
    return tuple(_require_int(item, key, 2) for item in value)


def _parse_spectrum(value, key: str, fields: dict):
    if isinstance(value, str):
        if value not in _SPECTRUM_NAMES:
            raise ValueError(
                f"config key '{key}' must be one of {list(_SPECTRUM_NAMES)} or an explicit array"
            )
        return value
    if fields["kind"] == "scaling":
        raise ValueError(
            f"config key '{key}' must be a generator name for kind 'scaling' "
            "(an explicit list cannot match every n in n_grid)"
        )
    spectrum, n = _require_float_list(value, key), fields["n"]
    if len(spectrum) != n:
        raise ValueError(f"config key '{key}' must have length n={n} (got {len(spectrum)})")
    return spectrum


def _parse_kappa(value, key: str, fields: dict) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"config key '{key}' must be a positive number")
    value = float(value)
    if not 0 < value < math.inf:
        raise ValueError(f"config key '{key}' must be a positive finite number (got {value})")
    return value


def _parse_bool(value, key: str, fields: dict) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"config key '{key}' must be a boolean")
    return value


def _int_from(minimum: int):
    return lambda value, key, fields: _require_int(value, key, minimum)


def _numbers_from(minimum: Optional[float]):
    return lambda value, key, fields: _require_float_list(value, key, minimum)


REQUIRED, ABSENT = "required", "-"
_X_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
_UN_T_GRID = (0.005, 0.01, 0.02, 0.05, 0.1)
_SN_T_GRID = (0.05, 0.1, 0.2, 0.4, 0.8)

# The config rules, as in the README's "Config keys by kind": every key but
# `kind`, in the order from_dict parses them, with one cell per kind of _KINDS,
# REQUIRED, ABSENT or the default (a callable of the keys parsed before), and
# the key's parser of (value, key, the keys parsed before).
_KEYS = {
    #              matrix       finite-group  identity-suite  scaling
    "seed":       (REQUIRED,    REQUIRED,     REQUIRED,       REQUIRED,    _int_from(0)),
    "replicates": (1000,        10000,        50,             1000,        _int_from(1)),
    "n_grid":     (ABSENT,      ABSENT,       ABSENT,         REQUIRED,    _parse_n_grid),
    "n":          (REQUIRED,    REQUIRED,     REQUIRED,       ABSENT,      _parse_n),
    "spectrum_M": ("two_point", ABSENT,       ABSENT,         "two_point", _parse_spectrum),
    "spectrum_N": ("two_point", ABSENT,       ABSENT,         "two_point", _parse_spectrum),
    "x_grid":     (_X_GRID,     ABSENT,       ABSENT,         _X_GRID,     _numbers_from(None)),
    "kappa":      (1.0,         ABSENT,       ABSENT,         1.0,         _parse_kappa),
    "t_grid":     (_UN_T_GRID,  _SN_T_GRID,   ABSENT,         _UN_T_GRID,  _numbers_from(0.0)),
    "step_check": (False,       ABSENT,       ABSENT,         ABSENT,      _parse_bool),
    "k_max":      (ABSENT,      lambda fields: SN_STEPS_PER_DEGREE * fields["n"], ABSENT, ABSENT,
                   _int_from(1)),
}


# {key: (default, parser)} of the keys of _KEYS that each kind takes.
_TAKEN = {kind: {key: (row[i], row[-1]) for key, row in _KEYS.items() if row[i] != ABSENT}
          for i, kind in enumerate(_KINDS)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, canonicalized experiment configuration; from_dict parses
    it by key rules only and to_dict writes it, both by one key table, _KEYS.

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
            if key != "kind" and key not in _KEYS:
                raise ValueError(f"unknown config key '{key}'")
        kind = data.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"config key 'kind' must be one of {list(_KINDS)} (got {kind!r})")
        for key in data:
            if key != "kind" and key not in _TAKEN[kind]:
                raise ValueError(f"config key '{key}' is not allowed for kind '{kind}'")
        fields: dict = {"kind": kind}
        for key, (default, parse) in _TAKEN[kind].items():
            if key in data:
                fields[key] = parse(data[key], key, fields)
            elif default == REQUIRED:
                why = "(no ambient randomness)" if key == "seed" else f"for kind '{kind}'"
                raise ValueError(f"missing required config key '{key}' {why}")
            else:
                fields[key] = default(fields) if callable(default) else default
        for key in ("n_grid", "x_grid", "t_grid"):
            _require_distinct(f"config key '{key}'", fields.get(key) or (), "verdict names")
        return ExperimentConfig(**fields)

    def to_dict(self) -> dict:
        """Canonical JSON form: every key the kind takes, defaults filled."""
        out: dict = {"kind": self.kind}
        for key in _TAKEN[self.kind]:
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


def _k_curve(**columns) -> dict:
    """A CSV curve with one row per walk step k and the given value columns.
    Each row is a list made from a tuple, which sizes it exactly: a starred
    list display over-allocates it to 8 slots, 48 B more for a row of 2."""
    rows = [list((k, *map(float, row))) for k, row in enumerate(zip(*columns.values()))]
    return {"header": ["k", *columns], "rows": rows}


def _verdict(name, status, observed, threshold, policy, **extra) -> dict:
    return {"name": name, "status": status, "observed": float(observed),
            "threshold": float(threshold), "policy": policy, **extra}


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
    return _verdict(name, status, observed, threshold, policy, stderr=float(stderr))


def _exact_verdict(name, observed, threshold, violations) -> dict:
    """The one rule of every exact verdict: "fail" when `violations`, the
    places where a value the run holds breaks its limit, in the run's order,
    has any, "pass" otherwise.  A failing verdict names the first in
    "first_violation", a key that only it carries."""
    first = next(iter(violations), None)
    if first is None:
        return _verdict(name, "pass", observed, threshold, "exact")
    return _verdict(name, "fail", observed, threshold, "exact", first_violation=first)


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


def _check_steps(h_red, eig_red, w, u, phi, diag_n) -> tuple[np.ndarray, np.ndarray]:
    """Rank of H - H' and sup |F_H - F_H'| for one chunk, where H = W + N is
    the reduced form and H' = Y W Y* + N its image after one reflection step
    Y = I - c u u*, c = 1 - e^{i phi}.

    Y is checked unitary from (u, c) and applied as a reflector
    (reflect_stack), in O(n^2) per replicate.  H and H' are hermitised
    conjugates plus a real diagonal, so they are exactly hermitian and their
    difference needs no second hermitisation: _hermitian_rank takes the
    eigvalsh of H - H' as it is.  The CDF gap takes the eigvalsh of H'.
    """
    h_prime = reflect_stack(u, reflection_coefficients(u, phi), w)
    h_prime += diag_n
    return np.broadcast_arrays(
        _hermitian_rank(h_red - h_prime),
        sup_cdf_distance(eig_red, np.linalg.eigvalsh(h_prime)),
    )


def _matrix_plan(cfg: ExperimentConfig, n: int) -> workers.Plan:
    """The workers.plan of a matrix run at n (each n of a scaling run), and
    the only size limit of a U(n) run: a chunk holds about 16 complex n x n
    matrices per replicate, step check included (peak RSS grew by 21 / 69 /
    256 MB at n = 256 / 512 / 1024), so n >= 2048 is refused even at one
    replicate.  The shared arrays hold F_H and the reduced form's F per
    replicate and x point, and with step_check each replicate's step rank
    and CDF gap.  It is made before any allocation, for a scaling run at
    every n before the first runs, and a scaling refusal names its n."""
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

    Replicate r draws the whole n x n Gaussian matrices of U, V, X in one
    complex_ginibre call from child_rng(seed, "matrix", r), and with
    step_check one reflection (u, phi) after them, but only the columns a
    spectrum needs are factored (_haar_conjugates): the first n // 2 for
    two_point at n >= 3, none for zero, all n for uniform_grid.  The step
    moves the replicate's own reduced form: H' = Y W Y* + N with W = X M X*,
    so it needs no Haar draw of its own, and Y is applied from its (u, phi)
    without being built (_check_steps).  The chunks run under _matrix_plan
    on the workers of workers.run, each of which claims the next unclaimed
    chunk; a replicate's draws and arithmetic depend on its index only, not
    on which worker claims its chunk or when, so neither do the results.
    """
    plan = _matrix_plan(cfg, n)
    xs = np.asarray(cfg.x_grid)
    spec_m = resolve_spectrum(cfg.spectrum_M, n)
    spec_n = resolve_spectrum(cfg.spectrum_N, n)
    diag_n = np.diag(spec_n)

    def work(rows, out) -> None:
        f_def, f_red, *steps = out
        z = np.empty((3, len(rows), n, n), dtype=np.complex128)
        refl_u = np.empty((len(rows), n), dtype=np.complex128)
        refl_phi = np.empty(len(rows))
        for i, r in enumerate(rows):
            rng = child_rng(cfg.seed, "matrix", r)
            complex_ginibre(n, rng, z[:, i])
            if cfg.step_check:
                refl_u[i], refl_phi[i] = sample_reflection_step(n, rng)
        # One QR stack per factor: a single (3, chunk, n, n) stack ran slower.
        h = _haar_conjugates(z[0], spec_m) + _haar_conjugates(z[1], spec_n)
        w = _haar_conjugates(z[2], spec_m)
        h_red = w + diag_n
        eig_red = np.linalg.eigvalsh(h_red)
        f_def[rows.start:rows.stop] = cdf_counts(np.linalg.eigvalsh(h), xs) / n
        f_red[rows.start:rows.stop] = cdf_counts(eig_red, xs) / n
        if cfg.step_check:
            ranks, gaps = steps
            ranks[rows.start:rows.stop], gaps[rows.start:rows.stop] = _check_steps(
                h_red, eig_red, w, refl_u, refl_phi, diag_n)

    f_def, f_red, *steps = workers.run(plan, work)
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


def _run_matrix(cfg: ExperimentConfig) -> tuple:
    """Sample H = U M U* + V N V* (and the reduced form X M X* + N), estimate
    the spectral CDF mean/variance/tails on the x grid, and compare against
    the kappa-scaled bounds.  With step_check, also give the exact verdicts
    on one reflection step of every replicate's reduced form, rank(H - H')
    <= 3 and sup |F_H - F_H'| <= 3/n, which name the first replicate that
    breaks them.  Returns (estimates, bounds, verdicts, curves)."""
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
        verdicts.append(_exact_verdict(
            "step_rank_le_3", max_rank, STEP_RANK_LIMIT,
            ({"replicate": int(r)} for r in np.flatnonzero(ranks > STEP_RANK_LIMIT))))
        verdicts.append(_exact_verdict(
            "step_cdf_gap_le_3_over_n", max_gap, gap_limit,
            ({"replicate": int(r)} for r in np.flatnonzero(gaps > gap_limit))))
    curves = {
        "tails": {
            "header": ["x", "t", "frequency", "stderr", "bound"],
            "rows": tail_rows,
        }
    }
    return estimates, bounds, verdicts, curves


def _run_finite_group(cfg: ExperimentConfig) -> tuple:
    """Exact certification on S_n, after its memory check: the exact TV
    curve of the lazy-transposition walk up to k_max (the package's one S_n
    curve, tv_curve.csv) with its certified envelope, exact norms and
    variance per test function, and exact verdicts on Var <= C/2 and on the
    tails, which name the first function (and t) that breaks them.  A k_max
    too short to fit the envelope is refused.  Returns (estimates, bounds,
    verdicts, curves)."""
    n = cfg.n
    workers.require_budget(
        f"a finite-group run of {cfg.replicates} replicates and {cfg.k_max} steps",
        FINITE_GROUP_REPLICATE_BYTES * cfg.replicates + CURVE_POINT_BYTES * (cfg.k_max + 1))
    op = walk_operator(n)
    curve = exact_tv_curve(op, cfg.k_max, WALK_TV_TARGET)
    try:
        fit = fit_decay(curve)
    except ValueError as exc:
        raise ValueError(
            f"k_max = {cfg.k_max} is too short to fit the S_{n} envelope: {exc}") from None
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
    variance_violations, tail_violations = [], []
    for label, f in functions:
        sup_norm = float(np.max(np.abs(f)))
        step_norm = step_seminorm(op, f)
        variance = float(np.var(f))
        result = concentration_constant(BoundInputs(sup_norm, step_norm, fit.a, fit.b))
        if variance > result.variance_bound * (1.0 + FLOAT_SLACK):
            variance_violations.append({"f": label})
        margin = variance / result.variance_bound
        max_var_margin = max(max_var_margin, margin)
        dev = np.abs(f)
        for t in ts:
            bound = tail_bound(result.constant, t)
            freq = float(np.sum(hits[dev >= t]) / cfg.replicates)
            exact_prob = float(np.mean(dev >= t))
            if freq > bound + FLOAT_SLACK or exact_prob > bound + FLOAT_SLACK:
                tail_violations.append({"f": label, "t": t})
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
    envelope = {"a": fit.a, "b": fit.b, "tau": fit.tau, "window": list(fit.window),
                "residual": fit.residual}
    bounds = {"envelope": envelope, "default_constant": rows[0]["constant"]}
    verdicts = [
        _exact_verdict("variance_le_half_constant", max_var_margin, 1.0, variance_violations),
        _exact_verdict("tails_le_bound", max_tail_excess, FLOAT_SLACK, tail_violations),
    ]
    curves = {
        "tv_curve": _k_curve(value=curve.values),
        "tails": {
            "header": ["t", "frequency", "exact_probability", "bound"],
            "rows": [[d["t"], d["frequency"], d["exact_probability"], d["bound"]]
                     for d in default_tail],
        },
    }
    return estimates, bounds, verdicts, curves


def _run_identities(cfg: ExperimentConfig) -> tuple:
    """Exact pair identities on S_n (n <= MAX_DEGREE) for random centered
    functions, and one exact verdict naming the first whose residual breaks
    IDENTITY_RESIDUAL_LIMIT, after its memory check.  Returns (estimates,
    bounds, verdicts, curves)."""
    n = cfg.n
    workers.require_budget(f"an identity-suite run of {cfg.replicates} replicates",
                           IDENTITY_REPLICATE_BYTES * cfg.replicates)
    op = walk_operator(n)
    rows = []
    for i in range(cfg.replicates):
        f = child_rng(cfg.seed, "identity-f", i).standard_normal(op.size)
        f -= f.mean()
        report = check_identities(op, f)
        rows.append([i, report.conditional_mean_residual, report.variance_residual])
    max_cond = max(r[1] for r in rows)
    max_var = max(r[2] for r in rows)
    worst = max(max_cond, max_var)
    estimates = {
        "n": n,
        "functions": cfg.replicates,
        "max_conditional_mean_residual": max_cond,
        "max_variance_residual": max_var,
    }
    bounds = {"residual_limit": IDENTITY_RESIDUAL_LIMIT}
    verdicts = [_exact_verdict(
        "identity_residuals", worst, IDENTITY_RESIDUAL_LIMIT,
        ({"f_index": i} for i, cond, var in rows if max(cond, var) > IDENTITY_RESIDUAL_LIMIT))]
    curves = {
        "residuals": {
            "header": ["f_index", "conditional_mean_residual", "variance_residual"],
            "rows": rows,
        }
    }
    return estimates, bounds, verdicts, curves


def _run_scaling(cfg: ExperimentConfig) -> tuple:
    """The matrix sampler and statistics at every n of the grid, all planned
    before the first runs; checks that n * Var / log n stays below the
    configured kappa and re-tests tails with the measured kappa.  Returns
    (estimates, bounds, verdicts, curves)."""
    for n in cfg.n_grid:
        _matrix_plan(cfg, n)
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
    return estimates, bounds, verdicts, curves


_RUNNERS = {
    "matrix": _run_matrix,
    "finite-group": _run_finite_group,
    "identity-suite": _run_identities,
    "scaling": _run_scaling,
}


@_timed
def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run a config, the one entry of every kind: the report of what the
    runner of cfg.kind returns, with the config echo and the environment."""
    estimates, bounds, verdicts, curves = _RUNNERS[cfg.kind](cfg)
    return ExperimentReport(cfg.to_dict(), estimates, bounds, verdicts,
                            report_environment(cfg.seed, cfg.replicates), curves)


@_timed
def run_mixing_curve(n: int, k_max: Optional[int], seed: int, replicates: int) -> ExperimentReport:
    """The U(n) reflection walk up to k_max steps (None: 4 n): Monte Carlo
    trace moments, each checked against the exact 1 + (n^2 - 1) e^(-b k),
    b = 2 log((n + 1)/(n - 1)).  The S_n curve is finite-group's."""
    k_max = 4 * n if k_max is None else k_max
    diag = unitary_mixing_diagnostic(n, k_max, replicates, child_rng(seed, "unitary-mixing", 0))
    rate = 2.0 * math.log((n + 1) / (n - 1))
    exact = 1.0 + (n * n - 1) * ((n - 1) / (n + 1)) ** (2 * np.arange(k_max + 1))
    worst = np.max(np.abs(diag.moments[1:] - exact[1:]) / diag.stderrs[1:])
    status = "fail" if worst > MOMENT_Z_LIMIT else "pass"
    return ExperimentReport(
        config_echo={"command": "mixing-curve", "group": "un", "n": n, "k_max": k_max,
                     "replicates": replicates, "seed": seed},
        estimates={"moment_at_0": float(diag.moments[0]),
                   "moment_at_k_max": float(diag.moments[-1]), "exact_rate": rate,
                   "exact_moment_at_k_max": float(exact[-1])},
        bounds={},
        verdicts=[_verdict("moments_within_5se_of_exact", status, worst, MOMENT_Z_LIMIT,
                           "5se-every-k")],
        environment=report_environment(seed, replicates),
        curves={"mixing_curve": _k_curve(value=diag.moments, stderr=diag.stderrs, exact=exact)},
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
