"""Command line interface.

Commands: matrix | finite-group | identity-suite | scaling | mixing-curve |
bound-calc.  Experiment commands read a JSON config and write report.json
plus flat CSV curves into --out.  Exit codes: 0 all hard checks pass and no
statistical verdict fails, 1 usage or config error, 2 a guarantee or a
statistical verdict failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from .bounds import BoundInputs, concentration_constant, tail_bound
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    GuaranteeViolation,
    child_rng,
    run_experiment,
)
from .groups import StepDistribution
from .mixing import exact_tv_curve, fit_decay, unitary_mixing_diagnostic

_EXPERIMENT_COMMANDS = ("matrix", "finite-group", "identity-suite", "scaling")


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)


def write_report(report: ExperimentReport, out_dir) -> None:
    """report.json (sorted keys, stable float repr) plus one CSV per curve."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    (out / "report.json").write_text(payload)
    for name, curve in report.curves.items():
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(curve["header"])
            writer.writerows(curve["rows"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarconc",
        description="Concentration checks for Haar-distributed matrices via walk mixing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _EXPERIMENT_COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--replicates", type=int, default=None,
                       help="override the config replicate count")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility (>= 1); all work runs on one "
                            "thread, so it changes neither speed nor results")

    p = sub.add_parser("mixing-curve", help="total-variation / moment decay curves")
    p.add_argument("--group", choices=("sn", "un"), default="sn",
                   help="sn: exact S_n TV curve; un: U(n) trace-moment proxy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    p.add_argument("--seed", type=int, default=0, help="master seed (used by un)")
    p.add_argument("--replicates", type=int, default=4000,
                   help="Monte Carlo walks for un (default 4000)")
    p.add_argument("--out", default="out")

    p = sub.add_parser("bound-calc", help="evaluate the concentration constant")
    p.add_argument("--A", type=float, required=True, help="bound on sup|f|")
    p.add_argument("--B", type=float, required=True, help="bound on the step RMS seminorm")
    p.add_argument("--a", type=float, required=True, help="TV envelope prefactor")
    p.add_argument("--b", type=float, required=True, help="TV envelope rate")
    p.add_argument("--t", type=float, action="append", default=None,
                   help="also print the tail bound at this t (repeatable)")
    p.add_argument("--out", default=None, help="optionally write report.json here")
    return parser


def _run_mixing_curve(args) -> int:
    start = time.perf_counter()
    n = args.n
    if args.group == "sn":
        k_max = args.k_max if args.k_max is not None else 25 * n
        step = StepDistribution.lazy_transposition(n)
        curve = exact_tv_curve(n, step, k_max)
        fit = fit_decay(curve)
        config_echo = {"command": "mixing-curve", "group": "sn", "n": n, "k_max": k_max}
        estimates = {"final_tv": float(curve.values[-1])}
        bounds = {
            "envelope": {"a": fit.a, "b": fit.b, "tau": fit.tau,
                         "window": list(fit.window), "residual": fit.residual}
        }
        verdicts = [{"name": "envelope_dominates_certified_range", "status": "pass",
                     "observed": 0.0, "threshold": 0.0, "policy": "exact"}]
        curves = {
            "mixing_curve": {
                "header": ["k", "value"],
                "rows": [[k, float(v)] for k, v in enumerate(curve.values)],
            }
        }
        environment = {"seed": args.seed, "replicates": 0}
    else:
        k_max = args.k_max if args.k_max is not None else 4 * n
        rng = child_rng(args.seed, "unitary-mixing", 0)
        diag = unitary_mixing_diagnostic(n, k_max, args.replicates, rng)
        config_echo = {
            "command": "mixing-curve", "group": "un", "n": n,
            "k_max": k_max, "replicates": args.replicates, "seed": args.seed,
        }
        estimates = {
            "moment_at_0": float(diag.moments[0]),
            "moment_at_k_max": float(diag.moments[-1]),
            "note": diag.note,
        }
        bounds = {}
        if diag.fit is not None:
            # kappa implied by treating the PROXY (a, b) as a TV envelope for
            # the spectral CDF function class (A = 1, B = 3/n); labeled, not
            # certified.
            res = concentration_constant(BoundInputs(1.0, 3.0 / n, diag.fit.a, diag.fit.b))
            bounds = {
                "proxy_envelope": {"a": diag.fit.a, "b": diag.fit.b, "tau": diag.fit.tau,
                                   "window": list(diag.fit.window),
                                   "residual": diag.fit.residual},
                "proxy_constant": res.constant,
                "proxy_kappa": n * res.constant / (2.0 * math.log(n)),
                "note": diag.note,
            }
        verdicts = []
        curves = {
            "mixing_curve": {
                "header": ["k", "value", "stderr"],
                "rows": [[k, float(m), float(s)]
                         for k, (m, s) in enumerate(zip(diag.moments, diag.stderrs))],
            }
        }
        environment = {"seed": args.seed, "replicates": args.replicates}
    environment["runtime_seconds"] = time.perf_counter() - start
    report = ExperimentReport(config_echo, estimates, bounds, verdicts, environment, curves)
    write_report(report, args.out)
    print(f"report written to {args.out}")
    return 0


def _run_bound_calc(args) -> int:
    inputs = BoundInputs(args.A, args.B, args.a, args.b)
    result = concentration_constant(inputs)
    print(f"C = {result.constant:.10g}")
    print(f"variance bound = {result.variance_bound:.10g}")
    tails = []
    for t in args.t or []:
        value = tail_bound(result.constant, t)
        tails.append({"t": t, "value": value})
        print(f"tail bound at t={t:g}: {value:.10g}")
    if args.out is not None:
        report = ExperimentReport(
            config_echo={"command": "bound-calc", "A": args.A, "B": args.B,
                         "a": args.a, "b": args.b},
            estimates={},
            bounds={"constant": result.constant,
                    "variance_bound": result.variance_bound,
                    "envelope_ratio": result.envelope_ratio,
                    "crossover": result.crossover,
                    "crossover_step": result.crossover_step,
                    "tail_bounds": tails},
            verdicts=[],
            environment={"seed": 0, "replicates": 0, "runtime_seconds": 0.0},
        )
        write_report(report, args.out)
    return 0


def _run_experiment_command(args) -> int:
    cfg = parse_config(args.config)
    if cfg.kind != args.command:
        raise ValueError(
            f"config kind '{cfg.kind}' does not match command '{args.command}'"
        )
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if overrides:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **overrides})
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    report = run_experiment(cfg, threads=args.threads)
    write_report(report, args.out)
    failed = [v["name"] for v in report.verdicts if v["status"] == "fail"]
    print(f"report written to {args.out}")
    if failed:
        print(f"failed verdicts: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "bound-calc":
            return _run_bound_calc(args)
        if args.command == "mixing-curve":
            return _run_mixing_curve(args)
        return _run_experiment_command(args)
    except GuaranteeViolation as exc:
        print(f"hard assertion failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
