"""Command line interface.

Commands: matrix | finite-group | identity-suite | scaling | mixing-curve |
bound-calc.  Each command parses its arguments (a JSON config for the first
four), calls one runner from experiments, writes report.json plus flat
CSV curves into --out (bound-calc only when --out is given) and prints one
verdict summary line, "N pass / N fail / N inconclusive".  Every check,
exact or statistical, is a verdict in the report.  Exit codes, the same for
every command: 0 no verdict fails, 1 usage or config error, or a forked
worker that died or sent an error that could not be read (WorkerError),
2 a verdict failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_bound_calc,
    run_experiment,
    run_mixing_curve,
    _fmt,
    _KINDS,
)
from .workers import WorkerError


def parse_config(path, **overrides) -> ExperimentConfig:
    """Load a JSON experiment config, set the `overrides` that are not None
    in it, and validate the result."""
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        data.update((key, value) for key, value in overrides.items() if value is not None)
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

    for name in _KINDS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--replicates", type=int, default=None,
                       help="override the config replicate count")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility (>= 1); it changes neither "
                            "speed nor results")

    p = sub.add_parser("mixing-curve", help="total-variation / moment decay curves")
    p.add_argument("--group", choices=("sn", "un"), default="sn",
                   help="sn: exact S_n TV curve; un: U(n) trace moments against their exact curve")
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


def _run_mixing_curve(args) -> ExperimentReport:
    return run_mixing_curve(args.group, args.n, args.k_max, args.seed, args.replicates)


def _run_bound_calc(args) -> ExperimentReport:
    report = run_bound_calc(args.A, args.B, args.a, args.b, args.t or [])
    print(f"C = {report.bounds['constant']:.10g}")
    print(f"variance bound = {report.bounds['variance_bound']:.10g}")
    for tail in report.bounds["tail_bounds"]:
        print(f"tail bound at t={_fmt(tail['t'])}: {tail['value']:.10g}")
    return report


def _run_experiment_command(args) -> ExperimentReport:
    cfg = parse_config(args.config, seed=args.seed, replicates=args.replicates)
    if cfg.kind != args.command:
        raise ValueError(
            f"config kind '{cfg.kind}' does not match command '{args.command}'"
        )
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    return run_experiment(cfg)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if (getattr(args, "seed", None) or 0) < 0:
            raise ValueError(f"--seed must be at least 0 (got {args.seed})")
        if args.command == "bound-calc":
            report = _run_bound_calc(args)
        elif args.command == "mixing-curve":
            report = _run_mixing_curve(args)
        else:
            report = _run_experiment_command(args)
        if args.out is not None:
            write_report(report, args.out)
            print(f"report written to {args.out}")
    except (ValueError, OSError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.verdict_summary())
    if not report.has_failure():
        return 0
    failed = ", ".join(v["name"] for v in report.verdicts if v["status"] == "fail")
    print(f"failed verdicts: {failed}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
