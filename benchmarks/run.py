"""haarconc benchmark driver.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every invocation is a fresh child process
running the haarconc CLI from the checkout's ``src/`` (through launch.py),
with BLAS pinned to one thread.  Closed loop: the next invocation starts
when the previous one has exited.

--trace 0 measures the end-to-end metrics with tracing off: a few set-up-only
spawns, then whole invocations while the next one is expected to end within
S seconds (at least MIN_INVOCATIONS).  --trace 1 alternates untraced and
traced invocations in the same way and reports the per-layer metrics of the traced ones, with the
tracing overhead.  Every invocation's outputs go through ``outputs_ok``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import load_reference, outputs_ok  # noqa: E402
from workloads import MIXING_K_MAX, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5
MIN_INVOCATIONS = 3
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# (span, stats) reported by the traced run, as <module>.<function>.<stat>.
LAYER_STATS = (
    ("groups.sample_haar_unitary", ("calls", "self_s", "p50_us", "p99_us")),
    ("groups.sample_reflection_step", ("calls", "self_s")),
    ("groups.reflection_batch", ("self_s",)),
    ("hermitian.eigenvalues", ("calls", "self_s", "p50_us", "p99_us")),
    ("hermitian.conjugate", ("calls", "self_s", "p50_us")),
    ("hermitian.HermitianMatrix", ("calls", "self_s")),
    ("hermitian.rank_distance", ("calls", "self_s")),
    ("hermitian.sup_cdf_distance", ("self_s",)),
    ("kernel.build_exact_kernel", ("self_s", "bytes")),
    ("kernel.step_seminorm", ("calls", "self_s")),
    ("mixing.exact_tv_curve", ("self_s",)),
    ("mixing.exact_walk_law", ("self_s",)),
    ("mixing.fit_decay", ("calls", "self_s")),
    ("mixing.unitary_mixing_diagnostic", ("self_s", "bytes")),
    ("bounds.concentration_constant", ("calls", "self_s")),
    ("bounds.esd_bounds", ("calls",)),
    ("bounds.tail_bound", ("calls",)),
    ("experiments.child_rng", ("calls", "self_s")),
    ("experiments.runner", ("self_s",)),
    ("cli.write_report", ("self_s", "bytes")),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us", "bytes": "B"}
VERDICT_STATUSES = ("pass", "fail", "inconclusive")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stats in LAYER_STATS for stat in stats}
    units["experiments.runner.wall_s"] = "s"
    for status in VERDICT_STATUSES:
        units[f"experiments.verdicts.{status}"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    problems: list
    trace: dict | None = None
    verdicts: dict | None = None


class Bench:
    """One benchmark run of one workload; owns its scratch directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.start = time.monotonic()
        self.workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
        self.reference = load_reference(workload, seed)
        self.spawns = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def spawn(self, *, setup_only=False, traced=False) -> Invocation:
        self.spawns += 1
        tag = f"{self.spawns:03d}"
        out_dir = self.workdir / f"out-{tag}"
        mark = self.workdir / f"mark-{tag}"
        trace_path = self.workdir / f"trace-{tag}.json"
        cmd = [sys.executable, str(HERE / "launch.py"), "--mark", str(mark)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *self.workload.cli_args(self.seed, self.workdir, out_dir)]
        stderr_path = self.workdir / f"stderr-{tag}"
        remaining = TIME_LIMIT_S - (time.monotonic() - self.start)
        with open(stderr_path, "wb") as err:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.workdir,
                                    stdout=subprocess.DEVNULL, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], max(remaining, 0.0))
                if not exited:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            end = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = end - start
        setup = float(mark.read_text()) - start if mark.is_file() else wall
        problems = []
        if not exited:
            problems.append(f"killed after {wall:.1f} s: time limit reached")
        elif proc.returncode != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
            problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        elif not mark.is_file():
            problems.append("the experiment runner was never entered")
        elif not setup_only:
            try:
                problems += outputs_ok(self.workload.name, out_dir, self.reference)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"outputs unreadable: {exc!r}")
        inv = Invocation(wall, setup, usage.ru_maxrss / 1024.0, problems)
        if traced and trace_path.is_file():
            inv.trace = json.loads(trace_path.read_text())
        if not setup_only and (out_dir / "report.json").is_file():
            verdicts = json.loads((out_dir / "report.json").read_text())["verdicts"]
            inv.verdicts = {s: sum(v["status"] == s for v in verdicts) for s in VERDICT_STATUSES}
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv

    def measure(self, seconds: float, traced: bool) -> list[tuple[Invocation, Invocation | None]]:
        """Closed loop of invocations (untraced, plus traced when asked).

        Starts another one only while it is expected to end within
        ``seconds``, after a minimum count; stops at the first failure."""
        runs = []
        spent = last = 0.0
        minimum = 1 if traced else MIN_INVOCATIONS
        while len(runs) < minimum or spent + last <= seconds:
            plain = self.spawn()
            pair = (plain, self.spawn(traced=True) if traced else None)
            runs.append(pair)
            self.log_invocation(*pair)
            last = sum(inv.wall_s for inv in pair if inv is not None)
            spent += last
            if any(inv.problems for inv in pair if inv is not None):
                break
        return runs

    def log_invocation(self, plain: Invocation, traced: Invocation | None) -> None:
        line = f"invocation: wall {plain.wall_s:.4f} s, setup {plain.setup_s:.4f} s, " \
               f"rss {plain.peak_rss_mb:.1f} MB"
        if traced is not None:
            line += f"; traced wall {traced.wall_s:.4f} s"
        print(line)
        for inv in (plain, traced):
            for problem in inv.problems if inv is not None else ():
                print(f"  outputs_ok FAILED: {problem}")


def machine_facts(bench: Bench) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: bench.env[var] for var in BLAS_THREAD_VARS},
        "cli_threads": bench.workload.threads,
        "workload": bench.workload.name,
        "seed": bench.seed,
        "config_seed": bench.workload.config_seed(bench.seed),
    }


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}: no percentile has 10 samples beyond it"
    pct = 100.0 * (n - 10) / n
    rank = max(int(pct / 100.0 * n) - 1, 0)
    return f"n={n}: p{pct:.0f} = {sorted(values)[rank]:.4f}"


def end_to_end(bench: Bench, setups: list[Invocation], runs) -> dict:
    invs = [plain for plain, _ in runs]
    walls = [inv.wall_s for inv in invs]
    print(f"wall_s samples: {tail_note(walls)}")
    work = bench.workload.replicates
    rates = [work / (inv.wall_s - inv.setup_s) for inv in invs if inv.wall_s > inv.setup_s]
    if bench.workload.name == "un-mixing" and rates:
        print(f"walk_steps_per_s = replicates_per_s * k_max = "
              f"{statistics.median(rates) * MIXING_K_MAX:.1f}")
    ok = sum(not inv.problems for inv in invs)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median([inv.setup_s for inv in setups + invs]),
        "replicates_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": statistics.median([inv.peak_rss_mb for inv in invs]),
        "ok_share": ok / len(invs),
    }


def per_layer(runs) -> dict:
    traced = [t for _, t in runs if t is not None and t.trace is not None]
    values: dict[str, list[float]] = {name: [] for name in per_layer_units()}
    for inv in traced:
        spans = inv.trace["spans"]
        for span, stats in LAYER_STATS:
            for stat in stats:
                values[f"{span}.{stat}"].append(spans.get(span, {}).get(stat, 0))
        values["experiments.runner.wall_s"].append(inv.trace["runner_wall_s"])
        for status in VERDICT_STATUSES:
            values[f"experiments.verdicts.{status}"].append((inv.verdicts or {}).get(status, 0))
        values["trace.wall_s"].append(inv.wall_s)
    if traced and traced[0].trace["missing"]:
        print(f"trace: targets not found: {', '.join(traced[0].trace['missing'])}")
    untraced = statistics.median([plain.wall_s for plain, _ in runs])
    out = {name: statistics.median(v) if v else 0.0 for name, v in values.items()
           if name != "trace.overhead_s"}
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced if traced else 0.0
    print(f"trace: {len(traced)} traced invocations; untraced wall_s {untraced:.4f}, "
          f"traced {out['trace.wall_s']:.4f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "haarconc" / "cli.py").is_file():
        print(f"error: no haarconc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 1

    bench = Bench(args.workload, args.seed)
    try:
        print("machine: " + json.dumps(machine_facts(bench), sort_keys=True))
        if args.trace:
            runs = bench.measure(args.seconds, traced=True)
            metrics, units = per_layer(runs), per_layer_units()
        else:
            setups = [bench.spawn(setup_only=True) for _ in range(SETUP_SPAWNS)]
            for inv in setups:
                for problem in inv.problems:
                    print(f"set-up spawn FAILED: {problem}")
            runs = bench.measure(args.seconds, traced=False)
            metrics, units = end_to_end(bench, setups, runs), END_TO_END_UNITS
            runs = [(inv, None) for inv in setups] + runs
    finally:
        bench.close()
    invocations = [inv for pair in runs for inv in pair if inv is not None]
    failed = sum(bool(inv.problems) for inv in invocations)
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
