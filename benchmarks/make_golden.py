"""Regenerate the golden outputs that ``checks.py`` compares against.

    python3 benchmarks/make_golden.py

Runs the CLI of the checkout at hand for config seeds 0 .. GOLDEN_SEEDS - 1
of the matrix workloads, and at two seeds of ``sn-exact`` (whose compared
values do not depend on the seed), and rewrites ``golden/``.  Run it only
when a change to the program is meant to change its reports, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import GOLDEN_DIR, golden_fingerprint  # noqa: E402
from workloads import GOLDEN_SEEDS, WORKLOADS  # noqa: E402


def run_report(workload, seed: int, workdir: Path) -> dict:
    out_dir = workdir / f"{workload.name}-{seed}"
    cmd = [sys.executable, "-m", "haarconc.cli", *workload.cli_args(seed, workdir, out_dir)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    return json.loads((out_dir / "report.json").read_text())


def pack_golden(prints: list[dict]) -> str:
    """One JSON document: verdict names and estimate keys once, then one
    line per seed with its statuses, observed values and estimates."""
    names = [v[0] for v in prints[0]["verdicts"]]
    keys = list(prints[0]["estimates"])
    lines = []
    for seed, fp in enumerate(prints):
        if [v[0] for v in fp["verdicts"]] != names or list(fp["estimates"]) != keys:
            raise SystemExit(f"seed {seed}: verdict names or estimate keys differ from seed 0")
        row = {"statuses": [v[1] for v in fp["verdicts"]],
               "observed": [v[2] for v in fp["verdicts"]],
               "estimates": list(fp["estimates"].values())}
        lines.append(f"  {json.dumps(str(seed))}: {json.dumps(row)}")
    return (f"{{\"verdict_names\": {json.dumps(names)},\n"
            f"\"estimate_keys\": {json.dumps(keys)},\n"
            "\"seeds\": {\n" + ",\n".join(lines) + "\n}}\n")


def sn_reference(report: dict) -> dict:
    est = report["estimates"]
    env = report["bounds"]["envelope"]
    return {
        "group_order": est["group_order"],
        "k_star": est["k_star"],
        "tv_at_k_star": est["tv_at_k_star"],
        "a": env["a"],
        "b": env["b"],
        "verdicts": [v["name"] for v in report["verdicts"]],
    }


def main() -> int:
    workdir = ROOT / ".bench_work" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for workload in WORKLOADS.values():
            if not workload.golden:
                continue
            prints = [golden_fingerprint(run_report(workload, s, workdir))
                      for s in range(GOLDEN_SEEDS)]
            path = GOLDEN_DIR / f"{workload.name}.json"
            path.write_text(pack_golden(prints))
            print(f"wrote {path}")
        sn = WORKLOADS["sn-exact"]
        refs = [sn_reference(run_report(sn, s, workdir)) for s in (0, 1)]
        if refs[0] != refs[1]:
            raise SystemExit(f"sn-exact reference depends on the seed: {refs}")
        path = GOLDEN_DIR / "sn-exact.json"
        path.write_text(json.dumps(refs[0], indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
