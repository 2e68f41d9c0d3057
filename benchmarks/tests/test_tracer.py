"""Self-test of the outside-in tracer.

    python3 -m pytest benchmarks/tests -q

A traced run must write the same report.json as an untraced one, apart from
``environment.runtime_seconds``, and every self time on every thread must be
non-negative.
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPECTRA = {"spectrum_M": "two_point", "spectrum_N": "uniform_grid"}
CASES = {
    "scaling-2-threads": ("scaling", {"kind": "scaling", "n_grid": [4, 6], "seed": 2,
                                      "replicates": 40, "x_grid": [0.5], **SPECTRA}, 2),
    "matrix-step-check": ("matrix", {"kind": "matrix", "n": 6, "seed": 3, "replicates": 40,
                                     "x_grid": [-0.5, 0.5], **SPECTRA, "step_check": True}, 1),
    "finite-group": ("finite-group", {"kind": "finite-group", "n": 4, "seed": 4,
                                      "replicates": 200}, 1),
    "mixing-curve-un": ("mixing-curve", None, None),
}


def cli_args(case: str, tmp_path: Path) -> list[str]:
    command, config, threads = CASES[case]
    if config is None:
        return [command, "--group", "un", "--n", "4", "--k-max", "6", "--replicates", "1000",
                "--seed", "5"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return [command, "--config", str(path), "--threads", str(threads)]


def launch(tmp_path: Path, case: str, trace_path=None) -> dict:
    tag = "traced" if trace_path else "plain"
    out = tmp_path / f"out-{tag}"
    cmd = [sys.executable, str(BENCH / "launch.py"), "--mark", str(tmp_path / f"mark-{tag}")]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    cmd += ["--", *cli_args(case, tmp_path), "--out", str(out)]
    subprocess.run(cmd, check=True, timeout=120, capture_output=True)
    report = json.loads((out / "report.json").read_text())
    report["environment"].pop("runtime_seconds")
    return report


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_report_equals_untraced(tmp_path, case):
    trace_path = tmp_path / "trace.json"
    assert launch(tmp_path, case, trace_path) == launch(tmp_path, case)
    summary = json.loads(trace_path.read_text())
    assert summary["missing"] == []
    assert summary["spans"]
    for thread, spans in summary["per_thread_self_s"].items():
        for name, self_s in spans.items():
            assert self_s >= 0.0, (thread, name)
    if case == "scaling-2-threads":
        workers = [t for t in summary["per_thread_self_s"] if t.startswith("ThreadPool")]
        assert len(workers) >= 2


def test_self_time_is_per_thread_and_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    threads = [threading.Thread(target=outer) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    summary = tracer.summary()
    assert summary["spans"]["inner"]["calls"] == 6
    assert summary["spans"]["outer"]["calls"] == 3
    assert len(summary["per_thread_self_s"]) == 3
    for spans in summary["per_thread_self_s"].values():
        assert 0.0 <= spans["outer"] < spans["inner"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
