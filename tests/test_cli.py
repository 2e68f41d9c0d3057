"""End-to-end CLI tests: parsing, dispatch, exit codes, and deterministic
report emission."""

import dataclasses
import itertools
import json
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

from haarconc import cli, experiments, kernel, mixing, workers
from haarconc.cli import main, parse_config
from haarconc.experiments import ExperimentReport

from test_bounds import OVERFLOWING_INPUTS
from test_experiments import package_env, use_workers, worker_time_limit  # noqa: F401 (fixture)
from test_mixing import exact_trace_moment


def write_config(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def load_report(out_dir) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def report_without_runtime(out_dir) -> dict:
    payload = load_report(out_dir)
    payload["environment"].pop("runtime_seconds")
    return payload


# main(argv) with the child's address space held to 1 GiB past its imports:
# prints the exit code and the peak of the memory tracemalloc traced.
BOUNDED_MAIN = """
import resource, sys, tracemalloc
from haarconc.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
tracemalloc.start()
code = main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


def bounded_main(args: list) -> tuple[int, int, str]:
    """BOUNDED_MAIN(args) in a child with one BLAS thread: its exit code,
    its traced peak in bytes, and its stderr."""
    done = subprocess.run([sys.executable, "-c", BOUNDED_MAIN, *args], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout, done.stderr[-1000:]
    code, peak = (int(word) for word in done.stdout.split())
    return code, peak, done.stderr


MATRIX_CFG = {
    "kind": "matrix",
    "n": 4,
    "seed": 3,
    "replicates": 120,
    "x_grid": [0.0, 0.5],
    "t_grid": [0.05, 0.1],
}
FINITE_GROUP_CFG = {"kind": "finite-group", "n": 4, "seed": 1, "replicates": 1500, "k_max": 80}


def plant_at(monkeypatch, name: str, index: int, change) -> None:
    """Pass the result of call `index` (from 0) of experiments.`name`
    through change(result); the other calls run as they are."""
    real, calls = getattr(experiments, name), itertools.count()

    def planted(*args, **kwargs):
        result = real(*args, **kwargs)
        return change(result) if next(calls) == index else result

    monkeypatch.setattr(experiments, name, planted)


def failed_exact_verdict(tmp_path, capsys, argv: list, config, name: str) -> dict:
    """Run one command, which must exit 2 with the exact verdict `name` as
    its one failed verdict: named on stderr, written in the report and
    counted on the summary line.  Returns that verdict as written."""
    out_dir = tmp_path / "out"
    argv = [*argv, "--config", write_config(tmp_path, "cfg.json", config)]
    assert main([*argv, "--out", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == f"failed verdicts: {name}\n"
    verdicts = load_report(out_dir)["verdicts"]
    assert [v["name"] for v in verdicts if v["status"] == "fail"] == [name]
    counts = [sum(v["status"] == s for v in verdicts) for s in ("pass", "fail", "inconclusive")]
    assert out.splitlines()[-1] == "{} pass / {} fail / {} inconclusive".format(*counts)
    verdict, = (v for v in verdicts if v["name"] == name)
    assert verdict["policy"] == "exact"
    return verdict


class TestParseConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{kind: matrix")
        with pytest.raises(ValueError, match="JSON"):
            parse_config(path)

    def test_valid_config(self, tmp_path):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        cfg = parse_config(path)
        assert cfg.kind == "matrix"
        assert cfg.n == 4


class TestArgumentHandling:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_nonexistent_config(self, tmp_path, capsys):
        code = main(["matrix", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", {**MATRIX_CFG, "color": "red"})
        assert main(["matrix", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "color" in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", [
        ("x_grid", '"t_grid": [NaN, 0.1], "x_grid": [Infinity, 0.0]'),
        ("t_grid", '"t_grid": [NaN, 0.1]'),
        ("x_grid", '"x_grid": [-Infinity]'),
        ("spectrum_M", '"spectrum_M": [NaN, 0, 0, 0, 0, 0, 0, 1]'),
        ("kappa", '"kappa": Infinity'),
    ])
    def test_non_finite_config_numbers_refused(self, tmp_path, capsys, key, text):
        # json.loads reads NaN and Infinity; a run on them used to exit 0
        # and write bare NaN tokens into report.json.
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "matrix", "n": 8, "seed": 0, "replicates": 50, ' + text + "}")
        out = tmp_path / "out"
        assert main(["matrix", "--config", str(path), "--out", str(out)]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, key, text", [
        ("matrix", {"n": 8, "x_grid": [0.1234567, 0.1234568], "t_grid": [0.05, 0.06]},
         "x_grid", "0.123457"),
        ("matrix", {"n": 8, "t_grid": [0.05, 0.05]}, "t_grid", "0.05"),
        ("scaling", {"n_grid": [8, 8]}, "n_grid", "8"),
    ])
    def test_grid_entries_that_print_alike_refused(self, tmp_path, capsys, command, body,
                                                   key, text):
        # Verdict names print grid values with %g; two entries that print
        # alike gave several verdicts one name, so a failed verdict could not
        # say which entry failed.
        path = write_config(tmp_path, "cfg.json",
                            {"kind": command, "seed": 0, "replicates": 20, **body})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}' has two entries that both print as '{text}'" in err
        assert not out.exists()

    def test_kind_must_match_command(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        code = main(["finite-group", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["mixing-curve", "--group", "un", "--n", "4", "--k-max", "2"],
        ["identity-suite", "--config", "cfg.json"],
    ])
    def test_negative_seed_refused(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, "cfg.json", {"kind": "identity-suite", "n": 3, "seed": 0})
        out = tmp_path / "out"
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
        assert "--seed must be at least 0 (got -1)" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_thread_count(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        code = main(["matrix", "--config", path, "--out", str(tmp_path / "out"),
                     "--threads", "0"])
        assert code == 1


class TestBoundCalc:
    def test_prints_constant_and_variance_bound(self, capsys):
        assert main(["bound-calc", "--A", "1", "--B", "1", "--a", "1", "--b", "1"]) == 0
        out = capsys.readouterr().out
        assert "C = 2.968271068" in out
        assert "variance bound = 1.484135534" in out

    def test_tail_lines(self, capsys):
        code = main(["bound-calc", "--A", "1", "--B", "2", "--a", "0.5",
                     "--b", "0.6931471805599453", "--t", "1.0", "--t", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C = 8" in out
        assert "tail bound at t=1:" in out
        assert "tail bound at t=2:" in out

    def test_writes_report_when_requested(self, tmp_path, capsys):
        out_dir = tmp_path / "bc"
        code = main(["bound-calc", "--A", "1", "--B", "1", "--a", "1", "--b", "1",
                     "--out", str(out_dir)])
        assert code == 0
        payload = load_report(out_dir)
        assert payload["bounds"]["constant"] == pytest.approx(2.968271067989217)
        assert payload["bounds"]["variance_bound"] == pytest.approx(1.4841355339946085)

    def test_report_environment(self, tmp_path, capsys):
        out_dir = tmp_path / "bc"
        assert main(["bound-calc", "--A", "1", "--B", "1", "--a", "1", "--b", "1",
                     "--out", str(out_dir)]) == 0
        environment = load_report(out_dir)["environment"]
        assert environment["package"].startswith("haarconc ")
        assert environment["runtime_seconds"] > 0

    def test_invalid_inputs(self, capsys):
        assert main(["bound-calc", "--A", "1", "--B", "3", "--a", "1", "--b", "1"]) == 1
        assert main(["bound-calc", "--A", "-1", "--B", "1", "--a", "1", "--b", "1"]) == 1

    @pytest.mark.parametrize("A,B,a,b", OVERFLOWING_INPUTS)
    def test_overflowing_constant_is_one_error_line(self, tmp_path, capsys, A, B, a, b):
        out = tmp_path / "bc"
        assert main(["bound-calc", "--A", repr(A), "--B", repr(B), "--a", repr(a),
                     "--b", repr(b), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: C = ")
        assert f"are not finite at A = {A!r}" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("second", ["0.1", "0.10000001"])
    def test_t_values_that_print_alike_refused(self, tmp_path, capsys, second):
        # Each t prints its tail line with %g, so two that print alike gave
        # two lines with one label.
        out = tmp_path / "bc"
        assert main(["bound-calc", "--A", "1", "--B", "0.1", "--a", "1", "--b", "0.5",
                     "--t", "0.1", "--t", second, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--t has two entries that both print as '0.1'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_nan_t_refused(self, tmp_path, capsys):
        # An infinite t would write "t": Infinity, which is not JSON.
        for t in ("nan", "inf"):
            out = tmp_path / t
            assert main(["bound-calc", "--A", "1", "--B", "1", "--a", "1", "--b", "1",
                         "--t", "0.5", "--t", t, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert f"t must be nonnegative and finite (got {t})" in captured.err
            assert captured.out == ""
            assert not out.exists()


class TestExperimentCommands:
    def test_matrix_writes_report_and_curves(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        out_dir = tmp_path / "out"
        assert main(["matrix", "--config", path, "--out", str(out_dir)]) == 0
        payload = load_report(out_dir)
        assert set(payload) == {"config_echo", "estimates", "bounds", "verdicts",
                                "environment"}
        assert payload["config_echo"]["n"] == 4
        csv_text = (out_dir / "tails.csv").read_text()
        assert csv_text.splitlines()[0] == "x,t,frequency,stderr,bound"
        assert len(csv_text.splitlines()) == 1 + 2 * 2

    def test_identity_suite_run(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json",
                            {"kind": "identity-suite", "n": 4, "seed": 7,
                             "replicates": 20})
        out_dir = tmp_path / "ids"
        assert main(["identity-suite", "--config", path, "--out", str(out_dir)]) == 0
        payload = load_report(out_dir)
        assert payload["estimates"]["max_conditional_mean_residual"] <= 1e-9
        assert payload["estimates"]["max_variance_residual"] <= 1e-9
        assert all(v["status"] == "pass" for v in payload["verdicts"])

    def test_finite_group_run(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json",
                            {"kind": "finite-group", "n": 4, "seed": 1,
                             "replicates": 1500, "k_max": 80})
        out_dir = tmp_path / "fg"
        assert main(["finite-group", "--config", path, "--out", str(out_dir)]) == 0
        payload = load_report(out_dir)
        assert payload["bounds"]["envelope"]["b"] > 0
        lines = (out_dir / "tv_curve.csv").read_text().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 80 + 2
        assert (out_dir / "tails.csv").exists()

    def test_degree_nine_refused(self, tmp_path, capsys):
        for command, degrees in (("finite-group", "3..8"), ("identity-suite", "2..8")):
            path = write_config(tmp_path, f"{command}.json",
                                {"kind": command, "n": 9, "seed": 0})
            out_dir = tmp_path / command
            assert main([command, "--config", path, "--out", str(out_dir)]) == 1
            assert f"must be in range {degrees} (got 9)" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_degree_two_refused_as_the_config_is_read(self, tmp_path, capsys, monkeypatch):
        # finite-group needs the S_n envelope, which n = 2 lacks; the
        # identity suite runs on S_2.
        def no_walk(*args):
            raise AssertionError("n = 2 reached the walk")

        path = write_config(tmp_path, "fg.json", {"kind": "finite-group", "n": 2, "seed": 0})
        out_dir = tmp_path / "fg"
        with monkeypatch.context() as patched:
            patched.setattr(experiments, "walk_operator", no_walk)
            assert main(["finite-group", "--config", path, "--out", str(out_dir)]) == 1
        assert "config key 'n' must be in range 3..8 (got 2)" in capsys.readouterr().err
        assert not out_dir.exists()
        path = write_config(tmp_path, "ids.json", {"kind": "identity-suite", "n": 2, "seed": 0})
        assert main(["identity-suite", "--config", path, "--out", str(tmp_path / "ids")]) == 0

    @pytest.mark.parametrize("n, k_max, message", [
        # The S_2 walk is uniform after one step, so its curve has no point
        # strictly between 0 and 1/2 to fit: n = 2 is refused as the config
        # is read, before the walk.
        (2, None, "config key 'n' must be in range 3..8 (got 2)"),
        (5, 4, "k_max = 4 is too short to fit the S_5 envelope: need at least 3 curve "
               "points strictly between floor and 0.5"),
        (5, 2, "k_max = 2 is too short to fit the S_5 envelope"),
    ])
    def test_walk_without_an_envelope_refused(self, n, k_max, message, tmp_path, capsys):
        out_dir = tmp_path / "fg"
        body = {"kind": "finite-group", "n": n, "seed": 0, "replicates": 100}
        if k_max is not None:
            body["k_max"] = k_max
        path = write_config(tmp_path, "cfg.json", body)
        assert main(["finite-group", "--config", path, "--out", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_matrix_size_cap_refused(self, tmp_path, capsys, monkeypatch):
        # The memory plan is the only size limit: n = 2048 does not fit even
        # at one replicate, and a grid is refused at the n that does not fit.
        def no_work(plan, work):
            raise AssertionError("an oversized config reached the replicates")

        monkeypatch.setattr(experiments.workers, "run", no_work)
        for command, body, run in (
                ("matrix", {"n": 2048, "replicates": 1}, "a matrix run of 1 replicates"),
                ("scaling", {"n_grid": [8, 4096]}, "a scaling run of 1000 replicates at n = 4096")):
            path = write_config(tmp_path, f"{command}.json",
                                {"kind": command, "seed": 0, **body})
            out_dir = tmp_path / command
            assert main([command, "--config", path, "--out", str(out_dir)]) == 1
            assert f"{run} needs an estimated" in capsys.readouterr().err
            assert not out_dir.exists()

    @pytest.mark.parametrize("command, body, estimate", [
        # 2 arrays * 8 B * 2 * 10^8 replicates * 5 x points in the workers'
        # shared memory, and one worker's chunk of 85 replicates at n = 8.
        ("matrix", {"n": 8, "replicates": 2 * 10**8}, "15,260.1 MiB"),
        ("scaling", {"n_grid": [8, 16], "replicates": 2 * 10**8}, "15,260.1 MiB"),
        # 16 B per replicate: one replicate more than fits 1 GiB.
        ("finite-group", {"n": 5, "replicates": 2**26 + 1}, "1,024.0 MiB"),
        # CURVE_POINT_BYTES per step of the curve.
        ("finite-group", {"n": 5, "k_max": 10**7}, "2,441.6 MiB"),
        # One replicate's chunk at n = 2047 (1,023.0 MiB) and the CDF arrays
        # of 20 000 replicates (1.5 MiB); a scaling grid is refused before
        # its first n runs.
        ("matrix", {"n": 2047, "replicates": 20000}, "1,024.5 MiB"),
        ("scaling", {"n_grid": [8, 2047], "replicates": 20000}, "1,024.5 MiB"),
        # IDENTITY_REPLICATE_BYTES per replicate: 20 GB of residual rows.
        ("identity-suite", {"n": 3, "replicates": 10**8}, "19,073.5 MiB"),
    ])
    def test_replicates_over_the_memory_budget_refused(self, command, body, estimate,
                                                       tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("an oversized config reached the work")

        monkeypatch.setattr(experiments.workers, "run", no_work)
        monkeypatch.setattr(experiments, "walk_operator", no_work)
        monkeypatch.setattr(experiments, "check_identities", no_work)
        use_workers(monkeypatch, 1)
        path = write_config(tmp_path, "cfg.json", {"kind": command, "seed": 0, **body})
        out_dir = tmp_path / command
        assert main([command, "--config", path, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"needs an estimated {estimate}, above the 1,024 MiB memory budget" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, body, run", [
        ("matrix", {"n": 2047}, "a matrix run of 20000 replicates needs"),
        # n = 64 fits; the message names the n that does not.
        ("scaling", {"n_grid": [64, 2047]}, "a scaling run of 20000 replicates at n = 2047 needs"),
    ])
    def test_refusal_names_the_run_over_the_budget(self, command, body, run,
                                                   tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("an oversized config reached the work")

        monkeypatch.setattr(experiments.workers, "run", no_work)
        use_workers(monkeypatch, 1)
        path = write_config(tmp_path, "cfg.json",
                            {"kind": command, "seed": 0, "replicates": 20000, **body})
        out_dir = tmp_path / command
        assert main([command, "--config", path, "--out", str(out_dir)]) == 1
        assert f"{run} an estimated 1,024.5 MiB, above the 1,024 MiB memory budget" in (
            capsys.readouterr().err)
        assert not out_dir.exists()

    def test_arrays_that_fit_beside_no_chunk_refused(self, tmp_path, capsys, monkeypatch):
        # The CDF arrays of 1000 replicates at five x points fit the budget,
        # but neither two workers' chunks nor one fit beside them.
        def no_work(*args):
            raise AssertionError("an oversized config reached the work")

        monkeypatch.setattr(experiments.workers, "run", no_work)
        use_workers(monkeypatch, 2)
        n, reps = 64, 1000
        chunk = experiments.chunk_size(n) * 16 * n * n * 16
        monkeypatch.setattr(workers, "BYTES_BUDGET", 2 * reps * 5 * 8 + chunk - 1)
        path = write_config(tmp_path, "cfg.json",
                            {"kind": "matrix", "n": n, "seed": 0, "replicates": reps})
        out_dir = tmp_path / "matrix"
        assert main(["matrix", "--config", path, "--out", str(out_dir)]) == 1
        assert "a matrix run of 1000 replicates needs an estimated" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.skipif(platform.system() != "Linux", reason="address-space limit")
    @pytest.mark.parametrize("command, args", [
        ("matrix", []),
        ("mixing-curve", ["--group", "un", "--n", "100", "--replicates", str(10**11)]),
    ])
    def test_huge_replicate_counts_refused_without_allocating(self, command, args, tmp_path):
        # 10^12 one-replicate chunks at n = 64, and 1.6 * 10^9 units of walks
        # at n = 100: the refusal is worked out from the counts, so listing
        # the items first would take gigabytes.
        if command == "matrix":
            args = ["--config", write_config(tmp_path, "cfg.json", {
                "kind": "matrix", "n": 64, "seed": 0, "replicates": 10**12})]
        out_dir = tmp_path / command
        code, peak, err = bounded_main([command, *args, "--out", str(out_dir)])
        assert code == 1
        assert "needs an estimated" in err
        assert peak < 2**22
        assert not out_dir.exists()

    def test_scaling_run(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json",
                            {"kind": "scaling", "n_grid": [4, 6], "seed": 2,
                             "replicates": 150, "x_grid": [0.5], "t_grid": [0.05]})
        out_dir = tmp_path / "sc"
        assert main(["scaling", "--config", path, "--out", str(out_dir)]) == 0
        payload = load_report(out_dir)
        assert payload["estimates"]["kappa_measured"] > 0
        assert (out_dir / "scaling.csv").exists()

    def test_seed_and_replicate_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        out_dir = tmp_path / "ovr"
        code = main(["matrix", "--config", path, "--out", str(out_dir),
                     "--seed", "99", "--replicates", "37"])
        assert code == 0
        payload = load_report(out_dir)
        assert payload["config_echo"]["seed"] == 99
        assert payload["config_echo"]["replicates"] == 37

    def test_replicate_override_applies_before_the_budget(self, tmp_path, capsys):
        # The file alone asks for 10^8 replicates, above the memory budget.
        path = write_config(tmp_path, "big.json", {**MATRIX_CFG, "replicates": 10**8})
        out_dir = tmp_path / "small"
        assert main(["matrix", "--config", path, "--out", str(out_dir),
                     "--replicates", "10"]) == 0
        assert load_report(out_dir)["config_echo"]["replicates"] == 10

    def test_seed_override_fills_a_missing_seed(self, tmp_path, capsys):
        unseeded = {key: value for key, value in MATRIX_CFG.items() if key != "seed"}
        path = write_config(tmp_path, "unseeded.json", unseeded)
        seeded, want = tmp_path / "seeded", tmp_path / "want"
        assert main(["matrix", "--config", path, "--out", str(seeded), "--seed", "3"]) == 0
        assert main(["matrix", "--config", write_config(tmp_path, "cfg.json", MATRIX_CFG),
                     "--out", str(want)]) == 0
        assert report_without_runtime(seeded) == report_without_runtime(want)
        assert main(["matrix", "--config", path, "--out", str(tmp_path / "none")]) == 1
        assert "missing required config key 'seed'" in capsys.readouterr().err

    def test_statistical_failure_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json",
                            {**MATRIX_CFG, "x_grid": [0.5], "kappa": 1e-8})
        out_dir = tmp_path / "fail"
        code = main(["matrix", "--config", path, "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "failed verdicts" in err
        assert "variance_x=0.5" in err
        # The report is still written for inspection.
        assert (out_dir / "report.json").exists()

    def test_hard_violation_exits_two(self, tmp_path, capsys, monkeypatch):
        # The step of replicate 2 of 5 (one chunk) has rank 7.
        plant_at(monkeypatch, "_certified_rank", 0,
                 lambda ranks: np.where(np.arange(len(ranks)) == 2, 7, ranks))
        verdict = failed_exact_verdict(tmp_path, capsys, ["matrix"],
                                       {**MATRIX_CFG, "replicates": 5, "step_check": True},
                                       "step_rank_le_3")
        assert verdict["observed"] == 7.0
        assert verdict["first_violation"] == {"replicate": 2}

    @pytest.mark.parametrize("argv, config, name, call, change, verdict, first", [
        # The CDF gap of replicate 3 of 5 (one chunk) is 1.
        (["matrix"], {**MATRIX_CFG, "replicates": 5, "step_check": True},
         "sup_cdf_distance", 0, lambda gaps: np.where(np.arange(len(gaps)) == 3, 1.0, gaps),
         "step_cdf_gap_le_3_over_n", {"replicate": 3}),
        # C/2 of the third function, random_1, shrinks a millionfold.
        (["finite-group"], FINITE_GROUP_CFG, "concentration_constant", 2,
         lambda result: dataclasses.replace(result, variance_bound=result.variance_bound / 1e6),
         "variance_le_half_constant", {"f": "random_1"}),
        # The eighth tail bound, random_0's at its third t, is -1.
        (["finite-group"], FINITE_GROUP_CFG, "tail_bound", 7, lambda bound: -1.0,
         "tails_le_bound", {"f": "random_0", "t": 0.2}),
        # The variance residual of function 3 grows by 1e-6.
        (["identity-suite"], {"kind": "identity-suite", "n": 3, "seed": 7, "replicates": 5},
         "check_identities", 3,
         lambda r: dataclasses.replace(r, variance_residual=r.variance_residual + 1e-6),
         "identity_residuals", {"f_index": 3}),
    ], ids=["step-gap", "finite-group-variance", "finite-group-tails", "identity-residuals"])
    def test_planted_defect_fails_its_exact_verdict(self, tmp_path, capsys, monkeypatch, argv,
                                                    config, name, call, change, verdict, first):
        plant_at(monkeypatch, name, call, change)
        written = failed_exact_verdict(tmp_path, capsys, argv, config, verdict)
        assert written["first_violation"] == first


class TestMixingCurveCommand:
    def test_report_environment(self, tmp_path, capsys):
        out_dir = tmp_path / "un"
        assert main(["mixing-curve", "--group", "un", "--n", "4", "--k-max", "2",
                     "--replicates", "1000", "--out", str(out_dir)]) == 0
        environment = load_report(out_dir)["environment"]
        assert environment["package"].startswith("haarconc ")
        assert environment["runtime_seconds"] > 0

    def test_the_unitary_walk_is_the_only_group(self, tmp_path, capsys):
        # The S_n curve is finite-group's tv_curve.csv; --group sn is refused
        # as the arguments are parsed, and the default group is un.
        out_dir = tmp_path / "sn"
        assert main(["mixing-curve", "--group", "sn", "--n", "5", "--out", str(out_dir)]) == 1
        assert "invalid choice: 'sn'" in capsys.readouterr().err
        assert not out_dir.exists()
        out_dir = tmp_path / "default"
        assert main(["mixing-curve", "--n", "4", "--k-max", "2", "--replicates", "1000",
                     "--out", str(out_dir)]) == 0
        assert load_report(out_dir)["config_echo"]["group"] == "un"
        lines = (out_dir / "mixing_curve.csv").read_text().splitlines()
        assert lines[0] == "k,value,stderr,exact"
        assert len(lines) == 2 + 2

    def test_symmetric_group_curve(self, tmp_path, capsys):
        # The S_n mixing curve is finite-group's tv_curve.csv: k = 0..k_max
        # under a k,value header, with the fitted envelope in the report.
        path = write_config(tmp_path, "sn.json",
                            {"kind": "finite-group", "n": 4, "seed": 0, "k_max": 40})
        out_dir = tmp_path / "sn"
        assert main(["finite-group", "--config", path, "--out", str(out_dir)]) == 0
        payload = load_report(out_dir)
        assert payload["bounds"]["envelope"]["b"] > 0
        lines = (out_dir / "tv_curve.csv").read_text().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 42

    def test_unitary_group_curve(self, tmp_path, capsys):
        out_dir = tmp_path / "un"
        code = main(["mixing-curve", "--group", "un", "--n", "8", "--k-max", "32",
                     "--replicates", "2000", "--seed", "0", "--out", str(out_dir)])
        assert code == 0
        payload = load_report(out_dir)
        assert payload["estimates"]["moment_at_0"] == 64.0
        assert payload["estimates"]["exact_rate"] == pytest.approx(2.0 * np.log(9.0 / 7.0),
                                                                   rel=1e-14)
        lines = (out_dir / "mixing_curve.csv").read_text().splitlines()
        assert lines[0] == "k,value,stderr,exact"
        assert len(lines) == 34
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        np.testing.assert_allclose(rows[:, 3], exact_trace_moment(8, np.arange(33)),
                                   rtol=1e-12, atol=0.0)
        assert payload["estimates"]["exact_moment_at_k_max"] == rows[-1, 3]
        z = np.abs(rows[1:, 1] - rows[1:, 3]) / rows[1:, 2]
        verdict, = payload["verdicts"]
        assert verdict["name"] == "moments_within_5se_of_exact"
        assert (verdict["status"], verdict["threshold"], verdict["policy"]) == (
            "pass", 5.0, "5se-every-k")
        assert verdict["observed"] == pytest.approx(float(np.max(z)), rel=1e-12)
        assert payload["environment"]["runtime_seconds"] > 0

    def test_unitary_walk_off_the_exact_curve_fails(self, tmp_path, capsys, monkeypatch):
        # Halving every angle phi slows the walk: its moments sit far above
        # the exact curve, by 138 standard errors at this seed.
        sample = mixing._sample_reflection_batch

        def half_angles(*args):
            u, phi = sample(*args)
            return u, phi / 2.0

        monkeypatch.setattr(mixing, "_sample_reflection_batch", half_angles)
        out_dir = tmp_path / "un"
        code = main(["mixing-curve", "--group", "un", "--n", "8", "--k-max", "32",
                     "--replicates", "2000", "--seed", "0", "--out", str(out_dir)])
        assert code == 2
        verdict, = load_report(out_dir)["verdicts"]
        assert verdict["status"] == "fail"
        assert verdict["observed"] > 5.0
        captured = capsys.readouterr()
        assert "0 pass / 1 fail / 0 inconclusive" in captured.out
        assert "failed verdicts: moments_within_5se_of_exact" in captured.err

    @pytest.mark.usefixtures("worker_time_limit")
    def test_unitary_curve_is_the_same_on_any_worker_count(self, tmp_path, capsys, monkeypatch):
        # Five walk groups of 250 walks and one of 100.
        monkeypatch.setattr(mixing, "_GROUP_BYTES", 250 * mixing._walk_bytes(8))
        curves = []
        for count in (1, 2, 3):
            forks = use_workers(monkeypatch, count)
            out_dir = tmp_path / f"un{count}"
            assert main(["mixing-curve", "--group", "un", "--n", "8", "--k-max", "20",
                         "--replicates", "1350", "--seed", "4", "--out", str(out_dir)]) == 0
            assert len(forks) == count - 1
            curves.append((out_dir / "mixing_curve.csv").read_bytes())
        assert curves[1] == curves[0]
        assert curves[2] == curves[0]

    def test_unitary_without_fit_window(self, tmp_path, capsys):
        # Three steps leave no window to fit a decay in; the exact curve
        # needs none.
        out_dir = tmp_path / "un_small"
        code = main(["mixing-curve", "--group", "un", "--n", "4", "--k-max", "3",
                     "--replicates", "1000", "--seed", "1", "--out", str(out_dir)])
        assert code == 0
        payload = load_report(out_dir)
        assert payload["bounds"] == {}
        assert payload["estimates"]["exact_moment_at_k_max"] == pytest.approx(
            float(exact_trace_moment(4, np.array(3))), rel=1e-12)
        assert [v["status"] for v in payload["verdicts"]] == ["pass"]

    @pytest.mark.parametrize("n, k_max, replicates", [
        # (k_max + 1) * CURVE_POINT_BYTES of curve rows alone: 24 GiB.
        (8, 10**8, 4000),
        # 10^7 curve points of CURVE_POINT_BYTES each: 2.4 GiB.
        (3, 10**7, 1000),
    ], ids=["walk-over-budget", "long-curve"])
    def test_oversized_walk_refused_before_the_walk(self, tmp_path, capsys, monkeypatch,
                                                    n, k_max, replicates):
        def no_work(*args):
            raise AssertionError("an oversized walk reached the work")

        monkeypatch.setattr(mixing, "_walk_group", no_work)
        out_dir = tmp_path / "un"
        code = main(["mixing-curve", "--group", "un", "--n", str(n), "--k-max", str(k_max),
                     "--replicates", str(replicates), "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"U({n}) walk of {replicates} replicates and {k_max} steps needs an estimated"
                in err)
        assert "above the 1,024 MiB memory budget" in err
        assert not out_dir.exists()

    def test_replicate_floor_enforced(self, tmp_path, capsys):
        code = main(["mixing-curve", "--group", "un", "--n", "4",
                     "--replicates", "10", "--out", str(tmp_path / "x")])
        assert code == 1


class TestSharedReportPath:
    def test_walk_operator_built_once_per_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        build = kernel.walk_operator

        def counting(n):
            calls.append(n)
            return build(n)

        for module in (kernel, experiments, mixing):
            monkeypatch.setattr(module, "walk_operator", counting, raising=False)
        path = write_config(tmp_path, "cfg.json",
                            {"kind": "finite-group", "n": 5, "seed": 0, "replicates": 500})
        assert main(["finite-group", "--config", path, "--out", str(tmp_path / "fg")]) == 0
        assert calls == [5]

    def test_finite_group_walks_the_law_once(self, tmp_path, capsys, monkeypatch):
        # The walk's floating-point fixed point: the first step whose law
        # equals the law before it.
        apply = kernel.WalkOperator.apply
        op = kernel.walk_operator(5)
        law = np.zeros(op.size)
        law[op.table.identity_index] = 1.0
        for fixed in range(1, 126):
            step = apply(op, law)
            if np.array_equal(step, law):
                break
            law = step
        assert fixed == 76
        steps = []

        def counting(op, f):
            steps.append(1)
            return apply(op, f)

        monkeypatch.setattr(kernel.WalkOperator, "apply", counting)
        path = write_config(tmp_path, "cfg.json",
                            {"kind": "finite-group", "n": 5, "seed": 0, "replicates": 500})
        assert main(["finite-group", "--config", path, "--out", str(tmp_path / "fg")]) == 0
        # The TV curve to k_max = 25 n stops at the fixed point; the law at
        # k_star comes from that pass.
        assert len(steps) == fixed

    @pytest.mark.parametrize("runner, argv", [
        ("run_bound_calc", ["bound-calc", "--A", "1", "--B", "1", "--a", "1", "--b", "1"]),
        ("run_mixing_curve", ["mixing-curve", "--n", "4"]),
        ("run_experiment", ["matrix", "--config", None]),
    ])
    def test_every_command_exits_two_on_a_failed_verdict(self, tmp_path, capsys,
                                                          monkeypatch, runner, argv):
        planted = ExperimentReport(
            {}, {}, {"constant": 1.0, "variance_bound": 0.5, "tail_bounds": []},
            [{"name": "planted", "status": "fail"}, {"name": "fine", "status": "pass"}], {},
        )
        monkeypatch.setattr(cli, runner, lambda *args: planted)
        argv = [a if a is not None else write_config(tmp_path, "cfg.json", MATRIX_CFG)
                for a in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "failed verdicts: planted\n"


# One short run of every command: (name, argv with None for the config
# path, config or None, expected exit code).
EVERY_COMMAND = [
    ("matrix", ["matrix"], {**MATRIX_CFG, "step_check": True}, 0),
    ("matrix-failing", ["matrix"], {**MATRIX_CFG, "x_grid": [0.5], "kappa": 1e-8}, 2),
    ("scaling", ["scaling"], {"kind": "scaling", "n_grid": [4, 6], "seed": 2,
                              "replicates": 150, "x_grid": [0.5], "t_grid": [0.05]}, 0),
    ("finite-group", ["finite-group"], {"kind": "finite-group", "n": 4, "seed": 1,
                                        "replicates": 1500, "k_max": 80}, 0),
    ("identity-suite", ["identity-suite"], {"kind": "identity-suite", "n": 3, "seed": 7,
                                            "replicates": 5}, 0),
    ("mixing-curve-un", ["mixing-curve", "--group", "un", "--n", "4", "--k-max", "2",
                         "--replicates", "1000"], None, 0),
    ("bound-calc", ["bound-calc", "--A", "1", "--B", "1", "--a", "1", "--b", "1"], None, 0),
]


def run_command(tmp_path, argv, config, code):
    """Run one CLI command into tmp_path / "out"; return its report."""
    if config is not None:
        argv = [*argv, "--config", write_config(tmp_path, "cfg.json", config)]
    out_dir = tmp_path / "out"
    assert main([*argv, "--out", str(out_dir)]) == code
    return load_report(out_dir)


class TestReportFacts:
    @pytest.mark.parametrize("name,argv,config,code", EVERY_COMMAND,
                             ids=[c[0] for c in EVERY_COMMAND])
    def test_prints_verdict_summary(self, tmp_path, capsys, name, argv, config, code):
        verdicts = run_command(tmp_path, argv, config, code)["verdicts"]
        counts = [sum(v["status"] == s for v in verdicts)
                  for s in ("pass", "fail", "inconclusive")]
        assert sum(counts) == len(verdicts)
        assert (code == 2) == (counts[1] > 0)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "{} pass / {} fail / {} inconclusive".format(*counts)

    @pytest.mark.parametrize("name,argv,config,code", EVERY_COMMAND,
                             ids=[c[0] for c in EVERY_COMMAND])
    def test_environment_facts(self, tmp_path, capsys, monkeypatch, name, argv, config, code):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        environment = run_command(tmp_path, argv, config, code)["environment"]
        assert set(environment) == {"package", "seed", "replicates", "runtime_seconds",
                                    "python", "numpy", "blas", "blas_threads",
                                    "usable_cpus"}
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == np.__version__
        assert environment["usable_cpus"] == workers.usable_cpus() >= 1
        assert isinstance(environment["blas"], str) and environment["blas"]
        assert environment["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                               "OMP_NUM_THREADS": "2",
                                               "MKL_NUM_THREADS": None}


@pytest.mark.usefixtures("worker_time_limit")
class TestForkedWorkers:
    # Three workers over at least three items per runner call; scaling
    # calls the matrix runner once per n.
    @pytest.mark.parametrize("argv, config, expected", [
        (["matrix"], {"kind": "matrix", "n": 8, "replicates": 300, "step_check": True}, 2),
        (["scaling"], {"kind": "scaling", "n_grid": [8, 16], "replicates": 300}, 4),
        (["mixing-curve", "--group", "un", "--n", "8", "--k-max", "10",
          "--replicates", "1000"], None, 2),
    ], ids=["matrix", "scaling", "mixing-curve-un"])
    def test_no_thread_is_alive_at_any_fork(self, argv, config, expected, tmp_path, capsys,
                                            monkeypatch):
        # Four walk groups of 250 walks at n = 8.
        monkeypatch.setattr(mixing, "_GROUP_BYTES", 250 * mixing._walk_bytes(8))
        forks = use_workers(monkeypatch, 3)
        counted_fork = os.fork

        def single_threaded_fork():
            assert threading.active_count() == 1, threading.enumerate()
            return counted_fork()

        monkeypatch.setattr(os, "fork", single_threaded_fork)
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, "cfg.json", {**config, "seed": 1})]
        else:
            argv = [*argv, "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert len(forks) == expected

    def test_dead_worker_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        # Each forked worker exits with status 137 (as when the kernel's OOM
        # killer stops it) before it claims a chunk: one error line, no
        # traceback, exit code 1 and no report.
        use_workers(monkeypatch, 3)
        counted_fork = os.fork

        def dying_fork():
            pid = counted_fork()
            if pid == 0:
                os._exit(137)
            return pid

        monkeypatch.setattr(os, "fork", dying_fork)
        path = write_config(tmp_path, "cfg.json", {"kind": "matrix", "n": 8, "seed": 1,
                                                   "replicates": 300, "step_check": True})
        assert main(["matrix", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: a worker that held no item exited with status 137\n"
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_reports_byte_identical_modulo_runtime(self, tmp_path, capsys, monkeypatch):
        # Three chunks: two runs on one worker, the second with --threads,
        # which changes nothing, then one on the three workers that three
        # usable CPUs give, the one run that forks.  The reports differ only
        # in runtime_seconds and usable_cpus.
        config = {**MATRIX_CFG, "replicates": 3 * experiments.chunk_size(MATRIX_CFG["n"])}
        path = write_config(tmp_path, "cfg.json", config)
        dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
        reports = []
        for out, extra, cpus in zip(dirs, ([], ["--threads", "8"], []), (1, 1, 3)):
            forks = use_workers(monkeypatch, cpus)
            assert main(["matrix", "--config", path, "--out", str(out), *extra]) == 0
            assert len(forks) == cpus - 1
            reports.append(report_without_runtime(out))
            reports[-1]["environment"].pop("usable_cpus")
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]
        csv_bytes = (dirs[0] / "tails.csv").read_bytes()
        assert (dirs[1] / "tails.csv").read_bytes() == csv_bytes
        assert (dirs[2] / "tails.csv").read_bytes() == csv_bytes

    def test_report_json_is_sorted_and_newline_terminated(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        out_dir = tmp_path / "fmt"
        assert main(["matrix", "--config", path, "--out", str(out_dir)]) == 0
        text = (out_dir / "report.json").read_text()
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_write_report_round_trip(self, tmp_path):
        from haarconc.cli import write_report

        report = ExperimentReport(
            {"kind": "demo"}, {"v": 1.5}, {}, [], {"seed": 0},
            curves={"curve": {"header": ["k", "value"], "rows": [[0, 1.0]]}},
        )
        write_report(report, tmp_path / "rr")
        assert load_report(tmp_path / "rr")["estimates"] == {"v": 1.5}
        assert (tmp_path / "rr" / "curve.csv").read_text() == "k,value\n0,1.0\n"
