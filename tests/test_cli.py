"""End-to-end CLI tests: parsing, dispatch, exit codes, and deterministic
report emission."""

import json

import pytest

from haarconc import experiments
from haarconc.cli import main, parse_config
from haarconc.experiments import ExperimentReport


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


MATRIX_CFG = {
    "kind": "matrix",
    "n": 4,
    "seed": 3,
    "replicates": 120,
    "x_grid": [0.0, 0.5],
    "t_grid": [0.05, 0.1],
}


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

    def test_kind_must_match_command(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        code = main(["finite-group", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 1

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

    def test_invalid_inputs(self, capsys):
        assert main(["bound-calc", "--A", "1", "--B", "3", "--a", "1", "--b", "1"]) == 1
        assert main(["bound-calc", "--A", "-1", "--B", "1", "--a", "1", "--b", "1"]) == 1


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
        assert (out_dir / "tv_curve.csv").exists()
        assert (out_dir / "tails.csv").exists()

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
        path = write_config(tmp_path, "cfg.json",
                            {**MATRIX_CFG, "replicates": 5, "step_check": True})
        monkeypatch.setattr(experiments, "rank_distance", lambda *a, **k: 7)
        code = main(["matrix", "--config", path, "--out", str(tmp_path / "hv")])
        assert code == 2
        assert "hard assertion failed" in capsys.readouterr().err


class TestMixingCurveCommand:
    def test_symmetric_group_curve(self, tmp_path, capsys):
        out_dir = tmp_path / "sn"
        code = main(["mixing-curve", "--group", "sn", "--n", "4", "--k-max", "40",
                     "--out", str(out_dir)])
        assert code == 0
        payload = load_report(out_dir)
        assert payload["bounds"]["envelope"]["b"] > 0
        lines = (out_dir / "mixing_curve.csv").read_text().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 42

    def test_unitary_group_curve(self, tmp_path, capsys):
        out_dir = tmp_path / "un"
        code = main(["mixing-curve", "--group", "un", "--n", "8", "--k-max", "32",
                     "--replicates", "2000", "--seed", "0", "--out", str(out_dir)])
        assert code == 0
        payload = load_report(out_dir)
        assert payload["estimates"]["moment_at_0"] == 64.0
        assert "PROXY" in payload["estimates"]["note"]
        assert payload["bounds"]["proxy_kappa"] > 0
        lines = (out_dir / "mixing_curve.csv").read_text().splitlines()
        assert lines[0] == "k,value,stderr"
        assert len(lines) == 34
        assert payload["environment"]["runtime_seconds"] > 0

    def test_unitary_without_fit_window(self, tmp_path, capsys):
        out_dir = tmp_path / "un_small"
        code = main(["mixing-curve", "--group", "un", "--n", "4", "--k-max", "3",
                     "--replicates", "1000", "--seed", "1", "--out", str(out_dir)])
        assert code == 0
        payload = load_report(out_dir)
        assert payload["bounds"] == {}
        assert "no usable fit window" in payload["estimates"]["note"]

    def test_replicate_floor_enforced(self, tmp_path, capsys):
        code = main(["mixing-curve", "--group", "un", "--n", "4",
                     "--replicates", "10", "--out", str(tmp_path / "x")])
        assert code == 1


class TestDeterminism:
    def test_reports_byte_identical_modulo_runtime(self, tmp_path, capsys):
        path = write_config(tmp_path, "cfg.json", MATRIX_CFG)
        dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
        assert main(["matrix", "--config", path, "--out", str(dirs[0])]) == 0
        assert main(["matrix", "--config", path, "--out", str(dirs[1])]) == 0
        assert main(["matrix", "--config", path, "--out", str(dirs[2]),
                     "--threads", "8"]) == 0
        base = report_without_runtime(dirs[0])
        assert report_without_runtime(dirs[1]) == base
        assert report_without_runtime(dirs[2]) == base
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
