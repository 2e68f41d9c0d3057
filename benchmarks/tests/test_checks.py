"""``outputs_ok`` accepts the reference outputs and rejects perturbed ones.

    python3 -m pytest benchmarks/tests -q
"""

import copy
import csv
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import MIXING_K_MAX, MIXING_N  # noqa: E402


def test_golden_check_rejects_a_changed_status_or_estimate():
    golden = checks.load_reference("un-step-check", 16 + 3)  # config seed 3
    assert checks._check_golden(copy.deepcopy(golden), golden) == []

    flipped = copy.deepcopy(golden)
    flipped["verdicts"][0][1] = "inconclusive"
    assert checks._check_golden(flipped, golden)

    failed = copy.deepcopy(golden)
    failed["verdicts"][-1][1] = "fail"
    assert any("failed" in p for p in checks._check_golden(failed, golden))

    moved = copy.deepcopy(golden)
    key = next(iter(moved["estimates"]))
    moved["estimates"][key] += 1e-6
    assert checks._check_golden(moved, golden)

    last_bit = copy.deepcopy(golden)
    last_bit["estimates"][key] *= 1.0 + 1e-15
    assert checks._check_golden(last_bit, golden) == []


def sn_report(ref: dict) -> dict:
    rows = [{"label": label, **values,
             "constant": checks._constant(values["sup_norm"], values["step_norm"],
                                          ref["a"], ref["b"])}
            for label, values in ref["functions"].items()]
    return {
        "estimates": {"group_order": ref["group_order"], "k_star": ref["k_star"],
                      "tv_at_k_star": ref["tv_at_k_star"], "functions": rows},
        "bounds": {"envelope": {"a": ref["a"], "b": ref["b"]}},
        "verdicts": [{"name": name, "status": "pass"} for name in ref["verdicts"]],
    }


def test_sn_check_rejects_a_wrong_seminorm_or_envelope():
    ref = checks.load_reference("sn-exact", 7)
    report = sn_report(ref)
    assert checks._check_sn(report, ref) == []

    wrong_norm = copy.deepcopy(report)
    wrong_norm["estimates"]["functions"][3]["step_norm"] *= 1.0 + 1e-7
    assert checks._check_sn(wrong_norm, ref)

    wrong_rate = copy.deepcopy(report)
    wrong_rate["bounds"]["envelope"]["b"] *= 1.0 + 1e-7
    assert checks._check_sn(wrong_rate, ref)


def write_curve(path: Path, shift_k=None, shift_se=0.0) -> None:
    rho = (MIXING_N - 1) / (MIXING_N + 1)
    with open(path / "mixing_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "value", "stderr"])
        for k in range(MIXING_K_MAX + 1):
            exact = 1.0 + (MIXING_N**2 - 1) * rho ** (2 * k)
            se = 0.0 if k == 0 else 0.01
            writer.writerow([k, exact + (shift_se * se if k == shift_k else 0.0), se])


def test_mixing_check_rejects_a_point_beyond_the_z_bound(tmp_path):
    write_curve(tmp_path, shift_k=40, shift_se=4.9)
    assert checks._check_mixing(tmp_path) == []
    write_curve(tmp_path, shift_k=40, shift_se=5.1)
    assert checks._check_mixing(tmp_path)
