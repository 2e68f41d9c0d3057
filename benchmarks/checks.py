"""``outputs_ok``: the correctness check run on every benchmark invocation.

* ``un-scaling``, ``un-step-check``: no ``fail`` verdict; verdict names and
  statuses equal the golden report of the config seed; each verdict's
  observed value and the per-x means and variances match it within
  ``GOLDEN_TOL`` relative, so a last-bit change (batched LAPACK, another
  summation order) is not a failure.
* ``sn-exact``: ``k_star``, ``tv_at_k_star`` and the envelope (a, b) match
  the committed reference, and each test function's sup norm, step seminorm,
  variance and constant match values recomputed here from scratch, all within
  ``EXACT_TOL`` relative.
* ``un-mixing``: every m(k) lies within ``MIXING_Z_MAX`` standard errors of
  the exact 1 + (n^2 - 1)((n - 1)/(n + 1))^(2k); a point reported with zero
  standard error (k = 0, or a closed-form curve) must match within
  ``EXACT_TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from workloads import MIXING_K_MAX, MIXING_N, WORKLOADS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_TOL = 1e-9
EXACT_TOL = 1e-9
MIXING_Z_MAX = 5.0
# Estimate fields kept in the golden reports.
GOLDEN_ESTIMATES = ("mean", "mean_reduced", "variance", "kappa_measured", "max_rank",
                    "max_cdf_gap")
SN_FUNCTIONS = 20


def _close(value, ref, tol, floor=1.0) -> bool:
    return abs(float(value) - float(ref)) <= tol * max(floor, abs(float(ref)))


def golden_fingerprint(report: dict) -> dict:
    """The parts of a report.json that the golden check compares."""
    estimates = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in GOLDEN_ESTIMATES and isinstance(value, (int, float)):
                    estimates[f"{path}{key}"] = value
                else:
                    walk(value, f"{path}{key}.")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}{i}.")

    walk(report["estimates"], "")
    return {
        "verdicts": [[v["name"], v["status"], v["observed"]] for v in report["verdicts"]],
        "estimates": estimates,
    }


def _check_golden(got: dict, golden: dict) -> list[str]:
    problems = [f"verdict {name} failed" for name, status, _ in got["verdicts"] if status == "fail"]
    names = [v[0] for v in got["verdicts"]]
    if names != [v[0] for v in golden["verdicts"]]:
        return problems + ["verdict names differ from the golden report"]
    for (name, status, observed), (_, ref_status, ref_observed) in zip(got["verdicts"],
                                                                       golden["verdicts"]):
        if status != ref_status:
            problems.append(f"verdict {name}: status {status}, golden {ref_status}")
        if not _close(observed, ref_observed, GOLDEN_TOL):
            problems.append(f"verdict {name}: observed {observed!r}, golden {ref_observed!r}")
    if got["estimates"].keys() != golden["estimates"].keys():
        return problems + ["estimate fields differ from the golden report"]
    for key, ref in golden["estimates"].items():
        if not _close(got["estimates"][key], ref, GOLDEN_TOL):
            problems.append(f"estimate {key}: {got['estimates'][key]!r}, golden {ref!r}")
    return problems


def _child_rng(master_seed: int, label: str, index: int) -> np.random.Generator:
    # The documented seeding contract of haarconc.experiments.
    stream = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed, stream, index]))


def _lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each row, the order haarconc enumerates S_n in."""
    n = perms.shape[1]
    rank = np.zeros(len(perms), dtype=np.int64)
    for i in range(n):
        rank = rank * (n - i) + np.sum(perms[:, i + 1:] < perms[:, i:i + 1], axis=1)
    return rank


def _sn_functions(seed: int, n: int) -> dict:
    """sup, step seminorm and variance of every finite-group test function,
    computed without the program's kernel."""
    perms = np.array(list(itertools.permutations(range(n))))  # lexicographic
    # x -> (i j) o x for every transposition, each of mass 2/n^2; the lazy
    # identity step (mass 1/n) never changes f.
    actions = []
    for i, j in itertools.combinations(range(n), 2):
        t = np.arange(n)
        t[i], t[j] = j, i
        actions.append(_lehmer_ranks(t[perms]))
    counts = np.sum(perms == np.arange(n), axis=1) / n
    functions = {"default": counts - counts.mean()}
    for i in range(SN_FUNCTIONS):
        f = _child_rng(seed, "finite-f", i).standard_normal(len(perms))
        functions[f"random_{i}"] = f - f.mean()
    out = {}
    for label, f in functions.items():
        second = sum((f - f[a]) ** 2 for a in actions) * (2.0 / n**2)
        out[label] = {
            "sup_norm": float(np.max(np.abs(f))),
            "step_norm": float(np.sqrt(np.max(second))),
            "variance": float(np.var(f)),
        }
    return out


def _constant(sup_norm, step_norm, a, b) -> float:
    # C = (B^2 / b) [ (log(4 a A / B))_+ + b / (1 - e^(-b)) ]
    log_term = max(math.log(4.0 * a * sup_norm / step_norm), 0.0)
    return step_norm**2 / b * (log_term + b / (-math.expm1(-b)))


def _check_sn(report: dict, ref: dict) -> list[str]:
    problems = []
    est = report["estimates"]
    env = report["bounds"]["envelope"]
    for key, value in (("group_order", est["group_order"]), ("k_star", est["k_star"]),
                       ("tv_at_k_star", est["tv_at_k_star"]), ("a", env["a"]), ("b", env["b"])):
        if not _close(value, ref[key], EXACT_TOL, floor=0.0):
            problems.append(f"{key}: {value!r}, reference {ref[key]!r}")
    rows = {row["label"]: row for row in est["functions"]}
    if rows.keys() != ref["functions"].keys():
        return problems + ["test function labels differ from the reference"]
    for label, expect in ref["functions"].items():
        row = rows[label]
        expect = {**expect, "constant": _constant(expect["sup_norm"], expect["step_norm"],
                                                  ref["a"], ref["b"])}
        for key, value in expect.items():
            if not _close(row[key], value, EXACT_TOL, floor=0.0):
                problems.append(f"{label}.{key}: {row[key]!r}, reference {value!r}")
    for v in report["verdicts"]:
        if v["status"] != "pass":
            problems.append(f"verdict {v['name']}: {v['status']}")
    if [v["name"] for v in report["verdicts"]] != ref["verdicts"]:
        problems.append("verdict names differ from the reference")
    return problems


def _check_mixing(out_dir: Path) -> list[str]:
    n = MIXING_N
    with open(out_dir / "mixing_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["k"]) for r in rows] != list(range(MIXING_K_MAX + 1)):
        return ["mixing curve does not cover k = 0 .. k_max"]
    problems = []
    rho = (n - 1) / (n + 1)
    for r in rows:
        k, m, se = int(r["k"]), float(r["value"]), float(r["stderr"])
        exact = 1.0 + (n * n - 1) * rho ** (2 * k)
        if se > 0:
            if abs(m - exact) > MIXING_Z_MAX * se:
                problems.append(f"m({k}) = {m!r} is {(m - exact) / se:+.2f} se from {exact!r}")
        elif not _close(m, exact, EXACT_TOL):
            problems.append(f"m({k}) = {m!r}, exact {exact!r}")
    return problems


def load_reference(workload: str, seed: int):
    """What the outputs of one workload at one benchmark seed are checked against."""
    w = WORKLOADS[workload]
    if w.golden:
        golden = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
        row = golden["seeds"][str(w.config_seed(seed))]
        return {
            "verdicts": [list(v) for v in zip(golden["verdict_names"], row["statuses"],
                                              row["observed"])],
            "estimates": dict(zip(golden["estimate_keys"], row["estimates"])),
        }
    if workload == "sn-exact":
        ref = json.loads((GOLDEN_DIR / "sn-exact.json").read_text())
        ref["functions"] = _sn_functions(w.config_seed(seed), w.config["n"])
        return ref
    return None


def outputs_ok(workload: str, out_dir: Path, reference) -> list[str]:
    """Problems found in one invocation's outputs; empty when they are correct."""
    if workload == "un-mixing":
        return _check_mixing(out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    if workload == "sn-exact":
        return _check_sn(report, reference)
    return _check_golden(golden_fingerprint(report), reference)
