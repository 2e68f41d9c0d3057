"""Tests for experiment configs, pipelines, exact verdicts, and
reproducibility of the reports."""

import contextlib
import copy
import errno
import json
import math
import mmap
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haarconc
from haarconc import experiments
from haarconc.experiments import (
    ExperimentConfig,
    ExperimentReport,
    child_rng,
    resolve_spectrum,
    run_experiment,
    sample_spectral_cdfs,
)
from haarconc import groups, hermitian, kernel, workers
from haarconc.cli import write_report
from haarconc.groups import reflection_matrices, sample_haar_unitary, sample_reflection_step
from haarconc.hermitian import (
    _hermitian_rank,
    cdf_counts,
    conjugate_stack,
    hermitian_parts,
    sup_cdf_distance,
)

from test_kernel import reference_apply, reference_differences

REPORT_KEYS = {"config_echo", "estimates", "bounds", "verdicts", "environment"}


def matrix_config(**overrides) -> ExperimentConfig:
    data = {"kind": "matrix", "n": 8, "replicates": 100, "seed": 1}
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def strip_runtime(report: ExperimentReport) -> dict:
    payload = copy.deepcopy(report.to_json_dict())
    payload["environment"].pop("runtime_seconds")
    return payload


class TestChildRng:
    def test_deterministic(self):
        a = child_rng(7, "matrix", 3).standard_normal(4)
        b = child_rng(7, "matrix", 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        base = child_rng(7, "matrix", 3).standard_normal(4)
        for seed, label, index in ((8, "matrix", 3), (7, "other", 3), (7, "matrix", 4)):
            other = child_rng(seed, label, index).standard_normal(4)
            assert not np.array_equal(base, other)


class TestResolveSpectrum:
    def test_two_point_balanced(self):
        assert np.array_equal(resolve_spectrum("two_point", 6),
                              np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]))

    def test_uniform_grid_endpoints(self):
        grid = resolve_spectrum("uniform_grid", 5)
        assert grid[0] == -1.0 and grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 0.5)

    def test_zero(self):
        assert np.array_equal(resolve_spectrum("zero", 4), np.zeros(4))

    def test_explicit_list_length_checked(self):
        with pytest.raises(ValueError):
            resolve_spectrum([1.0, 2.0], 3)

    @pytest.mark.parametrize("source, n, columns", [
        # A trailing run of r >= 2 equal values leaves n - r columns to factor.
        ("two_point", 8, 4),
        ("two_point", 7, 3),
        ("uniform_grid", 8, 8),
        ("zero", 5, 0),
        ([0.0, 1.0, 1.0], 3, 1),
        ([1.0, 1.0, 0.0], 3, 3),
        ([2.0, 2.0, 2.0], 3, 0),
    ])
    def test_factored_columns(self, source, n, columns):
        assert experiments._factored_columns(resolve_spectrum(source, n)) == columns


class TestConfigValidation:
    def test_minimal_matrix_defaults(self):
        cfg = matrix_config()
        assert cfg.spectrum_M == "two_point"
        assert cfg.spectrum_N == "two_point"
        assert cfg.x_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert cfg.t_grid == (0.005, 0.01, 0.02, 0.05, 0.1)
        assert cfg.kappa == 1.0
        assert cfg.step_check is False

    def test_default_replicates_by_kind(self):
        cfg = ExperimentConfig.from_dict({"kind": "identity-suite", "n": 3, "seed": 0})
        assert cfg.replicates == 50
        cfg = ExperimentConfig.from_dict({"kind": "finite-group", "n": 4, "seed": 0})
        assert cfg.replicates == 10000
        assert cfg.k_max == 100
        assert cfg.t_grid == (0.05, 0.1, 0.2, 0.4, 0.8)

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="walk_speed"):
            ExperimentConfig.from_dict(
                {"kind": "matrix", "n": 4, "seed": 0, "walk_speed": 2}
            )

    def test_inapplicable_key_named(self):
        with pytest.raises(ValueError, match="k_max"):
            ExperimentConfig.from_dict({"kind": "matrix", "n": 4, "seed": 0, "k_max": 10})

    def test_spectrum_length_mismatch_names_key(self):
        with pytest.raises(ValueError, match="spectrum_M"):
            ExperimentConfig.from_dict(
                {"kind": "matrix", "n": 4, "seed": 0, "spectrum_M": [1.0, -1.0]}
            )

    def test_missing_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_dict({"kind": "matrix", "n": 4})

    def test_missing_n(self):
        with pytest.raises(ValueError, match="'n'"):
            ExperimentConfig.from_dict({"kind": "matrix", "seed": 0})

    def test_scaling_requires_grid_and_generators(self):
        with pytest.raises(ValueError, match="n_grid"):
            ExperimentConfig.from_dict({"kind": "scaling", "seed": 0})
        with pytest.raises(ValueError, match="spectrum_N"):
            ExperimentConfig.from_dict(
                {"kind": "scaling", "n_grid": [4, 8], "seed": 0,
                 "spectrum_N": [1.0, -1.0, 1.0, -1.0]}
            )

    def test_degree_caps(self):
        for kind in ("finite-group", "identity-suite"):
            assert ExperimentConfig.from_dict({"kind": kind, "n": 8, "seed": 0}).n == 8
            with pytest.raises(ValueError):
                ExperimentConfig.from_dict({"kind": kind, "n": 9, "seed": 0})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"kind": "matrix", "n": 1, "seed": 0})

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {"kind": "matrix", "n": 4, "seed": 0, "replicates": True}
            )

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            matrix_config(kappa=0.0)

    @pytest.mark.parametrize("key, value", [
        ("x_grid", [math.inf, 0.0]),
        ("t_grid", [math.nan, 0.1]),
        ("spectrum_N", [0.0] * 7 + [-math.inf]),
        ("kappa", math.inf),
        ("kappa", math.nan),
    ])
    def test_non_finite_numbers_refused(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            matrix_config(**{key: value})
        if key in ("x_grid", "t_grid", "kappa"):
            with pytest.raises(ValueError, match=f"config key '{key}'"):
                ExperimentConfig.from_dict(
                    {"kind": "scaling", "n_grid": [4], "seed": 0, key: value})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig.from_dict({"kind": "quantum", "n": 4, "seed": 0})

    def test_to_dict_covers_all_allowed_keys(self):
        cfg = matrix_config()
        assert set(cfg.to_dict()) == {
            "kind", "n", "spectrum_M", "spectrum_N", "x_grid",
            "replicates", "seed", "kappa", "t_grid", "step_check",
        }

    def test_readme_key_table_is_the_config_table(self):
        # The README's "Config keys by kind": a row per key or keys, a
        # column per kind, "-" where the kind refuses the key.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Config keys by kind", 1)[1].split("\n\n", 2)[1]
        header, _, *rows = ([cell.strip() for cell in line.strip("|").split("|")]
                            for line in table.splitlines())
        refused = {key: {kind for kind, cell in zip(header[1:], cells) if cell == "-"}
                   for first, *cells in rows for key in re.findall(r"`(\w+)`", first)}
        assert refused == {
            key: {kind for kind, cell in zip(experiments._KINDS, row) if cell == experiments.ABSENT}
            for key, row in experiments._KEYS.items()}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_canonical(self, data):
        kind = data.draw(st.sampled_from(
            ["matrix", "finite-group", "identity-suite", "scaling"]))
        raw = {"kind": kind, "seed": data.draw(st.integers(0, 2**32))}
        if kind == "scaling":
            raw["n_grid"] = data.draw(
                st.lists(st.integers(2, 32), min_size=1, max_size=3, unique=True))
        else:
            low, cap = {"matrix": (2, 64), "finite-group": (3, 8), "identity-suite": (2, 8)}[kind]
            raw["n"] = data.draw(st.integers(low, cap))
        if data.draw(st.booleans()):
            raw["replicates"] = data.draw(st.integers(1, 500))
        if kind in ("matrix", "scaling") and data.draw(st.booleans()):
            raw["spectrum_M"] = data.draw(st.sampled_from(
                ["two_point", "uniform_grid", "zero"]))
        cfg = ExperimentConfig.from_dict(raw)
        canonical = cfg.to_dict()
        again = ExperimentConfig.from_dict(canonical)
        assert again == cfg
        assert again.to_dict() == canonical


class TestEstimateVerdict:
    """The one 4-standard-error rule, at exactly representable values:
    se = 0.25, so 4 se = 1."""

    @staticmethod
    def status(observed, threshold, policy, conclusive=True) -> str:
        verdict = experiments._estimate_verdict("v", observed, 0.25, threshold, policy,
                                                conclusive)
        assert verdict["policy"] == policy and verdict["stderr"] == 0.25
        return verdict["status"]

    def test_upper_confidence_bands(self):
        policy = "4se-upper-confidence"
        assert self.status(1.0, 2.0, policy) == "pass"  # observed + 4 se = threshold
        assert self.status(np.nextafter(1.0, 0.0), 2.0, policy) == "pass"
        assert self.status(2.0, 2.0, policy) == "inconclusive"
        assert self.status(3.0, 2.0, policy) == "inconclusive"  # observed - 4 se = threshold
        assert self.status(np.nextafter(3.0, 4.0), 2.0, policy) == "fail"

    def test_allowance_bands(self):
        policy = "4se-allowance"
        assert self.status(0.0, 2.0, policy) == "pass"
        assert self.status(3.0, 2.0, policy) == "pass"  # observed = threshold + 4 se
        assert self.status(np.nextafter(3.0, 4.0), 2.0, policy) == "fail"

    @pytest.mark.parametrize("policy", ["4se-allowance", "4se-upper-confidence"])
    def test_inconclusive_when_the_sample_cannot_decide(self, policy):
        for observed in (0.0, 10.0):
            assert self.status(observed, 2.0, policy, conclusive=False) == "inconclusive"


class TestMatrixExperiment:
    def test_zero_matrices_are_deterministic(self):
        cfg = matrix_config(n=4, replicates=600, spectrum_M="zero", spectrum_N="zero",
                            x_grid=[-0.5, 0.0, 0.5])
        report = run_experiment(cfg)
        for row in report.estimates["per_x"]:
            assert row["variance"] == 0.0
            expected = 0.0 if row["x"] < 0 else 1.0
            assert row["mean"] == expected
            assert row["mean_reduced"] == expected
        assert not report.has_failure()

    def test_report_structure_and_verdicts(self):
        cfg = matrix_config(replicates=600)
        report = run_experiment(cfg)
        assert set(report.to_json_dict()) == REPORT_KEYS
        assert report.config_echo == cfg.to_dict()
        n_x, n_t = len(cfg.x_grid), len(cfg.t_grid)
        assert len(report.estimates["per_x"]) == n_x
        assert len(report.curves["tails"]["rows"]) == n_x * n_t
        names = {v["name"] for v in report.verdicts}
        assert "variance_x=0" in names
        assert "form_agreement_x=0" in names
        assert f"tail_x=0_t={cfg.t_grid[0]:g}" in names
        assert not report.has_failure()
        assert not report.estimates["tail_resolution_warning"]
        for v in report.verdicts:
            if v["name"].startswith("variance_"):
                assert v["status"] == "pass"

    def test_variance_well_below_reference_bound(self):
        cfg = matrix_config(replicates=600)
        report = run_experiment(cfg)
        bound = report.bounds["variance_bound"]
        assert bound == pytest.approx(math.log(8.0) / 8.0, rel=1e-12)
        for row in report.estimates["per_x"]:
            assert row["variance"] <= bound

    def test_small_replicates_mark_tails_inconclusive(self):
        cfg = matrix_config(replicates=50)
        report = run_experiment(cfg)
        assert report.estimates["tail_resolution_warning"]
        tail_status = {v["status"] for v in report.verdicts if v["name"].startswith("tail_")}
        assert tail_status == {"inconclusive"}
        assert not report.has_failure()


class TestReflectionStepExperiment:
    # The reflection step check is part of the matrix replicate pass.

    def test_requires_step_check(self):
        cfg = matrix_config()
        assert sample_spectral_cdfs(cfg, cfg.n)[2] is None
        report = run_experiment(cfg)
        assert "step_check" not in report.estimates
        assert "step_check" not in report.bounds
        assert not any(v["name"].startswith("step_") for v in report.verdicts)

    def test_hard_guarantees_hold(self):
        for n in (4, 8):
            cfg = matrix_config(n=n, replicates=150, step_check=True)
            report = run_experiment(cfg)
            step = report.estimates["step_check"]
            assert step["max_rank"] <= 3
            assert step["max_cdf_gap"] <= 3.0 / n + 1e-12
            # One reflection moves W by a trace-zero rank-2 matrix with one
            # positive and one negative eigenvalue, so the counting function
            # moves by exactly one wherever the spectra differ.
            assert step["max_rank"] == 2
            assert step["max_cdf_gap"] == 1.0 / n
            assert report.bounds["step_check"] == {"rank_limit": 3,
                                                   "cdf_gap_limit": 3.0 / n + 1e-12}
            assert [v["name"] for v in report.verdicts[-2:]] == [
                "step_rank_le_3", "step_cdf_gap_le_3_over_n"]
            assert {v["status"] for v in report.verdicts[-2:]} == {"pass"}
            assert not any("first_violation" in v for v in report.verdicts)

    # One chunk of four replicates, whose rank or gap is planted at
    # replicates 1 and 3 only: the verdict fails and names replicate 1.

    def test_rank_violation_fails_the_verdict(self, monkeypatch):
        cfg = matrix_config(n=4, replicates=4, step_check=True)
        real = experiments._certified_rank
        monkeypatch.setattr(experiments, "_certified_rank",
                            lambda d, u: np.where(np.arange(len(d)) % 2, 5, real(d, u)))
        report = run_experiment(cfg)
        rank, gap = report.verdicts[-2:]
        assert rank == {"name": "step_rank_le_3", "status": "fail", "observed": 5.0,
                        "threshold": 3.0, "policy": "exact",
                        "first_violation": {"replicate": 1}}
        assert gap["status"] == "pass" and "first_violation" not in gap
        assert report.has_failure()

    def test_gap_violation_fails_the_verdict(self, monkeypatch):
        cfg = matrix_config(n=4, replicates=4, step_check=True)
        real = experiments.sup_cdf_distance
        monkeypatch.setattr(experiments, "sup_cdf_distance",
                            lambda a, b: np.where(np.arange(len(a)) % 2, 1.0, real(a, b)))
        report = run_experiment(cfg)
        rank, gap = report.verdicts[-2:]
        assert gap == {"name": "step_cdf_gap_le_3_over_n", "status": "fail", "observed": 1.0,
                       "threshold": 0.75 + 1e-12, "policy": "exact",
                       "first_violation": {"replicate": 1}}
        assert rank["status"] == "pass" and "first_violation" not in rank
        assert report.has_failure()

    def test_reflection_checked_unitary_from_its_parameters(self, monkeypatch):
        # A reflection whose c is 1.001 times its own misses unitarity by
        # about 1e-3 |c|^2 max|u_i|^2, and the run stops on the check.
        real = groups.reflector_defects
        monkeypatch.setattr(groups, "reflector_defects", lambda u, c: real(u, 1.001 * c))
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        with pytest.raises(ValueError, match=r"matrix is not unitary \(slice 0\): defect"):
            run_experiment(matrix_config(n=8, replicates=3, step_check=True))

    def test_merged_into_matrix_report(self):
        cfg = matrix_config(n=4, replicates=60, step_check=True)
        report = run_experiment(cfg)
        assert "step_check" in report.estimates
        names = {v["name"] for v in report.verdicts}
        assert "step_rank_le_3" in names
        assert "step_cdf_gap_le_3_over_n" in names
        assert report.environment["runtime_seconds"] > 0


def conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """U M U* of one whole unitary and one matrix, hermitised."""
    return hermitian_parts(u @ m @ u.conj().T)


def oracle_cdfs(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The per-replicate loop of the matrix runner, one matrix at a time."""
    n = cfg.n
    xs = np.asarray(cfg.x_grid)
    diag_m = np.diag(resolve_spectrum(cfg.spectrum_M, n)).astype(complex)
    diag_n = np.diag(resolve_spectrum(cfg.spectrum_N, n)).astype(complex)
    f_def, f_red = [], []
    for r in range(cfg.replicates):
        rng = child_rng(cfg.seed, "matrix", r)
        u = sample_haar_unitary(n, rng)
        v = sample_haar_unitary(n, rng)
        x = sample_haar_unitary(n, rng)
        h = hermitian_parts(conjugate(u, diag_m) + conjugate(v, diag_n))
        h_red = hermitian_parts(conjugate(x, diag_m) + diag_n)
        f_def.append(cdf_counts(np.linalg.eigvalsh(h), xs) / n)
        f_red.append(cdf_counts(np.linalg.eigvalsh(h_red), xs) / n)
    return np.array(f_def), np.array(f_red)


def svd_rank(a: np.ndarray, tol: float = 1e-8) -> int:
    """Singular values of A above tol * max(sigma_max, 1), from an SVD."""
    sing = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(sing > tol * max(float(sing.max()), 1.0)))


def oracle_steps(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rank (from an SVD) and CDF gap of every reflection step, one matrix at
    a time: replicate r draws U, V, X and then one reflection from
    child_rng(seed, "matrix", r), and the step moves X M X* + N."""
    n = cfg.n
    diag_m = np.diag(resolve_spectrum(cfg.spectrum_M, n)).astype(complex)
    diag_n = np.diag(resolve_spectrum(cfg.spectrum_N, n)).astype(complex)
    ranks, gaps = [], []
    for r in range(cfg.replicates):
        rng = child_rng(cfg.seed, "matrix", r)
        for _ in range(3):
            x = sample_haar_unitary(n, rng)
        y = reflection_matrices(*sample_reflection_step(n, rng))
        w = conjugate(x, diag_m)
        h = hermitian_parts(w + diag_n)
        h_prime = hermitian_parts(conjugate(y, w) + diag_n)
        ranks.append(svd_rank(h - h_prime))
        gaps.append(sup_cdf_distance(np.linalg.eigvalsh(h), np.linalg.eigvalsh(h_prime)))
    return np.array(ranks), np.array(gaps)


def boundary_counts(n: int) -> list[int]:
    """One replicate, and one short of and one past a chunk."""
    chunk = experiments.chunk_size(n)
    return sorted({1, chunk - 1, chunk + 1} - {0})


class TestChunkedEngine:
    # Replicate r's draws do not depend on the replicate count, so the
    # oracle run for the largest count serves every smaller one as a prefix.

    def test_chunk_sizes_follow_the_byte_budget(self):
        assert [experiments.chunk_size(n) for n in (8, 16, 32, 64, 128)] == [85, 21, 5, 1, 1]

    @pytest.mark.parametrize("n, spectrum_N", [
        *(pytest.param(n, "uniform_grid", id=str(n)) for n in (2, 7, 16, 64)),
        # A two_point N is factored through its first n // 2 columns (whole
        # at n = 2), a trailing_run N through those before its run of 0.3;
        # at n = 2 that run is all of N, so N = 0.3 I and no QR runs.
        *(pytest.param(n, spectrum, id=f"{n}-{spectrum}")
          for n in (2, 7, 16, 64) for spectrum in ("two_point", "trailing_run")),
    ])
    def test_cdf_values_equal_per_replicate_loop(self, n, spectrum_N):
        if spectrum_N == "trailing_run":
            run = max(2, n // 3)
            spectrum_N = [-1.0 + i / n for i in range(n - run)] + [0.3] * run
        counts = boundary_counts(n)
        common = {"n": n, "seed": n, "spectrum_N": spectrum_N,
                  "x_grid": [-0.5, 0.0, 0.25, 0.5]}
        want_def, want_red = oracle_cdfs(matrix_config(replicates=counts[-1], **common))
        for reps in counts:
            # The reflection drawn after X leaves U, V and X as they were.
            for step_check in (False, True):
                f_def, f_red, _ = sample_spectral_cdfs(
                    matrix_config(replicates=reps, step_check=step_check, **common), n)
                assert np.array_equal(f_def, want_def[:reps])
                assert np.array_equal(f_red, want_red[:reps])

    @pytest.mark.parametrize("n", [2, 7, 16, 64])
    def test_step_extremes_equal_per_replicate_loop(self, n):
        counts = boundary_counts(n)
        common = {"n": n, "seed": n, "spectrum_N": "uniform_grid", "step_check": True}
        want_ranks, want_gaps = oracle_steps(matrix_config(replicates=counts[-1], **common))
        for reps in counts:
            cfg = matrix_config(replicates=reps, **common)
            _, _, (ranks, gaps) = sample_spectral_cdfs(cfg, cfg.n)
            assert np.array_equal(ranks, want_ranks[:reps])
            assert np.array_equal(gaps, want_gaps[:reps])
            step = run_experiment(cfg).estimates["step_check"]
            assert step["max_rank"] == max(want_ranks[:reps])
            assert step["max_cdf_gap"] == max(want_gaps[:reps])

    @pytest.mark.usefixtures("worker_time_limit")
    def test_violation_names_the_global_replicate(self, monkeypatch):
        # Defects in the second and third chunks: the verdict names the
        # first, by its index in the run, on any worker count.
        n = 7
        chunk = experiments.chunk_size(n)
        target = chunk + 2
        plant_step_defects(monkeypatch, [target, 2 * chunk + 1])
        cfg = matrix_config(n=n, replicates=2 * chunk + 5, step_check=True)
        for count in (1, 2, 3):
            forks = use_workers(monkeypatch, count)
            rank = run_experiment(cfg).verdicts[-2]
            assert len(forks) == count - 1
            assert rank["name"] == "step_rank_le_3"
            assert rank["status"] == "fail"
            assert rank["first_violation"] == {"replicate": target}

    def test_step_check_reuses_the_replicate_draws(self, monkeypatch):
        # One generator per replicate and one Haar stack per factor and
        # chunk, step check included; the rank comes from eigvalsh, not SVD,
        # and the reflection is never built as a dense matrix.
        # The counters live in this process, so the run takes one worker.
        n, reps = 16, 50
        chunks = -(-reps // experiments.chunk_size(n))
        calls = {"child_rng": 0, "haar_unitaries": 0}

        def counted(name):
            real = getattr(experiments, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        def no_svd(*args, **kwargs):
            raise AssertionError("the step check ran an SVD")

        def no_dense_step(*args, **kwargs):
            raise AssertionError("the step check built Y as a matrix")

        for name in calls:
            monkeypatch.setattr(experiments, name, counted(name))
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(groups, "reflection_matrices", no_dense_step)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        report = run_experiment(matrix_config(n=n, replicates=reps, step_check=True))
        assert report.estimates["step_check"]["replicates"] == reps
        assert calls == {"child_rng": reps, "haar_unitaries": 3 * chunks}

    def test_step_ranks_equal_the_rehermitised_path(self, monkeypatch):
        # The dense path: Y built by reflection_matrices, Y W Y* from two
        # products, H and H' hermitised again and H - H' ranked by eigvalsh.
        # The reflector path's certified ranks must equal its ranks.
        real = experiments._check_steps
        expected = []

        def check_both_paths(h_red, eig_red, w, u, phi, diag_n):
            h_prime = conjugate_stack(reflection_matrices(u, phi), w) + diag_n
            expected.append(_hermitian_rank(hermitian_parts(h_red) - hermitian_parts(h_prime)))
            return real(h_red, eig_red, w, u, phi, diag_n)

        monkeypatch.setattr(experiments, "_check_steps", check_both_paths)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        for n in (2, 7, 16):
            expected.clear()
            cfg = matrix_config(n=n, replicates=2 * experiments.chunk_size(n) + 1,
                                spectrum_N="uniform_grid", step_check=True)
            _, _, (ranks, _) = sample_spectral_cdfs(cfg, cfg.n)
            assert np.array_equal(ranks, np.concatenate(expected))

    def test_step_check_hermitises_each_product_once(self, monkeypatch):
        # U M U*, V N V*, X M X* and Y W Y* (reflect_stack): four per chunk,
        # none for the rank of H - H'.
        n, reps = 16, 50
        chunks = -(-reps // experiments.chunk_size(n))
        real = hermitian.hermitian_parts
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(hermitian, "hermitian_parts", counted)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        sample_spectral_cdfs(matrix_config(n=n, replicates=reps, step_check=True), n)
        assert calls[0] == 4 * chunks


def on_each_item(monkeypatch, before) -> None:
    """Call before(item) ahead of each item of every workers.run, in the
    worker process that runs the item."""
    real_run = workers.run

    def run(plan, work):
        def each(item, out):
            before(item)
            work(item, out)
        return real_run(plan, each)

    monkeypatch.setattr(workers, "run", run)


def plant_step_defects(monkeypatch, targets) -> None:
    """Give each target replicate a step by a Haar unitary V in place of its
    reflection, so H' = V W V* + N and H - H' has full rank, which the rank
    certificate cannot certify.  The plant replaces the reflected stack of
    a chunk, keyed on the chunk's replicates, so it fires in whichever
    worker process runs the replicate."""
    held, real = [], experiments.reflect_stack

    def planted(u, c, w):
        h = real(u, c, w)
        for i, r in enumerate(held[-1]):
            if r in targets:
                v = sample_haar_unitary(u.shape[-1], np.random.default_rng(r))
                h[i] = conjugate_stack(v, w[i])
        return h

    on_each_item(monkeypatch, held.append)
    monkeypatch.setattr(experiments, "reflect_stack", planted)


class Unrebuildable(Exception):
    """Pickles, but cannot be unpickled: its args do not fit __init__."""

    def __init__(self, first, second):
        super().__init__(first)


class LoggedOnPickling(Exception):
    """An item's failure that logs the item's range when a child pickles
    it, which it does only after its failed item has set the failure flag.
    Its args are the log's path and the range."""

    def __reduce__(self):
        record_range(*self.args)
        return type(self), self.args


def use_workers(monkeypatch, count: int) -> list:
    """Let runs use `count` worker processes, with one BLAS thread each;
    returns the list that each os.fork call of the run appends to."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(True)
        return real_fork()

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(workers, "usable_cpus", lambda: count)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def record_range(path, items: range) -> None:
    """Append `items` to the log at `path` as one line, in one os.write on an
    O_APPEND descriptor, so the lines of forked workers do not interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
    try:
        os.write(fd, f"{items.start} {items.stop}\n".encode())
    finally:
        os.close(fd)


def recorded_items(path) -> list:
    """Every item of every range that record_range logged at `path`, sorted."""
    items = []
    for line in path.read_text().splitlines():
        lo, hi = map(int, line.split())
        items.extend(range(lo, hi))
    return sorted(items)


def recorded_ranges(path) -> list:
    """The ranges that record_range logged at `path`, in the order logged."""
    if not path.exists():
        return []
    return [range(*map(int, line.split())) for line in path.read_text().splitlines()]


def wait_for_a_child(log, parent: int) -> None:
    """In the process `parent`, wait until a forked worker has logged an item
    at `log` with record_range; elsewhere return at once.  A parent that
    waits so on its first item leaves at least one item to a child,
    whichever worker claims first."""
    deadline = time.monotonic() + 30
    while os.getpid() == parent and not recorded_ranges(log):
        if time.monotonic() > deadline:
            raise TimeoutError("no forked worker claimed an item within 30 s")
        time.sleep(0.001)


# A run of two workers over 600 items of 0.2 s each, whose items log the pid
# of the worker that runs them to the file named by the first argument.
SLOW_RUN = """
import os, sys, time
import numpy as np
from haarconc import workers

def work(rows, out):
    fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
    try:
        os.write(fd, f"{os.getpid()}\\n".encode())
    finally:
        os.close(fd)
    time.sleep(0.2)

workers.run(workers.Plan(workers.ranges(600, 1), 2, [((600,), np.float64)], 0), work)
"""


# A run of two workers over two items, whose child sleeps for good in its
# item, and an alarm that raises TimeoutError in the parent after 0.5 s,
# while it holds its own item (first argument "claims") or waits for the
# child ("wait").  Prints the seconds from the alarm until run raised, 1 if
# the child held its item by then, and "reaped" if no child is left.
HUNG_CHILD = """
import mmap, os, signal, sys, time
import numpy as np
from haarconc import workers

parent, held = os.getpid(), mmap.mmap(-1, 1)

def work(rows, out):
    if os.getpid() != parent:
        held[0] = 1
        while True:
            time.sleep(1)
    while not held[0] or sys.argv[1] == "claims":
        time.sleep(0.001)

def expire(signum, frame):
    raise TimeoutError("alarm")

signal.signal(signal.SIGALRM, expire)
start = time.monotonic()
signal.setitimer(signal.ITIMER_REAL, 0.5)
try:
    workers.run(workers.Plan(workers.ranges(2, 1), 2, [((2,), np.float64)], 0), work)
except TimeoutError:
    print(time.monotonic() - start - 0.5, held[0])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("reaped")
"""


def package_env() -> dict:
    """The environment of a child Python that imports this checkout's
    package, with one BLAS thread, so that it starts no thread before it
    forks."""
    src = str(Path(haarconc.__file__).resolve().parents[1])
    env = dict(os.environ, **{var: "1" for var in workers.BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def logged_pids(path) -> set:
    """The pids that SLOW_RUN's items logged at `path`."""
    return set(map(int, path.read_text().split())) if path.exists() else set()


def is_running(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.fixture
def worker_time_limit():
    """Fail a test whose worker processes run past 60 s: the alarm's
    TimeoutError fails the run, which kills its children that are left
    workers.GRACE_SECONDS later."""
    def expire(signum, frame):
        raise TimeoutError("the worker processes did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("worker_time_limit")
class TestWorkerProcesses:
    # Each worker claims the next unclaimed chunk until none is left, so
    # which worker runs a chunk is up to the scheduler; a test that needs a
    # child to run one holds the parent with wait_for_a_child.

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_results_equal_across_worker_counts(self, n, monkeypatch):
        chunk = experiments.chunk_size(n)
        cfg = matrix_config(n=n, seed=n, replicates=2 * chunk + 5 if chunk > 1 else 7,
                            spectrum_N="uniform_grid", x_grid=[-0.5, 0.0, 0.25, 0.5],
                            step_check=True)
        chunks = -(-cfg.replicates // chunk)
        runs = []
        for count in (1, 2, 3):
            forks = use_workers(monkeypatch, count)
            f_def, f_red, (ranks, gaps) = sample_spectral_cdfs(cfg, cfg.n)
            assert len(forks) == min(count, chunks) - 1
            runs.append((f_def, f_red, ranks, gaps))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_replicate_runs_once(self, cpus, monkeypatch, tmp_path):
        # Six chunks, each recorded by the worker that runs it.  A chunk run
        # twice, as by two overlapping slices, writes the same rows again, so
        # no result shows it; this record does.
        log = tmp_path / "chunks"
        on_each_item(monkeypatch, lambda rows: record_range(log, rows))
        forks = use_workers(monkeypatch, cpus)
        n = 7
        cfg = matrix_config(n=n, replicates=5 * experiments.chunk_size(n) + 3)
        sample_spectral_cdfs(cfg, n)
        assert len(forks) == cpus - 1
        assert recorded_items(log) == list(range(cfg.replicates))

    def test_one_worker_or_one_chunk_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork was called")

        n = 7
        chunk = experiments.chunk_size(n)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        for count, reps in ((1, 3 * chunk), (3, chunk)):
            monkeypatch.setattr(workers, "usable_cpus", lambda: count)
            monkeypatch.setattr(os, "fork", no_fork)
            f_def, _, _ = sample_spectral_cdfs(matrix_config(n=n, replicates=reps), n)
            assert f_def.shape == (reps, 5)

    def test_results_outlive_the_next_run(self, monkeypatch):
        # workers.run hands back views of its shared memory, not copies: a
        # child's rows stay readable after the next run, which maps its own.
        use_workers(monkeypatch, 2)
        layouts = [((6,), np.float64), ((6,), np.dtype(int))]

        def fill(offset):
            def work(rows, out):
                out[0][rows.start:rows.stop] = offset + np.arange(rows.start, rows.stop)
                out[1][rows.start:rows.stop] = os.getpid()
                # Two items: each worker holds its first until the other has
                # written, so the parent and the child write one each.
                while not np.any((out[1] > 0) & (out[1] != os.getpid())):
                    time.sleep(0.001)
            return work

        plan = workers.plan(6, 3, layouts, 1, "a test run")
        first = workers.run(plan, fill(10.0))
        kept = [a.copy() for a in first]
        second = workers.run(plan, fill(20.0))
        assert len(set(first[1].tolist())) == 2
        assert np.array_equal(second[0], 20.0 + np.arange(6))
        for got, copy_, other in zip(first, kept, second):
            assert np.array_equal(got, copy_)
            assert not np.shares_memory(got, copy_)
            assert not np.shares_memory(got, other)
            base = got
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base.obj, mmap.mmap)

    def test_workers_fit_the_memory_budget(self, monkeypatch):
        # n = 2047 is the largest n whose one-replicate chunk fits the
        # budget beside the CDF arrays of 1000 replicates.
        use_workers(monkeypatch, 1)
        assert experiments._matrix_plan(matrix_config(replicates=1000),
                                        2047).estimate <= workers.BYTES_BUDGET
        with pytest.raises(ValueError, match="needs an estimated"):
            experiments._matrix_plan(matrix_config(replicates=1), 2048)
        # Three CPUs and six chunks, with a budget that fits the CDF arrays
        # (at 200 x points, larger than a chunk) and two chunks beside them:
        # two workers run, so the run forks once.
        forks = use_workers(monkeypatch, 3)
        cfg = matrix_config(replicates=6 * experiments.chunk_size(8),
                            x_grid=[i / 100 for i in range(-100, 100)])
        three = experiments._matrix_plan(cfg, 8)
        arrays = workers.layout_bytes(three.layouts)
        chunk_bytes = (three.estimate - arrays) // 3
        assert arrays > chunk_bytes
        monkeypatch.setattr(workers, "BYTES_BUDGET", arrays + 2 * chunk_bytes)
        assert experiments._matrix_plan(cfg, 8).workers == 2
        sample_spectral_cdfs(cfg, cfg.n)
        assert len(forks) == 1

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_chunk_bytes_bound_the_traced_peak(self, n, monkeypatch):
        # One chunk with the step check and every Haar column factored; the
        # first call makes one-time allocations, so a warm-up runs first.
        use_workers(monkeypatch, 1)
        cfg = matrix_config(n=n, replicates=experiments.chunk_size(n), step_check=True,
                            spectrum_N="uniform_grid")
        plan = experiments._matrix_plan(cfg, n)
        sample_spectral_cdfs(cfg, cfg.n)
        tracemalloc.start()
        try:
            sample_spectral_cdfs(cfg, cfg.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.6 <= peak / (plan.estimate - workers.layout_bytes(plan.layouts)) <= 1.0

    @pytest.mark.parametrize("build, cases", [
        ("scipy-openblas 0.3.31", [({"OPENBLAS_NUM_THREADS": "2"}, 2),
                                   ({"OMP_NUM_THREADS": "1"}, 4),
                                   ({"OPENBLAS_NUM_THREADS": "8", "OMP_NUM_THREADS": "1"}, 1),
                                   ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
                                   ({"MKL_NUM_THREADS": "1"}, 1),
                                   ({}, 1)]),
        ("mkl 2024.2", [({"MKL_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
                        ({"MKL_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"}, 4),
                        ({"OMP_NUM_THREADS": "2"}, 2),
                        ({"OPENBLAS_NUM_THREADS": "1"}, 1)]),
        ("blis 1.0", [({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"}, 2),
                      ({"OMP_NUM_THREADS": "1"}, 4),
                      ({}, 1)]),
    ])
    def test_workers_share_the_cpus_with_blas_threads(self, build, cases, monkeypatch):
        # Four CPUs: two workers of two BLAS threads each; a BLAS left to
        # use every CPU, or one that asks for more, leaves one worker.
        # OpenBLAS and MKL each read their own variable before
        # OMP_NUM_THREADS; another BLAS counts the largest value set.
        forks = use_workers(monkeypatch, 4)
        monkeypatch.setattr(workers, "blas_build", lambda: build)
        for var in workers.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for env, count in cases:
            forks.clear()
            with monkeypatch.context() as m:
                for var, value in env.items():
                    m.setenv(var, value)
                sample_spectral_cdfs(matrix_config(n=64, replicates=8), 64)
            assert len(forks) == count - 1, env

    def test_other_platforms_run_inline(self, monkeypatch):
        cfg = matrix_config(n=7, replicates=3 * experiments.chunk_size(7), step_check=True)
        use_workers(monkeypatch, 1)
        want = sample_spectral_cdfs(cfg, cfg.n)
        forks = use_workers(monkeypatch, 3)
        monkeypatch.setattr(workers.platform, "system", lambda: "Darwin")
        got = sample_spectral_cdfs(cfg, cfg.n)
        assert forks == []
        for a, b in zip((*got[:2], *got[2]), (*want[:2], *want[2])):
            assert np.array_equal(a, b)

    def test_failed_fork_leaves_its_share_to_the_started_workers(self, monkeypatch, tmp_path):
        # Three workers over three chunks: the first fork succeeds and the
        # second fails, so the calling process and one child claim every
        # chunk between them.
        n = 7
        chunk = experiments.chunk_size(n)
        cfg = matrix_config(n=n, replicates=2 * chunk + 5, step_check=True)
        use_workers(monkeypatch, 1)
        want = sample_spectral_cdfs(cfg, cfg.n)
        forks = use_workers(monkeypatch, 3)
        counted_fork = os.fork

        def fork_once():
            if forks:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return counted_fork()

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        log = tmp_path / "chunks"
        on_each_item(monkeypatch, lambda rows: record_range(log, rows))
        monkeypatch.setattr(os, "fork", fork_once)
        got = sample_spectral_cdfs(cfg, cfg.n)
        assert len(forks) == 1
        assert recorded_items(log) == list(range(cfg.replicates))
        for a, b in zip((*got[:2], *got[2]), (*want[:2], *want[2])):
            assert np.array_equal(a, b)
        # The error of the lowest failing chunk wins whichever worker runs
        # it, and with no child at all the calling process claims every
        # chunk in order.

        def fail_after_the_first(rows):
            if rows.start > 0:
                raise ValueError(f"chunk at {rows.start}")

        on_each_item(monkeypatch, fail_after_the_first)
        for fork in (fork_once, no_fork):
            forks.clear()
            monkeypatch.setattr(os, "fork", fork)
            with pytest.raises(ValueError, match=f"^chunk at {chunk}$"):
                sample_spectral_cdfs(cfg, cfg.n)

    def test_unreadable_error_raises_and_reaps_every_child(self, monkeypatch, tmp_path):
        # Every child fails its first chunk with an error that cannot be
        # unpickled; the parent waits until one has, so the lowest such
        # chunk is named, as the replicates its worker held.
        n = 7
        chunk = experiments.chunk_size(n)
        parent, log = os.getpid(), tmp_path / "chunks"

        def unreadable_in_children(rows):
            if os.getpid() != parent:
                record_range(log, rows)
                raise Unrebuildable("cannot", "unpickle")
            wait_for_a_child(log, parent)

        forks = use_workers(monkeypatch, 3)
        on_each_item(monkeypatch, unreadable_in_children)
        cfg = matrix_config(n=n, replicates=2 * chunk + 5, step_check=True)
        with pytest.raises(workers.WorkerError,
                           match=r"replicates (\d+)\.\.(\d+) sent an error that could not be "
                                 r"read \(TypeError: ") as raised:
            sample_spectral_cdfs(cfg, cfg.n)
        first = min(recorded_ranges(log), key=lambda rows: rows.start)
        assert f"replicates {first.start}..{first.stop - 1} " in str(raised.value)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count", [2, 3])
    def test_violation_in_a_child_names_its_replicate(self, count, monkeypatch, tmp_path):
        # The step fails at the second replicate of every chunk.  With
        # `count` workers the parent holds its first chunk until a child
        # has run one, so children run chunks: their defects reach the
        # shared ranks, and the verdict names replicate 1, as on one worker.
        n = 7
        chunk = experiments.chunk_size(n)
        cfg = matrix_config(n=n, replicates=2 * chunk + 5, step_check=True)
        targets = list(range(1, cfg.replicates, chunk))
        parent, log = os.getpid(), tmp_path / "chunks"
        plant_step_defects(monkeypatch, targets)

        def child_runs_first(rows):
            if os.getpid() != parent:
                record_range(log, rows)
            elif forks:
                wait_for_a_child(log, parent)

        on_each_item(monkeypatch, child_runs_first)
        verdicts = []
        for workers_count in (1, count):
            forks = use_workers(monkeypatch, workers_count)
            _, _, (ranks, _) = sample_spectral_cdfs(cfg, cfg.n)
            assert np.flatnonzero(ranks > 3).tolist() == targets
            verdicts.append(run_experiment(cfg).verdicts[-2])
            assert len(forks) == 2 * (workers_count - 1)
        assert recorded_ranges(log)
        assert verdicts[0] == verdicts[1]
        assert verdicts[0]["status"] == "fail"
        assert verdicts[0]["first_violation"] == {"replicate": 1}

    def test_lowest_failing_item_wins_over_the_first_to_fail(self, tmp_path):
        # Two workers over 24 one-replicate items.  Item 3 fails 0.5 s after
        # it starts, item 4 at once: the worker that is not held by item 3
        # claims item 4 and fails first, yet the lower item's error is the
        # one raised.
        plan = workers.Plan(workers.ranges(24, 1), 2, [((24,), np.float64)], 0)
        log = tmp_path / "failures"

        def work(rows, out):
            if rows.start == 3:
                time.sleep(0.5)
            if rows.start in (3, 4):
                record_range(log, rows)
                raise ValueError(f"item {rows.start}")

        with pytest.raises(ValueError, match="^item 3$"):
            workers.run(plan, work)
        assert [rows.start for rows in recorded_ranges(log)] == [4, 3]

    def test_dead_child_raises(self, monkeypatch, tmp_path):
        # The child dies in its first chunk, which the parent waits for: the
        # error names the replicates of that chunk.
        n = 7
        chunk = experiments.chunk_size(n)
        parent, log = os.getpid(), tmp_path / "chunks"

        def die_in_child(rows):
            if os.getpid() != parent:
                record_range(log, rows)
                os._exit(3)
            wait_for_a_child(log, parent)

        use_workers(monkeypatch, 2)
        on_each_item(monkeypatch, die_in_child)
        cfg = matrix_config(n=n, replicates=2 * chunk + 5, step_check=True)
        with pytest.raises(workers.WorkerError) as raised:
            sample_spectral_cdfs(cfg, cfg.n)
        held, = recorded_ranges(log)
        assert str(raised.value) == (
            f"the worker for replicates {held.start}..{held.stop - 1} exited with status 3")
        assert isinstance(raised.value, RuntimeError)

    def test_a_failure_stops_the_other_workers_after_their_current_item(self, tmp_path):
        # The child fails its first item; the parent holds its own first
        # item, if it claims one before the child fails, until the child
        # has set the failure flag, and then claims no other of the 30.
        plan = workers.Plan(workers.ranges(30, 1), 2, [((30,), np.float64)], 0)
        parent, failed, ran = os.getpid(), tmp_path / "failed", tmp_path / "ran"

        def work(rows, out):
            if os.getpid() != parent:
                raise LoggedOnPickling(failed, rows)
            wait_for_a_child(failed, parent)
            record_range(ran, rows)

        with pytest.raises(LoggedOnPickling) as raised:
            workers.run(plan, work)
        assert recorded_ranges(failed) == [raised.value.args[1]]
        assert len(recorded_ranges(ran)) <= 1

    def test_slow_worker_claims_fewer_items(self):
        # Two workers over 40 one-replicate items; the child sleeps 0.2 s on
        # each item it claims, the parent not at all.  The parent claims the
        # next item whenever it is free, so the child gets only the items it
        # claims while the parent runs its few microseconds an item; fixed
        # halves would give it 20.
        plan = workers.Plan(workers.ranges(40, 1), 2, [((40,), np.dtype(int))], 0)
        parent = os.getpid()

        def work(rows, out):
            if os.getpid() != parent:
                time.sleep(0.2)
            out[0][rows.start:rows.stop] = os.getpid()

        pids, = workers.run(plan, work)
        assert np.count_nonzero(pids == parent) >= 38
        assert np.all(pids > 0)

    def test_worker_killed_holding_the_claim_lock_does_not_hang(self, monkeypatch):
        # Each child is killed as soon as it holds the claim lock.  The
        # kernel drops the lock with the child, so the parent claims every
        # item, and the dead child, which held no item, is reported.  A lock
        # that outlived its holder would block the parent for good: after
        # 10 s the children are killed and the test fails.
        plan = workers.Plan(workers.ranges(12, 2), 3, [((12,), np.float64)], 0)
        parent, real_lockf, real_fork, pids = os.getpid(), workers.fcntl.lockf, os.fork, []

        def lockf(fd, cmd, *args):
            real_lockf(fd, cmd, *args)
            if cmd == workers.fcntl.LOCK_EX and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        def recorded_fork():
            pids.append(real_fork())
            return pids[-1]

        def work(rows, out):
            out[0][rows.start:rows.stop] = 1.0

        def expire(signum, frame):
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            raise TimeoutError("the run still waited for its claim lock after 10 s")

        monkeypatch.setattr(workers.fcntl, "lockf", lockf)
        monkeypatch.setattr(os, "fork", recorded_fork)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with pytest.raises(workers.WorkerError, match="a worker that held no item exited "
                                                          f"with status -{int(signal.SIGKILL)}"):
                workers.run(plan, work)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(pids) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_killed_run_leaves_no_worker_running(self, tmp_path):
        # SLOW_RUN is killed once its child has logged an item.  The child
        # finds its parent gone after its current item and claims no other,
        # so it is gone within five item times, not the minute that the
        # items left would take it.  Every logged pid is killed at the end.
        log = tmp_path / "pids"
        run = subprocess.Popen([sys.executable, "-c", SLOW_RUN, str(log)], env=package_env())
        try:
            deadline = time.monotonic() + 30
            while not logged_pids(log) - {run.pid}:
                assert time.monotonic() < deadline, "no forked worker logged an item in 30 s"
                time.sleep(0.01)
            run.kill()
            run.wait()
            child, = logged_pids(log) - {run.pid}
            deadline = time.monotonic() + 1.0
            while is_running(child):
                assert time.monotonic() < deadline, "the worker outlived its run by 1 s"
                time.sleep(0.01)
        finally:
            run.kill()
            run.wait()
            for pid in logged_pids(log):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("where", ["claims", "wait"])
    def test_hung_child_is_killed_after_the_grace_period(self, where):
        # HUNG_CHILD's alarm must end its run within GRACE_SECONDS plus 1 s,
        # with no child left.  A run that waits for the hung child instead
        # hits the hard timeout, which kills every process of the script's
        # own session, forked workers included.
        args = [sys.executable, "-W", "error::DeprecationWarning", "-c", HUNG_CHILD, where]
        script = subprocess.Popen(args, env=package_env(), stdout=subprocess.PIPE, text=True,
                                  start_new_session=True)
        try:
            out, _ = script.communicate(timeout=workers.GRACE_SECONDS + 30)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(script.pid, signal.SIGKILL)
            script.wait()
        took, held, reaped = out.split()
        assert float(took) <= workers.GRACE_SECONDS + 1.0
        assert held == "1"
        assert reaped == "reaped"

    def test_runs_leave_no_descriptor_or_child_behind(self):
        # 50 runs of three workers, every other one failing in some worker:
        # afterwards no pipe or memfd is left open and no child unreaped.
        plan = workers.Plan(workers.ranges(9, 1), 3, [((9,), np.float64)], 0)
        before = sorted(os.listdir("/proc/self/fd"))

        def work_failing_at(bad):
            def work(rows, out):
                if rows.start == bad:
                    raise ValueError(f"item {bad}")
                out[0][rows.start:rows.stop] = rows.start
            return work

        for i in range(50):
            if i % 2:
                with pytest.raises(ValueError, match=f"item {i % 9}"):
                    workers.run(plan, work_failing_at(i % 9))
            else:
                values, = workers.run(plan, work_failing_at(-1))
                assert np.array_equal(values, np.arange(9.0))
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFiniteGroupExperiment:
    def test_traced_peak_fits_the_replicate_budget(self):
        # The draw holds a uniform and an index per replicate, 16 B; a
        # per-replicate array kept beside them would pass 24 B.
        reps = 2_000_000
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 4, "seed": 0, "replicates": reps})
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert experiments.FINITE_GROUP_REPLICATE_BYTES == 16
        assert peak < (experiments.FINITE_GROUP_REPLICATE_BYTES + 1) * reps

    def test_fixed_point_variance_on_s5(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 5, "seed": 3, "replicates": 2000}
        )
        report = run_experiment(cfg)
        default = report.estimates["functions"][0]
        assert default["label"] == "default"
        # Fixed-point count has variance 1, so the 1/n-scaled version has 1/n^2.
        assert default["variance"] == pytest.approx(1.0 / 25.0, abs=1e-12)
        assert default["variance"] <= default["constant"] / 2.0

    def test_certificates_pass_on_s4_and_s5(self):
        for n in (4, 5):
            cfg = ExperimentConfig.from_dict(
                {"kind": "finite-group", "n": n, "seed": 1, "replicates": 2000}
            )
            report = run_experiment(cfg)
            assert {v["status"] for v in report.verdicts} == {"pass"}
            assert len(report.estimates["functions"]) == 1 + experiments.FINITE_GROUP_TEST_FUNCTIONS
            assert report.estimates["max_variance_margin"] <= 1.0
            envelope = report.bounds["envelope"]
            assert envelope["a"] > 0 and envelope["b"] > 0
            assert report.estimates["tv_at_k_star"] <= experiments.WALK_TV_TARGET

    def test_tails_sample_at_k_max_when_the_curve_misses_the_target(self):
        # The tails sample the exact law at the first k with d_TV <=
        # WALK_TV_TARGET, or at k_max when the curve never gets there.
        short = run_experiment(ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 5, "seed": 0, "k_max": 20}))
        assert short.estimates["k_star"] == 20
        assert short.estimates["tv_at_k_star"] > experiments.WALK_TV_TARGET
        assert short.curves["tv_curve"]["rows"][-1] == [20, short.estimates["tv_at_k_star"]]
        default = run_experiment(ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 5, "seed": 0}))
        assert default.estimates["k_star"] < default.config_echo["k_max"] == 125
        assert default.estimates["tv_at_k_star"] <= experiments.WALK_TV_TARGET

    def test_curve_payloads(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 4, "seed": 1, "replicates": 1500, "k_max": 80}
        )
        report = run_experiment(cfg)
        assert len(report.curves["tv_curve"]["rows"]) == 81
        assert len(report.curves["tails"]["rows"]) == len(cfg.t_grid)
        for _, freq, exact_prob, bound in report.curves["tails"]["rows"]:
            assert freq <= bound + 1e-12
            assert exact_prob <= bound + 1e-12

    def test_certificates_pass_on_s8(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 8, "seed": 2, "replicates": 1000}
        )
        report = run_experiment(cfg)
        assert report.estimates["group_order"] == 40320
        assert {v["status"] for v in report.verdicts} == {"pass"}
        assert report.estimates["tv_at_k_star"] <= experiments.WALK_TV_TARGET


class TestIdentitySuite:
    def test_residuals_within_limit(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "identity-suite", "n": 3, "seed": 5, "replicates": 50}
        )
        report = run_experiment(cfg)
        assert report.estimates["max_conditional_mean_residual"] <= 1e-9
        assert report.estimates["max_variance_residual"] <= 1e-9
        assert len(report.curves["residuals"]["rows"]) == 50
        assert {v["status"] for v in report.verdicts} == {"pass"}

    def test_on_s4(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "identity-suite", "n": 4, "seed": 5, "replicates": 20}
        )
        report = run_experiment(cfg)
        assert not report.has_failure()

    def test_on_s6(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "identity-suite", "n": 6, "seed": 5, "replicates": 5}
        )
        report = run_experiment(cfg)
        assert report.estimates["max_conditional_mean_residual"] <= 1e-9
        assert report.estimates["max_variance_residual"] <= 1e-9
        assert {v["status"] for v in report.verdicts} == {"pass"}


class TestScalingStudy:
    def test_structure_and_ratios(self):
        # x = 0.5 rather than 0: with two-point spectra the CDF at 0 is
        # forced to 1/2 by eigenvalue interlacing, so its variance vanishes.
        cfg = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [4, 8], "seed": 2, "replicates": 400,
             "x_grid": [0.5]}
        )
        report = run_experiment(cfg)
        assert report.estimates["n_grid"] == [4, 8]
        assert report.estimates["kappa_measured"] > 0
        assert len(report.estimates["per_n"]) == 2
        ratio_status = {
            v["status"] for v in report.verdicts if v["name"].startswith("ratio_")
        }
        assert ratio_status == {"pass"}
        tail_status = {
            v["status"] for v in report.verdicts if v["name"].startswith("tail_")
        }
        assert tail_status == {"inconclusive"}
        assert len(report.curves["scaling"]["rows"]) == 2

    def test_two_point_spectra_at_zero_are_degenerate(self):
        # The definition-form H is a sum of two shifted projections; Weyl
        # interlacing pins exactly half the spectrum below zero, so the
        # measured ratio at x = 0 is exactly 0.  The study must report that
        # honestly rather than inventing spread.
        cfg = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [4, 8], "seed": 2, "replicates": 200,
             "x_grid": [0.0]}
        )
        report = run_experiment(cfg)
        assert report.estimates["kappa_measured"] == 0.0
        assert not report.has_failure()

    def test_single_point_grid_matches_matrix_run(self):
        common = {"seed": 9, "replicates": 150, "x_grid": [0.0, 0.5]}
        scaling = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [6], **common}
        )
        matrix = ExperimentConfig.from_dict({"kind": "matrix", "n": 6, **common})
        s_report = run_experiment(scaling)
        m_report = run_experiment(matrix)
        assert s_report.estimates["per_n"][0]["per_x"] == m_report.estimates["per_x"]

    def test_zero_spectra_give_zero_ratio(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [4, 6], "seed": 2, "replicates": 100,
             "spectrum_M": "zero", "spectrum_N": "zero", "x_grid": [0.0, 0.5]}
        )
        report = run_experiment(cfg)
        assert report.estimates["kappa_measured"] == 0.0
        for row in report.curves["scaling"]["rows"]:
            assert row[2] == 0.0  # variance column

    def test_zero_measured_kappa_gives_the_zero_constant_tail_bound(self):
        # With kappa_measured = 0 the measured-kappa tail bound is
        # tail_bound(0, t): vacuous (2) at t = 0 and 0 for t > 0.
        cfg = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [4, 6], "seed": 2, "replicates": 500,
             "spectrum_M": "zero", "spectrum_N": "zero", "x_grid": [0.0],
             "t_grid": [0.0, 0.05]}
        )
        report = run_experiment(cfg)
        assert report.estimates["kappa_measured"] == 0.0
        rows = report.curves["tails"]["rows"]
        assert [row[2] for row in rows] == [0.0, 0.05] * 2
        assert [row[-1] for row in rows] == [2.0, 0.0] * 2
        tails = [v for v in report.verdicts if v["name"].startswith("tail_measured_kappa_")]
        assert [(v["threshold"], v["status"]) for v in tails] == [(2.0, "pass"), (0.0, "pass")] * 2


class TestRunExperiment:
    def test_dispatch_and_runtime(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "identity-suite", "n": 3, "seed": 1, "replicates": 5}
        )
        report = run_experiment(cfg)
        assert report.environment["runtime_seconds"] > 0
        assert report.environment["package"].startswith("haarconc ")

    def test_reports_identical_across_thread_counts(self):
        cfg = matrix_config(n=6, replicates=200, step_check=True)
        with pytest.raises(TypeError):
            run_experiment(cfg, threads=8)
        one = run_experiment(cfg)
        again = run_experiment(cfg)
        assert strip_runtime(one) == strip_runtime(again)
        assert one.curves == again.curves

    def test_reports_identical_across_runs(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 4, "seed": 11, "replicates": 1000}
        )
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert strip_runtime(first) == strip_runtime(second)

    @pytest.mark.parametrize("body, message", [
        ({"kind": "matrix", "n": 4096, "replicates": 1},
         "a matrix run of 1 replicates needs an estimated 4,096.0 MiB"),
        ({"kind": "scaling", "n_grid": [64, 2047], "replicates": 20000},
         "a scaling run of 20000 replicates at n = 2047 needs an estimated 1,024.5 MiB"),
        ({"kind": "finite-group", "n": 7, "replicates": 10**8},
         "a finite-group run of 100000000 replicates and 175 steps needs an estimated"),
        ({"kind": "identity-suite", "n": 3, "replicates": 10**8},
         "an identity-suite run of 100000000 replicates needs an estimated 19,073.5 MiB"),
    ])
    def test_oversized_configs_parse_and_are_refused_before_any_work(self, body, message,
                                                                     monkeypatch):
        # Parsing checks keys only; each run refuses its memory where it
        # plans it, before the replicates or the walk.
        def no_work(*args):
            raise AssertionError("an oversized config reached the work")

        cfg = ExperimentConfig.from_dict({"seed": 0, **body})
        monkeypatch.setattr(workers, "run", no_work)
        monkeypatch.setattr(experiments, "walk_operator", no_work)
        monkeypatch.setattr(experiments, "check_identities", no_work)
        use_workers(monkeypatch, 1)
        with pytest.raises(ValueError, match="above the 1,024 MiB memory budget") as refusal:
            run_experiment(cfg)
        assert message in str(refusal.value)


class TestStackedGatherReports:
    """The S_n reports are the same bytes with the walk operator's stacked
    gather and with the per-map loop it replaced."""

    @staticmethod
    def written(cfg: ExperimentConfig, out_dir) -> dict:
        write_report(run_experiment(cfg), out_dir)
        files = {path.name: path.read_text() for path in sorted(out_dir.iterdir())}
        payload = json.loads(files.pop("report.json"))
        payload["environment"].pop("runtime_seconds")
        return {"report.json": payload, **files}

    @pytest.mark.parametrize("kind, n, seed", [
        ("finite-group", 5, 0), ("finite-group", 5, 1), ("finite-group", 6, 0),
        ("finite-group", 6, 1), ("finite-group", 7, 0), ("finite-group", 7, 1),
        ("identity-suite", 5, 0),
    ])
    def test_outputs_equal_the_per_map_loop(self, kind, n, seed, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict({"kind": kind, "n": n, "seed": seed})
        gathered = self.written(cfg, tmp_path / "gather")
        monkeypatch.setattr(kernel.WalkOperator, "apply", reference_apply)
        monkeypatch.setattr(kernel.WalkOperator, "differences", reference_differences)
        looped = self.written(cfg, tmp_path / "loop")
        csvs = {"finite-group": ["tails.csv", "tv_curve.csv"], "identity-suite": ["residuals.csv"]}
        assert sorted(gathered) == ["report.json", *csvs[kind]]
        assert gathered == looped


class TestReportHelpers:
    def test_has_failure(self):
        report = ExperimentReport({}, {}, {}, [{"name": "x", "status": "pass"}], {})
        assert not report.has_failure()
        report.verdicts.append({"name": "y", "status": "fail"})
        assert report.has_failure()

    def test_blas_build_from_show_config(self, monkeypatch):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert workers.blas_build() == f"{blas['name']} {blas['version']}"

        def old_show_config():  # numpy < 1.26 takes no mode
            return None

        monkeypatch.setattr(np, "show_config", old_show_config)
        assert workers.blas_build() == "unknown"

    def test_json_dict_drops_curves(self):
        report = ExperimentReport({}, {}, {}, [], {}, curves={"c": {}})
        assert "curves" not in report.to_json_dict()
