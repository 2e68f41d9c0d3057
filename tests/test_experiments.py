"""Tests for experiment configs, pipelines, hard guarantees, and
reproducibility of the reports."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarconc import experiments
from haarconc.experiments import (
    ExperimentConfig,
    ExperimentReport,
    GuaranteeViolation,
    child_rng,
    resolve_spectrum,
    run_experiment,
    run_finite_group_experiment,
    run_identity_suite,
    run_matrix_experiment,
    run_reflection_step_experiment,
    run_scaling_study,
    sample_spectral_cdfs,
)
from haarconc.groups import sample_haar_unitary, sample_reflection_step
from haarconc.hermitian import (
    HermitianMatrix,
    conjugate,
    eigenvalues,
    rank_distance,
    sup_cdf_distance,
)

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
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"kind": "finite-group", "n": 8, "seed": 0})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"kind": "identity-suite", "n": 6, "seed": 0})
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

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig.from_dict({"kind": "quantum", "n": 4, "seed": 0})

    def test_to_dict_covers_all_allowed_keys(self):
        cfg = matrix_config()
        assert set(cfg.to_dict()) == {
            "kind", "n", "spectrum_M", "spectrum_N", "x_grid",
            "replicates", "seed", "kappa", "t_grid", "step_check",
        }

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_canonical(self, data):
        kind = data.draw(st.sampled_from(
            ["matrix", "finite-group", "identity-suite", "scaling"]))
        raw = {"kind": kind, "seed": data.draw(st.integers(0, 2**32))}
        if kind == "scaling":
            raw["n_grid"] = data.draw(
                st.lists(st.integers(2, 32), min_size=1, max_size=3))
        else:
            cap = {"matrix": 64, "finite-group": 7, "identity-suite": 5}[kind]
            raw["n"] = data.draw(st.integers(2, cap))
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


class TestMatrixExperiment:
    def test_zero_matrices_are_deterministic(self):
        cfg = matrix_config(n=4, replicates=600, spectrum_M="zero", spectrum_N="zero",
                            x_grid=[-0.5, 0.0, 0.5])
        report = run_matrix_experiment(cfg)
        for row in report.estimates["per_x"]:
            assert row["variance"] == 0.0
            expected = 0.0 if row["x"] < 0 else 1.0
            assert row["mean"] == expected
            assert row["mean_reduced"] == expected
        assert not report.has_failure()

    def test_report_structure_and_verdicts(self):
        cfg = matrix_config(replicates=600)
        report = run_matrix_experiment(cfg)
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
        report = run_matrix_experiment(cfg)
        bound = report.bounds["variance_bound"]
        assert bound == pytest.approx(math.log(8.0) / 8.0, rel=1e-12)
        for row in report.estimates["per_x"]:
            assert row["variance"] <= bound

    def test_small_replicates_mark_tails_inconclusive(self):
        cfg = matrix_config(replicates=50)
        report = run_matrix_experiment(cfg)
        assert report.estimates["tail_resolution_warning"]
        tail_status = {v["status"] for v in report.verdicts if v["name"].startswith("tail_")}
        assert tail_status == {"inconclusive"}
        assert not report.has_failure()

    def test_kind_checked(self):
        cfg = ExperimentConfig.from_dict({"kind": "identity-suite", "n": 3, "seed": 0})
        with pytest.raises(ValueError):
            run_matrix_experiment(cfg)

    def test_threads_do_not_change_results(self):
        cfg = matrix_config(replicates=120)
        one = run_matrix_experiment(cfg, threads=1)
        many = run_matrix_experiment(cfg, threads=8)
        assert one.to_json_dict() == many.to_json_dict()
        assert one.curves == many.curves


class TestReflectionStepExperiment:
    def test_requires_step_check(self):
        cfg = matrix_config()
        with pytest.raises(ValueError):
            run_reflection_step_experiment(cfg)

    def test_hard_guarantees_hold(self):
        for n in (4, 8):
            cfg = matrix_config(n=n, replicates=150, step_check=True)
            report = run_reflection_step_experiment(cfg)
            assert report.estimates["max_rank"] <= 3
            assert report.estimates["max_cdf_gap"] <= 3.0 / n + 1e-12
            assert {v["status"] for v in report.verdicts} == {"pass"}

    def test_rank_violation_raises(self, monkeypatch):
        cfg = matrix_config(n=4, replicates=3, step_check=True)
        monkeypatch.setattr(experiments, "rank_distance", lambda *a, **k: 5)
        with pytest.raises(GuaranteeViolation, match="rank"):
            run_reflection_step_experiment(cfg)

    def test_gap_violation_raises(self, monkeypatch):
        cfg = matrix_config(n=4, replicates=3, step_check=True)
        monkeypatch.setattr(experiments, "sup_cdf_distance", lambda *a, **k: 1.0)
        with pytest.raises(GuaranteeViolation, match="gap"):
            run_reflection_step_experiment(cfg)

    def test_merged_into_matrix_report(self):
        cfg = matrix_config(n=4, replicates=60, step_check=True)
        report = run_experiment(cfg)
        assert "step_check" in report.estimates
        names = {v["name"] for v in report.verdicts}
        assert "step_rank_le_3" in names
        assert "step_cdf_gap_le_3_over_n" in names
        assert report.environment["runtime_seconds"] > 0


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
        h = HermitianMatrix(conjugate(u, diag_m).entries + conjugate(v, diag_n).entries)
        h_red = HermitianMatrix(conjugate(x, diag_m).entries + diag_n)
        f_def.append(eigenvalues(h).value(xs))
        f_red.append(eigenvalues(h_red).value(xs))
    return np.array(f_def), np.array(f_red)


def oracle_steps(cfg: ExperimentConfig) -> tuple[list, list]:
    """Rank and CDF gap of every reflection step, one matrix at a time."""
    n = cfg.n
    diag_m = np.diag(resolve_spectrum(cfg.spectrum_M, n)).astype(complex)
    diag_n = np.diag(resolve_spectrum(cfg.spectrum_N, n)).astype(complex)
    ranks, gaps = [], []
    for r in range(cfg.replicates):
        rng = child_rng(cfg.seed, "step-check", r)
        x = sample_haar_unitary(n, rng)
        y = sample_reflection_step(n, rng).matrix()
        w = conjugate(x, diag_m)
        h = HermitianMatrix(w.entries + diag_n)
        h_prime = HermitianMatrix(conjugate(y, w).entries + diag_n)
        ranks.append(rank_distance(h, h_prime))
        gaps.append(sup_cdf_distance(eigenvalues(h), eigenvalues(h_prime)))
    return ranks, gaps


def boundary_counts(n: int) -> list[int]:
    """One replicate, and one short of and one past a chunk."""
    chunk = experiments.chunk_size(n)
    return sorted({1, chunk - 1, chunk + 1} - {0})


class TestChunkedEngine:
    # Replicate r's draws do not depend on the replicate count, so the
    # oracle run for the largest count serves every smaller one as a prefix.

    def test_chunk_sizes_follow_the_byte_budget(self):
        assert [experiments.chunk_size(n) for n in (8, 16, 32, 64, 128)] == [85, 21, 5, 1, 1]

    @pytest.mark.parametrize("n", [2, 7, 16, 64])
    def test_cdf_values_equal_per_replicate_loop(self, n):
        counts = boundary_counts(n)
        common = {"n": n, "seed": n, "spectrum_N": "uniform_grid",
                  "x_grid": [-0.5, 0.0, 0.25, 0.5]}
        want_def, want_red = oracle_cdfs(matrix_config(replicates=counts[-1], **common))
        for reps in counts:
            f_def, f_red = sample_spectral_cdfs(matrix_config(replicates=reps, **common))
            assert np.array_equal(f_def, want_def[:reps])
            assert np.array_equal(f_red, want_red[:reps])

    @pytest.mark.parametrize("n", [2, 7, 16, 64])
    def test_step_extremes_equal_per_replicate_loop(self, n):
        counts = boundary_counts(n)
        common = {"n": n, "seed": n, "spectrum_N": "uniform_grid", "step_check": True}
        ranks, gaps = oracle_steps(matrix_config(replicates=counts[-1], **common))
        for reps in counts:
            report = run_reflection_step_experiment(matrix_config(replicates=reps, **common))
            assert report.estimates["max_rank"] == max(ranks[:reps])
            assert report.estimates["max_cdf_gap"] == max(gaps[:reps])

    def test_violation_names_the_global_replicate(self, monkeypatch):
        n = 7
        chunk = experiments.chunk_size(n)
        target = chunk + 2
        real = experiments.rank_distance
        seen = [0]

        def rank_with_violation(a, b):
            ranks = np.array(real(a, b))
            local = target - seen[0]
            if 0 <= local < ranks.size:
                ranks[local] = experiments.STEP_RANK_LIMIT + 1
            seen[0] += ranks.size
            return ranks

        monkeypatch.setattr(experiments, "rank_distance", rank_with_violation)
        cfg = matrix_config(n=n, replicates=2 * chunk + 5, step_check=True)
        with pytest.raises(GuaranteeViolation, match=f"at replicate {target} "):
            run_reflection_step_experiment(cfg)


class TestFiniteGroupExperiment:
    def test_fixed_point_variance_on_s5(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 5, "seed": 3, "replicates": 2000}
        )
        report = run_finite_group_experiment(cfg)
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
            report = run_finite_group_experiment(cfg)
            assert {v["status"] for v in report.verdicts} == {"pass"}
            assert len(report.estimates["functions"]) == 1 + experiments.FINITE_GROUP_TEST_FUNCTIONS
            assert report.estimates["max_variance_margin"] <= 1.0
            envelope = report.bounds["envelope"]
            assert envelope["a"] > 0 and envelope["b"] > 0
            assert report.estimates["tv_at_k_star"] <= experiments.WALK_TV_TARGET

    def test_curve_payloads(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 4, "seed": 1, "replicates": 1500, "k_max": 80}
        )
        report = run_finite_group_experiment(cfg)
        assert len(report.curves["tv_curve"]["rows"]) == 81
        assert len(report.curves["tails"]["rows"]) == len(cfg.t_grid)
        for _, freq, exact_prob, bound in report.curves["tails"]["rows"]:
            assert freq <= bound + 1e-12
            assert exact_prob <= bound + 1e-12


class TestIdentitySuite:
    def test_residuals_within_limit(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "identity-suite", "n": 3, "seed": 5, "replicates": 50}
        )
        report = run_identity_suite(cfg)
        assert report.estimates["max_conditional_mean_residual"] <= 1e-9
        assert report.estimates["max_variance_residual"] <= 1e-9
        assert len(report.curves["residuals"]["rows"]) == 50
        assert {v["status"] for v in report.verdicts} == {"pass"}

    def test_on_s4(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "identity-suite", "n": 4, "seed": 5, "replicates": 20}
        )
        report = run_identity_suite(cfg)
        assert not report.has_failure()


class TestScalingStudy:
    def test_structure_and_ratios(self):
        # x = 0.5 rather than 0: with two-point spectra the CDF at 0 is
        # forced to 1/2 by eigenvalue interlacing, so its variance vanishes.
        cfg = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [4, 8], "seed": 2, "replicates": 400,
             "x_grid": [0.5]}
        )
        report = run_scaling_study(cfg)
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
        report = run_scaling_study(cfg)
        assert report.estimates["kappa_measured"] == 0.0
        assert not report.has_failure()

    def test_single_point_grid_matches_matrix_run(self):
        common = {"seed": 9, "replicates": 150, "x_grid": [0.0, 0.5]}
        scaling = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [6], **common}
        )
        matrix = ExperimentConfig.from_dict({"kind": "matrix", "n": 6, **common})
        s_report = run_scaling_study(scaling)
        m_report = run_matrix_experiment(matrix)
        assert s_report.estimates["per_n"][0]["per_x"] == m_report.estimates["per_x"]

    def test_zero_spectra_give_zero_ratio(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "scaling", "n_grid": [4, 6], "seed": 2, "replicates": 100,
             "spectrum_M": "zero", "spectrum_N": "zero", "x_grid": [0.0, 0.5]}
        )
        report = run_scaling_study(cfg)
        assert report.estimates["kappa_measured"] == 0.0
        for row in report.curves["scaling"]["rows"]:
            assert row[2] == 0.0  # variance column


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
        one = run_experiment(cfg, threads=1)
        eight = run_experiment(cfg, threads=8)
        assert strip_runtime(one) == strip_runtime(eight)
        assert one.curves == eight.curves

    def test_reports_identical_across_runs(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "finite-group", "n": 4, "seed": 11, "replicates": 1000}
        )
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert strip_runtime(first) == strip_runtime(second)


class TestReportHelpers:
    def test_has_failure(self):
        report = ExperimentReport({}, {}, {}, [{"name": "x", "status": "pass"}], {})
        assert not report.has_failure()
        report.verdicts.append({"name": "y", "status": "fail"})
        assert report.has_failure()

    def test_json_dict_drops_curves(self):
        report = ExperimentReport({}, {}, {}, [], {}, curves={"c": {}})
        assert "curves" not in report.to_json_dict()
