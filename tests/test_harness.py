"""Tests for the experiment harness (runner, tables, figures).

These use a small custom matrix and tiny repetition counts so the full
Table-2-style pipeline runs in seconds while still exercising every code path
the benchmarks rely on.
"""

import numpy as np
import pytest

from repro.cluster import MachineModel
from repro.core.spec import BlockSpec
from repro.failures import FailureLocation, FailureScenario
from repro.harness import (
    BoxStats,
    ExperimentConfig,
    figure_series,
    format_table,
    progress_sweep,
    render_table1,
    render_table2,
    render_table3,
    run_failure_free,
    run_matrix_study,
    run_reference,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.harness.experiment import run_with_failures
from repro.matrices import poisson_2d


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        matrix=poisson_2d(16),        # n = 256, fast
        n_nodes=4,
        repetitions=2,
        preconditioner="block_jacobi",
        jitter_rel_std=0.01,
        seed=7,
    )


@pytest.fixture(scope="module")
def study(config):
    return run_matrix_study(
        config, phis=(1, 2),
        locations=(FailureLocation.START, FailureLocation.CENTER),
        fractions=(0.5,),
    )


class TestExperimentRunner:
    def test_reference_runs(self, config):
        result = run_reference(config)
        assert result.n == 2
        assert result.all_converged
        assert result.mean() > 0
        assert result.std() >= 0
        assert result.mean_iterations > 1

    def test_block_studies_run_end_to_end(self):
        """n_rhs > 1 composes a BlockSpec harness-side: reference and
        failure runs both solve (n, 3) blocks through the auto-selected
        (resilient) PCG and the repetition records consume
        BlockSolveResult fields."""
        config = ExperimentConfig(
            matrix=poisson_2d(16), n_nodes=4, repetitions=2,
            preconditioner="block_jacobi", jitter_rel_std=0.0, seed=7,
            n_rhs=3,
        )
        for spec in (config.solve_spec(), config.solve_spec(phi=1)):
            assert spec.solver is None
            assert spec.block == BlockSpec(n_cols=3)
        assert config.solve_spec().resolved_solver() == "pcg"
        assert config.solve_spec(phi=1).resolved_solver() == "resilient_pcg"
        reference = run_reference(config)
        assert reference.n == 2
        assert reference.all_converged
        assert reference.mean_iterations > 0
        disturbed = run_with_failures(
            config, phi=2,
            scenario=FailureScenario(n_failures=2, progress_fraction=0.5,
                                     location=FailureLocation.CENTER),
            reference_iterations=int(reference.mean_iterations),
        )
        assert disturbed.all_converged
        assert disturbed.mean("recovery_time") > 0
        assert np.isfinite(disturbed.max_abs_residual_deviation())

    def test_failure_free_overhead_positive(self, config):
        reference = run_reference(config)
        undisturbed = run_failure_free(config, phi=2)
        assert undisturbed.all_converged
        assert undisturbed.mean() > reference.mean()

    def test_run_with_failures(self, config):
        scenario = FailureScenario(n_failures=2, progress_fraction=0.5,
                                   location=FailureLocation.START)
        result = run_with_failures(config, 2, scenario, reference_iterations=20)
        assert result.all_converged
        assert all(r.n_failures == 2 for r in result.repetitions)
        assert result.mean("recovery_time") > 0

    def test_repetitions_vary_with_jitter(self, config):
        result = run_reference(config)
        times = result.times()
        assert len(set(times)) > 1

    def test_summary_fields(self, config):
        summary = run_reference(config).summary()
        assert {"label", "mean_time", "std_time", "mean_iterations"} <= set(summary)


class TestMachineCalibration:
    """``build_machine`` scales the model to the paper's 8000 rows per
    node."""

    def test_small_problem_is_scaled_to_the_papers_rows_per_node(self):
        config = ExperimentConfig(n_nodes=16)
        assert config.build_machine(2500) == \
            MachineModel(jitter_rel_std=0.02).scaled(8000 * 16 / 2500)

    def test_large_problem_is_unscaled(self):
        config = ExperimentConfig(n_nodes=16)
        assert config.build_machine(200_000) == \
            MachineModel(jitter_rel_std=0.02)


class TestMatrixStudy:
    def test_study_quantities(self, study):
        assert study.t0 > 0
        for phi in (1, 2):
            overhead = study.undisturbed_overhead(phi)
            assert np.isfinite(overhead)
        assert study.undisturbed_overhead(2) >= study.undisturbed_overhead(1) - 5.0

    def test_reconstruction_and_failure_overheads(self, study):
        for phi in (1, 2):
            for location in ("start", "center"):
                mean_rec, std_rec = study.reconstruction_time(phi, location)
                mean_tot, _ = study.overhead_with_failures(phi, location)
                assert mean_rec > 0
                assert std_rec >= 0
                assert mean_tot > 0

    def test_residual_deviation_metrics(self, study):
        assert np.isfinite(study.max_delta_esr())
        assert np.isfinite(study.delta_pcg())

    def test_phi_capped_by_node_count(self, config):
        study = run_matrix_study(config, phis=(1, 99), locations=(FailureLocation.START,),
                                 fractions=(0.5,))
        assert list(study.undisturbed.keys()) == [1]


class TestSuiteMatrixBuiltOnce:
    """A suite study builds its matrix once: ``ExperimentConfig`` keeps it
    per ``(matrix_id, matrix_size, seed)``, however many runs it makes."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.harness import experiment

        calls = []
        original = experiment.build_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "build_matrix", counted)
        return calls

    @staticmethod
    def suite_config():
        return ExperimentConfig(matrix_id="M3", matrix_size=400, n_nodes=4,
                                repetitions=1, seed=3)

    def test_one_build_per_study(self, builds):
        run_matrix_study(self.suite_config(), phis=(1, 2),
                         locations=(FailureLocation.START,
                                    FailureLocation.CENTER),
                         fractions=(0.2, 0.8))
        assert len(builds) == 1

    def test_one_build_per_progress_sweep(self, builds):
        progress_sweep(self.suite_config(), phi=1, fractions=(0.2, 0.8))
        assert len(builds) == 1

    def test_a_changed_size_builds_its_own_matrix(self, builds):
        config = self.suite_config()
        first = config.build_matrix()
        assert config.build_matrix() is first
        config.matrix_size = 300
        assert config.build_matrix().shape != first.shape
        assert len(builds) == 2

    def test_the_cache_changes_neither_equality_nor_label(self):
        config = self.suite_config()
        config.build_matrix()
        assert config == self.suite_config()
        assert config.label() == "M3"


class TestTables:
    def test_table1(self):
        rows = table1_rows(ids=["M1", "M3"], n=600)
        text = render_table1(rows)
        assert "parabolic_fem" in text and "G3_circuit" in text

    def test_table2(self, study):
        rows = table2_rows([study])
        assert len(rows) == 2  # one per location
        for row in rows:
            assert row["t0"] == pytest.approx(study.t0)
            assert "undisturbed_overhead_phi1" in row
            assert "overhead_failures_phi2" in row
        text = render_table2([study])
        assert "Table 2" in text and "+/-" in text

    def test_table3(self, study):
        rows = table3_rows([study])
        assert len(rows) == 1
        text = render_table3([study])
        assert "Delta_PCG" in text

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3e-7]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        # title + header + separator + two data rows
        assert len(lines) == 5
        assert "3.00e-07" in lines[-1]


class TestFigures:
    def test_box_stats(self):
        box = BoxStats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert box.median == 3.0
        assert box.q1 <= box.median <= box.q3

    def test_figure_series(self, study):
        series = figure_series(study, FailureLocation.CENTER)
        assert series.phis() == [1, 2]
        assert series.reference_mean == pytest.approx(study.t0)
        overhead = series.relative_overhead(2)
        assert np.isfinite(overhead)
        assert "Figure panel" in series.render()

    def test_progress_sweep(self, config):
        sweep = progress_sweep(config, phi=1, location=FailureLocation.START,
                               fractions=(0.2, 0.8))
        assert sweep.fractions() == [0.2, 0.8]
        assert all(m > 0 for m in sweep.medians())
        assert np.isfinite(sweep.spread())
        assert "Figure 4" in sweep.render()
