"""End-to-end integration tests spanning all subsystems.

These exercise the full pipeline -- suite matrix -> distributed problem ->
resilient solve with injected multi-node failures -> recovery -> convergence
-- the way the benchmarks and examples use the library.
"""

import numpy as np
import pytest

from repro.analysis import analyze_overhead, sparsity_report
from repro.cluster import MachineModel, Phase
from repro.core.api import distribute_problem, solve
from repro.core.metrics import compare_runs
from repro.failures import FailureLocation, FailureScenario, resolve_events
from repro.matrices import build_matrix, poisson_2d
from repro.precond import PRECONDITIONERS


MACHINE = MachineModel(jitter_rel_std=0.0)


@pytest.fixture(scope="module", params=["M3", "M5"])
def suite_case(request):
    """A small analogue of a sparse (M3) and a dense-band (M5) suite matrix."""
    matrix = build_matrix(request.param, n=1200, seed=1)
    return request.param, matrix


class TestSuiteMatrixEndToEnd:
    def test_reference_and_resilient_agree(self, suite_case):
        matrix_id, matrix = suite_case
        reference = solve(
            distribute_problem(matrix, n_nodes=8, machine=MACHINE), solver="pcg",
            preconditioner="block_jacobi",
        )
        assert reference.converged

        scenario = FailureScenario(n_failures=3, progress_fraction=0.5,
                                   location=FailureLocation.CENTER)
        events = resolve_events(scenario, n_nodes=8,
                                reference_iterations=reference.iterations)
        resilient = solve(
            distribute_problem(matrix, n_nodes=8, machine=MACHINE), solver="resilient_pcg",
            phi=3, failures=events, preconditioner="block_jacobi",
        )
        assert resilient.converged
        assert resilient.n_failures_recovered == 3
        comparison = compare_runs(reference, resilient)
        assert comparison.solution_relative_difference < 1e-6
        assert abs(resilient.relative_residual_deviation) < 1e-3

    def test_overhead_ordering_matches_paper_regimes(self):
        """The circuit-like analogue pays more relative redundancy than the
        structural analogue -- the qualitative claim of Table 2 / Sec. 5.

        The machine model is scaled to the paper's rows-per-node regime so
        that per-iteration compute (not collective latency) sets the baseline,
        as on the real 128-node runs.
        """
        overheads = {}
        for matrix_id in ("M3", "M8"):
            matrix = build_matrix(matrix_id, n=1500, seed=0)
            scale = 8000 / (matrix.shape[0] / 8)
            machine = MACHINE.scaled(scale)
            reference = solve(
                distribute_problem(matrix, n_nodes=8, machine=machine), solver="pcg",
                preconditioner="block_jacobi",
            )
            resilient = solve(
                distribute_problem(matrix, n_nodes=8, machine=machine), solver="resilient_pcg",
                phi=3, preconditioner="block_jacobi",
            )
            overheads[matrix_id] = (
                resilient.simulated_time - reference.simulated_time
            ) / reference.simulated_time
        assert overheads["M3"] > overheads["M8"]

    def test_analysis_consistent_with_measured_redundancy(self, suite_case):
        _, matrix = suite_case
        problem = distribute_problem(matrix, n_nodes=8, machine=MACHINE)
        analysis = analyze_overhead(problem.matrix, 2)
        result = solve(problem, solver="resilient_pcg", phi=2, preconditioner="block_jacobi")
        charged = result.time_breakdown.get(Phase.REDUNDANCY_COMM, 0.0)
        expected = analysis.per_iteration_time * result.iterations
        assert charged == pytest.approx(expected, rel=1e-6)

    def test_sparsity_report_runs(self, suite_case):
        _, matrix = suite_case
        problem = distribute_problem(matrix, n_nodes=8, machine=MACHINE)
        report = sparsity_report(problem.matrix, 3)
        assert 0.0 <= report.natural_coverage <= 1.0


class TestPreconditionerVariants:
    @pytest.mark.parametrize("preconditioner, tolerance", [
        ("block_jacobi", 1e-6),
        ("block_jacobi_ilu", 1e-6),
        ("jacobi", 1e-6),
        ("identity", 1e-6),
    ])
    def test_recovery_for_each_preconditioner(self, preconditioner, tolerance):
        matrix = build_matrix("M1", n=900, seed=2)
        problem = distribute_problem(matrix, n_nodes=6, machine=MACHINE)
        result = solve(problem, solver="resilient_pcg", phi=2, preconditioner=preconditioner,
                                 failures=[(6, [2, 3])])
        assert result.converged
        assert result.n_failures_recovered == 2
        a = problem.matrix.to_global()
        b = problem.rhs.to_global()
        relres = np.linalg.norm(b - a @ result.x) / np.linalg.norm(b)
        assert relres < tolerance

    @pytest.mark.parametrize("preconditioner", sorted(PRECONDITIONERS))
    def test_recovery_is_exact_for_every_preconditioner(self, preconditioner):
        """A recovered solve takes the failure-free iteration count and
        meets its threshold in the true residual: the reconstruction reads
        rows of the operator each preconditioner applies (for ILU block
        solves, the factorization's product, not the exact block)."""
        def run(failures):
            problem = distribute_problem(poisson_2d(24), n_nodes=8,
                                         machine=MACHINE)
            return problem, solve(problem, solver="resilient_pcg", phi=2,
                                  preconditioner=preconditioner,
                                  failures=failures)

        _, failure_free = run([])
        problem, result = run([(10, [1, 2])])
        assert result.n_failures_recovered == 2
        assert result.converged
        assert result.iterations == failure_free.iterations
        a = problem.matrix.to_global()
        b = problem.rhs.to_global()
        assert np.linalg.norm(b - a @ result.x) <= result.info["threshold"]

    @pytest.mark.parametrize("preconditioner", sorted(PRECONDITIONERS))
    def test_block_recovery_is_exact_for_every_preconditioner(
            self, preconditioner):
        """The same for a k = 3 block solve: every column takes its
        failure-free iteration count and meets its own threshold."""
        rhs = np.random.default_rng(3).standard_normal((576, 3))

        def run(failures):
            problem = distribute_problem(poisson_2d(24), n_nodes=8,
                                         machine=MACHINE)
            return problem, solve(problem, rhs,
                                  solver="resilient_pcg", phi=2,
                                  preconditioner=preconditioner,
                                  failures=failures)

        _, failure_free = run([])
        problem, result = run([(10, [1, 2])])
        assert result.n_failures_recovered == 2
        assert all(result.converged)
        assert result.iterations == failure_free.iterations
        residuals = np.linalg.norm(
            rhs - problem.matrix.to_global() @ result.x, axis=0)
        assert np.all(residuals <= np.asarray(result.info["thresholds"]))


class TestEightFailures:
    def test_eight_simultaneous_failures_on_16_nodes(self):
        """The paper's largest failure count: psi = phi = 8."""
        matrix = build_matrix("M4", n=1600, seed=3)
        problem = distribute_problem(matrix, n_nodes=16, machine=MACHINE)
        reference = solve(
            distribute_problem(matrix, n_nodes=16, machine=MACHINE), solver="pcg",
            preconditioner="block_jacobi",
        )
        scenario = FailureScenario(n_failures=8, progress_fraction=0.2,
                                   location=FailureLocation.CENTER)
        events = resolve_events(scenario, n_nodes=16,
                                reference_iterations=reference.iterations)
        result = solve(problem, solver="resilient_pcg", phi=8, failures=events,
                                 preconditioner="block_jacobi")
        assert result.converged
        assert result.n_failures_recovered == 8
        assert np.allclose(result.x, reference.x, atol=1e-5)
