"""Tests for the distributed PCG solver (reference runs)."""

import numpy as np
import pytest

from repro.cluster import MachineModel, Phase
from repro.core.api import distribute_problem, solve
from repro.core.pcg import DistributedPCG
from repro.matrices import poisson_2d, graph_laplacian_spd
from repro.precond import Preconditioner, make_preconditioner
from repro.solvers import pcg


@pytest.fixture
def problem():
    return distribute_problem(poisson_2d(20), n_nodes=5, seed=0,
                              machine=MachineModel(jitter_rel_std=0.0))


class TestNumerics:
    def test_converges(self, problem):
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert result.converged
        assert result.final_residual_norm <= 1e-8 * result.residual_norms[0]

    def test_solution_solves_system(self, problem):
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        a = problem.matrix.to_global()
        b = problem.rhs.to_global()
        assert np.linalg.norm(b - a @ result.x) / np.linalg.norm(b) < 1e-7

    def test_matches_sequential_pcg_iterate_for_iterate(self):
        """The distributed solver must replicate the sequential recurrence."""
        a = poisson_2d(14)
        b = np.sin(np.arange(a.shape[0]))
        problem = distribute_problem(a, b, n_nodes=4, seed=0,
                                     machine=MachineModel(jitter_rel_std=0.0))
        precond = make_preconditioner("jacobi")
        precond.setup(a, problem.partition)
        dist_solver = DistributedPCG(problem.matrix, problem.rhs, precond,
                                     rtol=1e-8)
        dist_result = dist_solver.solve()

        seq_precond = make_preconditioner("jacobi")
        seq_precond.setup(a)
        seq_result = pcg(a, b, preconditioner=seq_precond, rtol=1e-8)

        assert dist_result.iterations == seq_result.iterations
        assert np.allclose(dist_result.residual_norms, seq_result.residual_norms,
                           rtol=1e-10)
        assert np.allclose(dist_result.x, seq_result.x, rtol=1e-10, atol=1e-12)

    def test_identity_preconditioner(self, problem):
        result = solve(problem, solver="pcg", preconditioner="identity")
        assert result.converged

    def test_custom_rhs(self):
        a = poisson_2d(12)
        rhs = np.random.default_rng(0).standard_normal(a.shape[0])
        problem = distribute_problem(a, rhs, n_nodes=4)
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert np.allclose(a @ result.x, rhs, atol=1e-5)

    def test_irregular_matrix(self):
        a = graph_laplacian_spd(200, avg_degree=5, seed=0)
        problem = distribute_problem(a, n_nodes=4)
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert result.converged

    def test_max_iterations_cap(self, problem):
        result = solve(problem, solver="pcg", preconditioner="identity",
                                 max_iterations=2)
        assert result.iterations == 2
        assert not result.converged

    def test_initial_guess(self, problem):
        precond = make_preconditioner("block_jacobi")
        solver = DistributedPCG(problem.matrix, problem.rhs, precond)
        exact = np.ones(problem.n)  # rhs was A @ ones
        result = solver.solve(x0=exact)
        assert result.iterations == 0
        assert result.converged

    def test_non_block_diagonal_preconditioner_rejected(self, problem):
        class Coupled(Preconditioner):
            """A global operator: not block-diagonal."""

            def apply(self, residual):
                return residual.copy()

        with pytest.raises(ValueError, match="block-diagonal"):
            DistributedPCG(problem.matrix, problem.rhs, Coupled())


class TestCostAccounting:
    def test_simulated_time_positive_and_decomposed(self, problem):
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert result.simulated_time > 0
        assert result.simulated_recovery_time == 0.0
        assert result.simulated_iteration_time == pytest.approx(
            result.simulated_time, rel=1e-12
        )
        assert Phase.SPMV_COMPUTE in result.time_breakdown
        assert Phase.ALLREDUCE_COMM in result.time_breakdown

    def test_no_redundancy_phase_for_reference(self, problem):
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert result.time_breakdown.get(Phase.REDUNDANCY_COMM, 0.0) == 0.0

    def test_breakdown_sums_to_total(self, problem):
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert sum(result.time_breakdown.values()) == pytest.approx(
            result.simulated_time, rel=1e-9
        )

    def test_second_solve_reports_only_its_own_phases(self, problem):
        """The breakdown of a later solve on the same cluster must not carry
        stale zero-delta phases charged by an earlier solve."""

        first = solve(problem, solver="resilient_pcg", phi=2, preconditioner="block_jacobi")
        assert first.time_breakdown.get(Phase.REDUNDANCY_COMM, 0.0) > 0
        second = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert Phase.REDUNDANCY_COMM not in second.time_breakdown
        assert all(value > 0 for value in second.time_breakdown.values())
        assert sum(second.time_breakdown.values()) == pytest.approx(
            second.simulated_time, rel=1e-9
        )

    def test_more_nodes_more_collective_cost_per_iteration(self):
        a = poisson_2d(20)
        times = {}
        for n_nodes in (2, 8):
            problem = distribute_problem(a, n_nodes=n_nodes,
                                         machine=MachineModel(jitter_rel_std=0.0))
            result = solve(problem, solver="pcg", preconditioner="jacobi")
            times[n_nodes] = result.time_breakdown[Phase.ALLREDUCE_COMM] \
                / result.iterations
        assert times[8] > times[2]

    def test_result_info_fields(self, problem):
        result = solve(problem, solver="pcg", preconditioner="block_jacobi")
        assert result.info["n_nodes"] == 5
        assert result.info["preconditioner"] == "block_jacobi"
        assert result.n_failures_recovered == 0
