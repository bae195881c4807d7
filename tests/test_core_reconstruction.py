"""Tests for the ESR reconstruction (Alg. 2 and its multi-failure extension).

The central property: after psi <= phi simultaneous node failures, the
reconstructed state (x, r, z, p) matches the pre-failure state to (near)
machine precision, for every preconditioner form the paper discusses.
"""

import numpy as np
import pytest

from repro.cluster import FailureEvent, MachineModel
from repro.core.api import distribute_problem
from repro.core.metrics import state_difference
from repro.core.resilient_pcg import ResilientPCG
from repro.core.spec import ResilienceSpec
from repro.matrices import poisson_2d, graph_laplacian_spd, elasticity_3d
from repro.precond import IdentityPreconditioner, make_preconditioner
from repro.precond.base import PreconditionerForm


def run_with_state_check(matrix, *, n_nodes, phi, failed_ranks, failure_iteration,
                         preconditioner="block_jacobi", placement="paper"):
    """Run ResilientPCG and capture the state right before/after recovery."""
    problem = distribute_problem(matrix, n_nodes=n_nodes, seed=0,
                                 machine=MachineModel(jitter_rel_std=0.0))
    precond = make_preconditioner(preconditioner)
    precond.setup(problem.matrix.to_global(), problem.partition)
    resilience = ResilienceSpec(
        phi=phi, placement=placement,
        failures=[FailureEvent(failure_iteration, tuple(failed_ranks))])
    solver = ResilientPCG(problem.matrix, problem.rhs, precond,
                          resilience=resilience)
    captured = {}
    original = solver._handle_failures

    def patched(iteration):
        due = solver.failure_injector.events_due(iteration) if \
            solver.failure_injector else []
        if due:
            captured["before"] = {
                "x": solver.x.to_global(), "r": solver.r.to_global(),
                "z": solver.z.to_global(), "p": solver.p.to_global(),
            }
            handled = original(iteration)
            captured["after"] = {
                "x": solver.x.to_global(), "r": solver.r.to_global(),
                "z": solver.z.to_global(), "p": solver.p.to_global(),
            }
            return handled
        return original(iteration)

    solver._handle_failures = patched
    result = solver.solve()
    return result, captured, solver


class TestExactReconstruction:
    @pytest.mark.parametrize("failed_ranks", [[2], [2, 3], [1, 3, 5]])
    def test_block_jacobi_forward_form(self, failed_ranks):
        result, captured, _ = run_with_state_check(
            poisson_2d(18), n_nodes=6, phi=3, failed_ranks=failed_ranks,
            failure_iteration=8,
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-9 for v in diffs.values()), diffs
        assert result.converged
        assert abs(result.relative_residual_deviation) < 1e-5

    def test_jacobi_inverse_form(self):
        result, captured, _ = run_with_state_check(
            poisson_2d(18), n_nodes=6, phi=2, failed_ranks=[0, 1],
            failure_iteration=10, preconditioner="jacobi",
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-9 for v in diffs.values()), diffs
        assert result.converged

    def test_identity_form(self):
        result, captured, _ = run_with_state_check(
            poisson_2d(18), n_nodes=6, phi=2, failed_ranks=[4, 5],
            failure_iteration=12, preconditioner="identity",
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-9 for v in diffs.values()), diffs
        assert result.converged

    def test_failure_at_iteration_zero(self):
        result, captured, _ = run_with_state_check(
            poisson_2d(16), n_nodes=4, phi=1, failed_ranks=[2],
            failure_iteration=0,
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-9 for v in diffs.values()), diffs
        assert result.converged

    def test_irregular_matrix_multiple_failures(self):
        result, captured, _ = run_with_state_check(
            graph_laplacian_spd(240, avg_degree=5, seed=3), n_nodes=8, phi=3,
            failed_ranks=[3, 4, 5], failure_iteration=15,
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-8 for v in diffs.values()), diffs
        assert result.converged

    def test_wide_band_matrix(self):
        result, captured, _ = run_with_state_check(
            elasticity_3d(4, 4, 4, dofs_per_node=3, seed=1), n_nodes=6, phi=3,
            failed_ranks=[0, 1, 2], failure_iteration=4,
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-9 for v in diffs.values()), diffs

    def test_next_ranks_placement(self):
        result, captured, _ = run_with_state_check(
            poisson_2d(16), n_nodes=4, phi=2, failed_ranks=[1, 2],
            failure_iteration=7, placement="next_ranks",
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-9 for v in diffs.values()), diffs

    def test_random_placement(self):
        result, captured, _ = run_with_state_check(
            poisson_2d(16), n_nodes=8, phi=3, failed_ranks=[2, 3, 4],
            failure_iteration=7, placement="random",
        )
        diffs = state_difference(captured["before"], captured["after"])
        assert all(v < 1e-9 for v in diffs.values()), diffs


class TestReconstructionFormSelection:
    """Each preconditioner reconstructs through its own form."""

    @pytest.mark.parametrize("as_block", [False, True],
                             ids=["vector", "block"])
    def test_identity_form_is_exact_for_identity(self, as_block):
        """With M = I the identity form recovers r = z exactly: the
        failure-free iteration count and the threshold are kept."""
        import repro

        def run(failures):
            problem = distribute_problem(
                poisson_2d(12), n_nodes=4, seed=0,
                machine=MachineModel(jitter_rel_std=0.0))
            b = problem.rhs.to_global()
            return problem, b, repro.solve(
                problem, b[:, None] if as_block else None,
                solver="resilient_pcg", phi=2, preconditioner="identity",
                failures=failures)

        _, _, failure_free = run([])
        problem, b, result = run([(6, [1, 2])])
        assert result.n_failures_recovered == 2
        assert result.recoveries[0].reconstruction_form == "identity"
        assert result.iterations == failure_free.iterations
        # A one-column block is answered as a block.
        assert result.x.shape == ((len(b), 1) if as_block else (len(b),))
        x = np.reshape(result.x, (len(b), -1))
        true_residual = np.linalg.norm(
            b[:, None] - problem.matrix.to_global() @ x, axis=0)
        thresholds = result.info.get("thresholds",
                                     [result.info.get("threshold")])
        assert np.all(result.converged)
        assert np.all(true_residual <= np.asarray(thresholds))

    def test_split_form_is_gone(self):
        assert [form.value for form in PreconditionerForm] == [
            "identity", "inverse", "forward"]

    @pytest.mark.parametrize("name,expected", [
        ("block_jacobi", "forward"), ("block_jacobi_ilu", "forward"),
        ("jacobi", "inverse"), ("identity", "identity"),
    ])
    def test_natural_forms_pass_through(self, name, expected):
        import repro
        assert make_preconditioner(name).form is PreconditionerForm(expected)
        problem = distribute_problem(poisson_2d(12), n_nodes=4, seed=0,
                                     machine=MachineModel(jitter_rel_std=0.0))
        result = repro.solve(problem, phi=2, preconditioner=name,
                             failures=[(6, [1, 2])])
        assert result.converged
        assert [report.reconstruction_form
                for report in result.recoveries] == [expected]

    @pytest.mark.parametrize("form,accessor", [("forward", "forward_rows"),
                                               ("inverse", "inverse_rows")])
    def test_missing_row_accessor_fails_at_set_up(self, form, accessor):
        """A block-diagonal preconditioner without the rows its form reads
        is refused before the solve runs, not mid-recovery after the failed
        nodes were replaced."""
        import repro

        class Unreadable(IdentityPreconditioner):
            name = "unreadable"

            @property
            def form(self):
                return PreconditionerForm(form)

        problem = distribute_problem(poisson_2d(12), n_nodes=4, seed=0,
                                     machine=MachineModel(jitter_rel_std=0.0))
        before = problem.cluster.ledger.snapshot()
        with pytest.raises(TypeError,
                           match=f"Unreadable .*{form}.*{accessor}"):
            repro.solve(problem, phi=2, preconditioner=Unreadable(),
                        failures=[(6, [1, 2])])
        assert problem.cluster.ledger.snapshot() == before


class TestRecoveryReports:
    def test_report_contents(self):
        result, _, solver = run_with_state_check(
            poisson_2d(18), n_nodes=6, phi=3, failed_ranks=[1, 2, 3],
            failure_iteration=9,
        )
        assert len(result.recoveries) == 1
        report = result.recoveries[0]
        assert sorted(report.failed_ranks) == [1, 2, 3]
        assert report.iteration == 9
        assert report.restarts == 0
        assert report.simulated_time > 0
        assert report.reconstruction_form == "forward"
        assert len(report.local_solve_stats) >= 1

    def test_replacement_nodes_installed(self):
        _, _, solver = run_with_state_check(
            poisson_2d(18), n_nodes=6, phi=2, failed_ranks=[2, 4],
            failure_iteration=6,
        )
        assert solver.cluster.failed_ranks() == []
        from repro.cluster import NodeStatus
        assert solver.cluster.node(2).status is NodeStatus.REPLACEMENT
        assert solver.cluster.node(4).status is NodeStatus.REPLACEMENT

    def test_recovery_time_charged(self):
        result, _, _ = run_with_state_check(
            poisson_2d(18), n_nodes=6, phi=1, failed_ranks=[3],
            failure_iteration=5,
        )
        assert result.simulated_recovery_time > 0
        assert result.simulated_time > result.simulated_iteration_time
