"""Tests for the baseline recovery strategies (C/R, interpolation, restart)."""

import numpy as np
import pytest

from repro.baselines import (
    CheckpointConfig,
    CheckpointRestartPCG,
    FullRestartPCG,
    InterpolationRecoveryPCG,
    least_squares_interpolation,
    local_interpolation,
)
from repro.cluster import MachineModel, Phase
from repro.core import ResilienceSpec, ResilientBlockPCG
from repro.core.api import distribute_problem, solve
from repro.distributed import DistributedMultiVector, DistributedVector
from repro.matrices import poisson_2d
from repro.precond import make_preconditioner


@pytest.fixture
def matrix():
    return poisson_2d(18)  # n = 324


def fresh(matrix, n_nodes=6):
    return distribute_problem(matrix, n_nodes=n_nodes, seed=0,
                              machine=MachineModel(jitter_rel_std=0.0))


def build(cls, problem, failures=(), rhs=None, **kwargs):
    precond = make_preconditioner("block_jacobi")
    precond.setup(problem.matrix.to_global(), problem.partition)
    return cls(problem.matrix, problem.rhs if rhs is None else rhs, precond,
               failures=failures, **kwargs)


class TestCheckpointRestart:
    def test_failure_free_converges_with_checkpoint_overhead(self, matrix):
        problem = fresh(matrix)
        reference = solve(fresh(matrix), solver="pcg", preconditioner="block_jacobi")
        solver = build(CheckpointRestartPCG, problem,
                       config=CheckpointConfig(interval=10))
        result = solver.solve()
        assert result.converged
        assert result.iterations == reference.iterations
        assert result.time_breakdown.get(Phase.CHECKPOINT, 0.0) > 0
        assert result.simulated_time > reference.simulated_time

    def test_rollback_after_failure(self, matrix):
        problem = fresh(matrix)
        solver = build(CheckpointRestartPCG, problem, failures=[(15, [1, 2])],
                       config=CheckpointConfig(interval=10))
        result = solver.solve()
        assert result.converged
        assert len(result.recoveries) == 1
        # rolled back from iteration 15 to the checkpoint at 10 -> 5 lost
        assert result.info["iterations_lost"] == 5
        assert np.allclose(result.x, np.ones(problem.n), atol=1e-6)

    def test_loses_work_that_esr_does_not(self, matrix):
        reference = solve(fresh(matrix), solver="pcg", preconditioner="block_jacobi")
        cr_problem = fresh(matrix)
        cr = build(CheckpointRestartPCG, cr_problem, failures=[(14, [1, 2])],
                   config=CheckpointConfig(interval=8)).solve()
        esr = solve(fresh(matrix), solver="resilient_pcg", phi=2, failures=[(14, [1, 2])],
                              preconditioner="block_jacobi")
        # C/R throws away the iterations since the last checkpoint (and
        # re-executes them); ESR resumes exactly where the failure struck.
        assert cr.info["iterations_lost"] == 14 - 8
        assert esr.iterations <= reference.iterations + 1

    def test_rollback_before_first_interval_restarts_from_iteration_0(
            self, matrix):
        """The initial state is always checkpointed, so a failure before
        the first interval rolls back to it and the solve still converges."""
        reference = solve(fresh(matrix), solver="pcg")
        solver = build(CheckpointRestartPCG, fresh(matrix),
                       failures=[(5, [1, 2])],
                       config=CheckpointConfig(interval=10))
        result = solver.solve()
        assert result.converged
        assert result.info["iterations_lost"] == 5
        assert np.allclose(result.x, reference.x, atol=1e-8)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval=0)

    def test_checkpoint_count(self, matrix):
        problem = fresh(matrix)
        solver = build(CheckpointRestartPCG, problem,
                       config=CheckpointConfig(interval=20))
        result = solver.solve()
        assert result.info["checkpoints_taken"] == 1 + result.iterations // 20


class TestInterpolationRecovery:
    @pytest.mark.parametrize("method", ["li", "lsi"])
    def test_converges_after_failure(self, matrix, method):
        problem = fresh(matrix)
        solver = build(InterpolationRecoveryPCG, problem, method=method,
                       failures=[(12, [2, 3])])
        result = solver.solve()
        assert result.converged
        assert len(result.recoveries) == 1
        assert np.allclose(result.x, np.ones(problem.n), atol=1e-6)

    def test_needs_more_iterations_than_esr(self, matrix):
        problem = fresh(matrix)
        li = build(InterpolationRecoveryPCG, problem, method="li",
                   failures=[(12, [2, 3])]).solve()
        esr = solve(fresh(matrix), solver="resilient_pcg", phi=2, failures=[(12, [2, 3])],
                              preconditioner="block_jacobi")
        # Interpolation discards the Krylov space; ESR does not.
        assert li.iterations >= esr.iterations

    def test_invalid_method(self, matrix):
        problem = fresh(matrix)
        with pytest.raises(ValueError):
            build(InterpolationRecoveryPCG, problem, method="quadratic")

    def test_interpolation_helpers_accuracy(self, matrix):
        rng = np.random.default_rng(0)
        n = matrix.shape[0]
        x_true = rng.standard_normal(n)
        b = matrix @ x_true
        failed = np.arange(54, 108)
        li = local_interpolation(matrix, b, x_true, failed)
        lsi = least_squares_interpolation(matrix, b, x_true, failed)
        # With the exact surviving entries, both interpolations recover the
        # lost entries exactly (the residual is zero).
        assert np.allclose(li, x_true[failed], atol=1e-8)
        assert np.allclose(lsi, x_true[failed], atol=1e-6)

    def test_recovery_charges_cost(self, matrix):
        problem = fresh(matrix)
        solver = build(InterpolationRecoveryPCG, problem, method="li",
                       failures=[(10, [1])])
        result = solver.solve()
        assert result.simulated_recovery_time > 0


class TestFullRestart:
    def test_converges_after_failure(self, matrix):
        problem = fresh(matrix)
        solver = build(FullRestartPCG, problem, failures=[(15, [0, 1])])
        result = solver.solve()
        assert result.converged
        assert len(result.recoveries) == 1
        assert result.info["iterations_lost"] == 15
        assert np.allclose(result.x, np.ones(problem.n), atol=1e-6)

    def test_iterations_lost_count_each_restart_once(self, matrix):
        """Each restart discards the iterations since the previous one, so
        the lost iterations are those beyond the failure-free solve."""
        reference = solve(fresh(matrix), solver="pcg",
                          preconditioner="block_jacobi")
        result = build(FullRestartPCG, fresh(matrix),
                       failures=[(15, [0, 1]), (30, [2])]).solve()
        assert result.converged
        assert len(result.recoveries) == 2
        assert result.info["iterations_lost"] == 15 + 15
        assert result.info["iterations_lost"] == \
            result.iterations - reference.iterations

    def test_most_expensive_strategy(self, matrix):
        problem = fresh(matrix)
        restart = build(FullRestartPCG, problem, failures=[(15, [1, 2])]).solve()
        esr = solve(fresh(matrix), solver="resilient_pcg", phi=2, failures=[(15, [1, 2])],
                              preconditioner="block_jacobi")
        assert restart.iterations > esr.iterations

    def test_failure_free_equals_reference_iterations(self, matrix):
        problem = fresh(matrix)
        reference = solve(fresh(matrix), solver="pcg", preconditioner="block_jacobi")
        result = build(FullRestartPCG, problem).solve()
        assert result.iterations == reference.iterations


class TestEachSolveReportsItsOwnEpisodes:
    """A second solve on one recovering solver, whose failures already
    struck in the first, reports no recovery and no lost work."""

    FAILURES = [(5, [1, 2])]

    @pytest.fixture
    def problem(self):
        return fresh(poisson_2d(16), n_nodes=8)

    def test_resilient(self, problem):
        solver = ResilientBlockPCG(
            problem.matrix, problem.rhs,
            resilience=ResilienceSpec(phi=2, failures=self.FAILURES))
        first, second = solver.solve(), solver.solve()
        assert first.n_failures_recovered == 2
        assert second.recoveries == [] and second.n_failures_recovered == 0
        assert second.simulated_recovery_time == 0.0

    def test_checkpoint_restart(self, problem):
        solver = build(CheckpointRestartPCG, problem, failures=self.FAILURES,
                       config=CheckpointConfig(interval=3))
        first, second = solver.solve(), solver.solve()
        assert first.info["iterations_lost"] == 2
        assert second.recoveries == []
        assert second.info["iterations_lost"] == 0
        assert second.info["checkpoints_taken"] == 1 + second.iterations // 3

    def test_full_restart(self, problem):
        solver = build(FullRestartPCG, problem, failures=self.FAILURES)
        first, second = solver.solve(), solver.solve()
        assert first.info["iterations_lost"] == 5
        assert second.recoveries == []
        assert second.info["iterations_lost"] == 0

    def test_interpolation(self, problem):
        solver = build(InterpolationRecoveryPCG, problem,
                       failures=self.FAILURES)
        first, second = solver.solve(), solver.solve()
        assert first.n_failures_recovered == 2
        assert second.recoveries == [] and second.n_failures_recovered == 0
        assert second.simulated_recovery_time == 0.0


class TestHookChaining:
    """Baseline hook overrides must chain to the base protocol (R010).

    The solver hooks are cooperative: an override that drops
    ``super().<hook>()`` silently disconnects every other participant in
    the MRO.  Regression for the overrides fixed when rule R010 landed.
    """

    CASES = [
        (CheckpointRestartPCG, {"config": CheckpointConfig(interval=10)}),
        (InterpolationRecoveryPCG, {}),
        (FullRestartPCG, {}),
    ]

    @pytest.mark.parametrize("cls,kwargs", CASES)
    def test_base_hooks_fire_through_super(self, matrix, monkeypatch,
                                           cls, kwargs):
        from repro.core.pcg import DistributedPCG
        fired = set()
        originals = {
            "_on_setup": DistributedPCG._on_setup,
            "_handle_failures": DistributedPCG._handle_failures,
            "_after_iteration": DistributedPCG._after_iteration,
        }

        def record(name):
            def hook(self, *args, **kw):
                fired.add(name)
                return originals[name](self, *args, **kw)
            return hook

        for name in originals:
            monkeypatch.setattr(DistributedPCG, name, record(name))

        problem = fresh(matrix)
        result = build(cls, problem, failures=[(12, [2])], **kwargs).solve()
        assert result.converged
        # Every base hook ran, i.e. no override swallowed the chain.
        assert fired == set(originals)

    @pytest.mark.parametrize("cls,kwargs", CASES)
    def test_recovery_restores_through_blockstore(self, matrix, cls, kwargs):
        from repro import sanitizer

        problem = fresh(matrix)
        solver = build(cls, problem, failures=[(12, [2])], **kwargs)
        with sanitizer.sanitized() as san:
            result = solver.solve()
        assert result.converged
        # Recovery writes go through restore_block, which notifies the
        # runtime sanitizer (raw set_block would leave this stat at 0).
        assert san.stats["blocks_restored"] > 0


class TestBlockRightHandSides:
    """The baselines run on the one PCG core, so they take (n, k) blocks."""

    @pytest.mark.parametrize("cls,kwargs", TestHookChaining.CASES)
    def test_columns_bit_identical_to_single_rhs_runs(self, matrix, cls,
                                                      kwargs):
        rhs = np.random.default_rng(1).standard_normal((matrix.shape[0], 2))
        problem = fresh(matrix)
        block = build(cls, problem, failures=[(12, [2])],
                      rhs=DistributedMultiVector.from_global(
                          problem.cluster, problem.partition, "B", rhs),
                      **kwargs).solve()
        for j in range(rhs.shape[1]):
            single_problem = fresh(matrix)
            single = build(cls, single_problem, failures=[(12, [2])],
                           rhs=DistributedVector.from_global(
                               single_problem.cluster,
                               single_problem.partition, "b", rhs[:, j]),
                           **kwargs).solve()
            assert block.converged[j] and single.converged
            assert block.residual_histories[j] == single.residual_norms
            assert np.array_equal(block.x[:, j], single.x)

    @pytest.mark.parametrize("cls,kwargs", [
        (FullRestartPCG, {}), (InterpolationRecoveryPCG, {"method": "li"})])
    def test_converged_column_iterates_again_after_restart(self, matrix, cls,
                                                           kwargs):
        """A restart rewrites every column's iterate, so a column that had
        already converged must not stay frozen on the rewritten one."""
        b = matrix @ np.ones(matrix.shape[0])
        rhs = np.column_stack([1e-6 * b, b])
        rtol, atol = 1e-8, 1e-9  # column 0 converges on atol, early
        problem = fresh(matrix)
        solver = build(cls, problem, failures=[(15, [1, 2])],
                       rhs=DistributedMultiVector.from_global(
                           problem.cluster, problem.partition, "B", rhs),
                       rtol=rtol, atol=atol, **kwargs)
        result = solver.solve()
        # Column 0 had converged before the failure and iterated again.
        assert any(v <= atol for v in result.residual_histories[0][:-1])
        for j in range(2):
            assert result.converged[j]
            assert np.linalg.norm(rhs[:, j] - matrix @ result.x[:, j]) <= \
                10 * max(rtol * np.linalg.norm(rhs[:, j]), atol)

    def test_nonfinite_column_stays_frozen_across_a_restart(self, matrix):
        """A restart reactivates converged columns, not non-finite ones;
        the healthy column still matches its single-rhs run."""
        rhs = np.random.default_rng(2).standard_normal((matrix.shape[0], 2))
        rhs[3, 1] = np.nan
        problem = fresh(matrix)
        result = build(FullRestartPCG, problem, failures=[(12, [2])],
                       rhs=DistributedMultiVector.from_global(
                           problem.cluster, problem.partition, "B", rhs)
                       ).solve()
        assert result.converged == [True, False]
        assert result.info["nonfinite_columns"] == [1]
        assert result.iterations[1] == 0
        single_problem = fresh(matrix)
        single = build(FullRestartPCG, single_problem, failures=[(12, [2])],
                       rhs=DistributedVector.from_global(
                           single_problem.cluster, single_problem.partition,
                           "b", rhs[:, 0])).solve()
        assert result.residual_histories[0] == single.residual_norms
        assert np.array_equal(result.x[:, 0], single.x)
