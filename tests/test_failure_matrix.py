"""Systematic failure-scenario matrix for the resilient solvers.

One parametrized grid replaces the ad-hoc failure scenario tests:

    {single, multiple-simultaneous, overlapping/sequential,
     failure-during-recovery}
  x {resilient_pcg, resilient_block_pcg}
  x {SpMV kernel: the cached engine / the dense-gather oracle of
     ``tests/conftest.py``}
  x {every registered preconditioner: identity, jacobi, block_jacobi,
     block_jacobi_ilu}

Every cell asserts the same three properties:

* **convergence** -- the solve converges and recovered exactly the scheduled
  failures, each episode reconstructing through the preconditioner's own
  form (identity r = z, Jacobi's inverse rows, block Jacobi's forward rows);
* **recovered-state bit-equality** -- the whole failure/recovery path is
  deterministic: a rerun of the identical scenario on a fresh cluster
  produces bit-identical iterates and residual histories;
* **ledger phase sums** -- the per-phase breakdown sums to the total
  simulated time, recovery phases were actually charged, and
  iteration + recovery phases account for the entire run.

Both kernels run serialized SpMVs, the solvers' only SpMV path, and every
cell is part of the blocking tier-1 suite.
"""

import numpy as np
import pytest

from repro.cluster import (
    FailureEvent,
    MachineModel,
    Phase,
    VirtualCluster,
)
from repro.core import ResilienceSpec, ResilientBlockPCG, ResilientPCG
from repro.distributed import (
    BlockRowPartition,
    DistributedMatrix,
    DistributedMultiVector,
    DistributedVector,
)
from repro.matrices import poisson_2d
from repro.precond import PRECONDITIONERS, make_preconditioner

N_NODES = 4
N_GRID = 12  # n = 144
PHI = 2
K_BLOCK = 2

#: scenario name -> failure events (iteration, ranks[, during_recovery_of]).
SCENARIOS = {
    "single": [FailureEvent(5, (2,))],
    "multi_simultaneous": [FailureEvent(5, (1, 2))],
    "sequential": [FailureEvent(3, (0,)), FailureEvent(9, (3,))],
    "during_recovery": [FailureEvent(6, (1,)),
                        FailureEvent(6, (3,), during_recovery_of=0)],
}

SOLVERS = ("resilient_pcg", "resilient_block_pcg")

#: Every registered preconditioner; each reconstructs through its own form.
PRECONDITIONER_NAMES = PRECONDITIONERS.names()

#: SpMV kernels: the cached engine, or the dense-gather oracle.
EXECUTION_PATHS = [
    pytest.param(True, id="serialized-engine"),
    pytest.param(False, id="serialized-reference"),
]


def run_scenario(solver_name, events, *, preconditioner, seed=0):
    """One resilient solve of the scenario on a completely fresh cluster."""
    a = poisson_2d(N_GRID)
    n = a.shape[0]
    partition = BlockRowPartition(n, N_NODES)
    cluster = VirtualCluster(N_NODES, machine=MachineModel(jitter_rel_std=0.0))
    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    precond = make_preconditioner(preconditioner)
    precond.setup(a, partition)
    resilience = ResilienceSpec(phi=PHI, failures=events)
    rng = np.random.default_rng(seed)
    if solver_name == "resilient_pcg":
        rhs = DistributedVector.from_global(
            cluster, partition, "b", rng.standard_normal(n))
        solver = ResilientPCG(dist, rhs, precond, resilience=resilience)
    else:
        rhs = DistributedMultiVector.from_global(
            cluster, partition, "B", rng.standard_normal((n, K_BLOCK)))
        solver = ResilientBlockPCG(dist, rhs, precond, resilience=resilience)
    result = solver.solve()
    assert not solver.failure_injector.pending_events(), \
        "scenario events must fire mid-solve"
    return result


def true_residuals(solver_name, result, *, seed=0):
    """``||b - A x||`` per column, on the system :func:`run_scenario` built."""
    a = poisson_2d(N_GRID)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    shape = n if solver_name == "resilient_pcg" else (n, K_BLOCK)
    b = np.reshape(rng.standard_normal(shape), (n, -1))
    x = np.reshape(result.x, b.shape)
    return np.linalg.norm(b - a @ x, axis=0)


def converged_of(result):
    converged = result.converged
    return all(converged) if isinstance(converged, list) else converged


def histories_of(result):
    if hasattr(result, "residual_histories"):
        return result.residual_histories
    return result.residual_norms


@pytest.mark.parametrize("preconditioner", PRECONDITIONER_NAMES)
@pytest.mark.parametrize("engine", EXECUTION_PATHS)
@pytest.mark.parametrize("solver_name", SOLVERS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestFailureMatrix:
    def test_scenario(self, scenario, solver_name, engine, preconditioner,
                      request):
        if not engine:
            request.getfixturevalue("solvers_on_dense_gather")
        events = SCENARIOS[scenario]
        result = run_scenario(solver_name, events,
                              preconditioner=preconditioner)

        # -- convergence and complete recovery ------------------------------
        assert converged_of(result)
        # A reconstruction through the wrong rows would still be reported
        # converged; the true residual of the returned x would not be small.
        thresholds = result.info.get("thresholds",
                                     [result.info.get("threshold")])
        assert np.all(true_residuals(solver_name, result)
                      <= np.asarray(thresholds))
        expected_failures = sum(len(e.ranks) for e in events)
        assert result.n_failures_recovered == expected_failures
        n_episodes = len({e.iteration for e in events
                          if e.during_recovery_of is None})
        assert len(result.recoveries) == n_episodes
        form = make_preconditioner(preconditioner).form.value
        assert [report.reconstruction_form
                for report in result.recoveries] == [form] * n_episodes
        if scenario == "during_recovery":
            assert result.recoveries[0].restarts >= 1
            assert any("overlapping" in note
                       for note in result.recoveries[0].notes)

        # -- recovered-state bit-equality (deterministic recovery) ----------
        rerun = run_scenario(solver_name, events,
                             preconditioner=preconditioner)
        assert histories_of(rerun) == histories_of(result)
        assert np.array_equal(rerun.x, result.x)

        # -- ledger phase sums ----------------------------------------------
        breakdown = result.time_breakdown
        assert sum(breakdown.values()) == pytest.approx(
            result.simulated_time, rel=1e-12)
        recovery_sum = sum(breakdown.get(p, 0.0)
                           for p in Phase.RECOVERY_PHASES)
        assert recovery_sum == pytest.approx(result.simulated_recovery_time,
                                             rel=1e-12)
        assert result.simulated_recovery_time > 0.0
        iteration_sum = sum(breakdown.get(p, 0.0)
                            for p in Phase.ITERATION_PHASES)
        assert iteration_sum == pytest.approx(
            result.simulated_iteration_time, rel=1e-12)
        assert iteration_sum + recovery_sum == pytest.approx(
            result.simulated_time, rel=1e-12)
        assert breakdown.get(Phase.REDUNDANCY_COMM, 0.0) > 0.0


class TestScenarioResolutionIntegration:
    """The ad-hoc runnable case folded in from test_failures_scenarios.py:
    events resolved from a declarative FailureScenario drive an actual
    resilient solve end to end."""

    def test_resolved_events_runnable(self):
        from repro.core.api import distribute_problem, solve
        from repro.core.spec import ResilienceSpec, SolveSpec
        from repro.failures import FailureLocation, FailureScenario, \
            resolve_events
        from repro.matrices import poisson_2d

        scenario = FailureScenario(n_failures=2, progress_fraction=0.5,
                                   location=FailureLocation.CENTER)
        events = resolve_events(scenario, n_nodes=4, reference_iterations=30)
        problem = distribute_problem(poisson_2d(16), n_nodes=4,
                                     machine=MachineModel(jitter_rel_std=0.0))
        result = solve(problem, spec=SolveSpec(
            resilience=ResilienceSpec(phi=2, failures=events),
            preconditioner="block_jacobi"))
        assert result.converged
        assert result.n_failures_recovered == 2

    def test_resolved_events_drive_block_solves_too(self):
        """The same declarative scenario protects a multi-RHS block solve."""
        from repro.core.api import distribute_problem, solve
        from repro.core.spec import ResilienceSpec, SolveSpec
        from repro.failures import FailureLocation, FailureScenario, \
            resolve_events
        from repro.matrices import poisson_2d

        scenario = FailureScenario(n_failures=2, progress_fraction=0.5,
                                   location=FailureLocation.CENTER)
        events = resolve_events(scenario, n_nodes=4, reference_iterations=30)
        matrix = poisson_2d(16)
        problem = distribute_problem(matrix, n_nodes=4,
                                     machine=MachineModel(jitter_rel_std=0.0))
        rhs = np.random.default_rng(0).standard_normal((matrix.shape[0], 3))
        result = solve(problem, rhs, spec=SolveSpec(
            resilience=ResilienceSpec(phi=2, failures=events),
            preconditioner="block_jacobi"))
        assert result.all_converged
        assert result.n_failures_recovered == 2
