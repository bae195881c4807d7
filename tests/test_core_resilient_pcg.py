"""Tests for the resilient PCG driver (failure handling, overheads, overlaps)."""

import logging

import numpy as np
import pytest

from repro.baselines import (
    CheckpointRestartPCG,
    FullRestartPCG,
    InterpolationRecoveryPCG,
)
from repro.cluster import (
    FailureEvent,
    MachineModel,
    Phase,
    UnrecoverableStateError,
)
from repro.core.api import distribute_problem, solve
from repro.core.esr import _SCALAR_KEY
from repro.core.resilient_pcg import ResilientPCG
from repro.core.spec import ResilienceSpec, SolveSpec
from repro.utils.validation import ValidationError
from repro.distributed import DistributedVector
from repro.matrices import poisson_2d
from repro.precond import make_preconditioner


@pytest.fixture
def matrix():
    return poisson_2d(20)  # n = 400


def fresh_problem(matrix, n_nodes=5, seed=0):
    return distribute_problem(matrix, n_nodes=n_nodes, seed=seed,
                              machine=MachineModel(jitter_rel_std=0.0))


class TestFailureFree:
    def test_same_solution_as_reference(self, matrix):
        reference = solve(fresh_problem(matrix), solver="pcg",
                                    preconditioner="block_jacobi")
        resilient = solve(fresh_problem(matrix), solver="resilient_pcg", phi=3,
                                    preconditioner="block_jacobi")
        assert resilient.converged
        assert resilient.iterations == reference.iterations
        assert np.allclose(resilient.x, reference.x, rtol=1e-12, atol=1e-14)

    def test_undisturbed_overhead_grows_with_phi(self, matrix):
        reference = solve(fresh_problem(matrix), solver="pcg",
                                    preconditioner="block_jacobi")
        times = {}
        for phi in (1, 3):
            result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=phi,
                                     preconditioner="block_jacobi")
            times[phi] = result.simulated_time
        assert times[1] > reference.simulated_time
        assert times[3] > times[1]

    def test_redundancy_phase_charged(self, matrix):
        result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=2,
                                 preconditioner="block_jacobi")
        assert result.time_breakdown.get(Phase.REDUNDANCY_COMM, 0.0) > 0

    def test_phi_zero_equals_reference_cost_model(self, matrix):
        reference = solve(fresh_problem(matrix), solver="pcg",
                                    preconditioner="block_jacobi")
        result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=0,
                                 preconditioner="block_jacobi")
        assert result.iterations == reference.iterations
        assert result.simulated_time == pytest.approx(reference.simulated_time,
                                                      rel=1e-6)

    def test_info_fields(self, matrix):
        result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=2,
                                 preconditioner="block_jacobi",
                                 placement="next_ranks")
        assert result.info["phi"] == 2
        assert result.info["placement"] == "next_ranks"
        assert "redundancy" in result.info


class TestWithFailures:
    def test_single_failure(self, matrix):
        reference = solve(fresh_problem(matrix), solver="pcg",
                                    preconditioner="block_jacobi")
        result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=1,
                                 preconditioner="block_jacobi",
                                 failures=[(10, [2])])
        assert result.converged
        assert result.n_failures_recovered == 1
        assert np.allclose(result.x, reference.x, atol=1e-7)

    def test_three_simultaneous_failures(self, matrix):
        result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=3,
                                 preconditioner="block_jacobi",
                                 failures=[(12, [1, 2, 3])])
        assert result.converged
        assert result.n_failures_recovered == 3
        assert abs(result.relative_residual_deviation) < 1e-5

    def test_two_separate_failure_events(self, matrix):
        result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=2,
                                 preconditioner="block_jacobi",
                                 failures=[(5, [0]), (15, [4])])
        assert result.converged
        assert len(result.recoveries) == 2

    def test_repeated_failure_of_same_rank(self, matrix):
        result = solve(fresh_problem(matrix), solver="resilient_pcg", phi=1,
                                 preconditioner="block_jacobi",
                                 failures=[(5, [2]), (20, [2])])
        assert result.converged
        assert len(result.recoveries) == 2

    def test_failure_increases_runtime(self, matrix):
        undisturbed = solve(fresh_problem(matrix), solver="resilient_pcg", phi=3,
                                      preconditioner="block_jacobi")
        disturbed = solve(fresh_problem(matrix), solver="resilient_pcg", phi=3,
                                    preconditioner="block_jacobi",
                                    failures=[(10, [1, 2, 3])])
        assert disturbed.simulated_time > undisturbed.simulated_time
        assert disturbed.simulated_recovery_time > 0

    def test_failures_beyond_phi_raise(self, matrix):
        with pytest.raises(UnrecoverableStateError):
            solve(fresh_problem(matrix), solver="resilient_pcg", phi=1,
                            preconditioner="block_jacobi",
                            failures=[(10, [1, 2, 3])])

    @pytest.mark.parametrize("failures", [
        pytest.param([(5, [1, 2, 3, 4])], id="one-event"),
        pytest.param([(5, [1, 2]), (5, [3, 4])], id="split-events"),
        pytest.param([(5, [1, 2]), FailureEvent(5, (3, 4),
                                                during_recovery_of=0)],
                     id="overlapping-event"),
    ])
    def test_failures_beyond_phi_warn_at_setup(self, caplog, failures):
        """Every event due at one iteration fails before the same recovery,
        so the phi warning counts their ranks together."""
        problem = distribute_problem(poisson_2d(16), n_nodes=8, seed=0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            with pytest.raises(UnrecoverableStateError):
                solve(problem, phi=3, failures=failures)
        assert "contains 4 simultaneous failures but phi=3" in caplog.text

    def test_failure_event_objects_accepted(self, matrix):
        result = solve(
            fresh_problem(matrix), solver="resilient_pcg", phi=2, preconditioner="block_jacobi",
            failures=[FailureEvent(8, (0, 1), label="switch outage")],
        )
        assert result.converged


class TestOverlappingFailures:
    def test_overlap_restarts_reconstruction(self, matrix):
        problem = fresh_problem(matrix, n_nodes=6)
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        failures = [
            FailureEvent(10, (1, 2)),
            FailureEvent(10, (4,), during_recovery_of=0),
        ]
        solver = ResilientPCG(problem.matrix, problem.rhs, precond,
                              resilience=ResilienceSpec(phi=3,
                                                        failures=failures))
        result = solver.solve()
        assert result.converged
        assert len(result.recoveries) == 1
        report = result.recoveries[0]
        assert report.restarts == 1
        assert sorted(report.failed_ranks) == [1, 2, 4]
        assert any("overlapping" in note for note in report.notes)

    def test_overlap_recovers_exactly(self, matrix):
        reference = solve(fresh_problem(matrix, n_nodes=6), solver="pcg",
                                    preconditioner="block_jacobi")
        problem = fresh_problem(matrix, n_nodes=6)
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        failures = [
            FailureEvent(10, (0,)),
            FailureEvent(10, (3,), during_recovery_of=0),
        ]
        solver = ResilientPCG(problem.matrix, problem.rhs, precond,
                              resilience=ResilienceSpec(phi=2,
                                                        failures=failures))
        result = solver.solve()
        assert result.converged
        assert np.allclose(result.x, reference.x, atol=1e-7)


class TestValidation:
    def test_negative_phi_rejected(self, matrix):
        problem = fresh_problem(matrix)
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        with pytest.raises(ValueError):
            ResilientPCG(problem.matrix, problem.rhs, precond,
                         resilience=ResilienceSpec(phi=-1))

    def test_phi_at_least_node_count_rejected(self, matrix):
        problem = fresh_problem(matrix)
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        with pytest.raises(ValueError):
            ResilientPCG(problem.matrix, problem.rhs, precond,
                         resilience=ResilienceSpec(phi=5))


class TestCooperativeHookChain:
    """The ESR mixin must pass every hook on to the next class in the MRO.

    ``ResilientPCG`` is ``EsrResilienceMixin`` stacked on the plain solver;
    a custom subclass may add its own hook participants *below* the mixin.
    If the mixin's overrides dropped ``super().<hook>()`` (lint rule R010),
    those participants would silently never run.
    """

    def _probe_solver(self, matrix):
        from repro.core.pcg import DistributedPCG
        from repro.core.resilient_pcg import EsrResilienceMixin

        fired = set()

        class ProbePCG(DistributedPCG):
            def _on_setup(self):
                fired.add("_on_setup")
                super()._on_setup()

            def _after_spmv(self, iteration):
                fired.add("_after_spmv")
                super()._after_spmv(iteration)

            def _handle_failures(self, iteration):
                fired.add("_handle_failures")
                return super()._handle_failures(iteration)

            def _after_iteration(self, iteration):
                fired.add("_after_iteration")
                super()._after_iteration(iteration)

        class ProbeResilient(EsrResilienceMixin, ProbePCG):
            vector_prefix = "probe_resilient"

            def __init__(self, matrix, rhs, preconditioner, **kwargs):
                super().__init__(matrix, rhs, preconditioner, **kwargs)
                self._init_resilience(ResilienceSpec(phi=1))

        problem = fresh_problem(matrix)
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        solver = ProbeResilient(problem.matrix, problem.rhs, precond)
        return solver, fired

    def test_mixin_hooks_chain_past_the_mixin(self, matrix):
        solver, fired = self._probe_solver(matrix)
        result = solver.solve()
        assert result.converged
        # Every probe hook below the ESR mixin in the MRO observed the
        # protocol: the mixin chained each override through super().
        assert fired == {"_on_setup", "_after_spmv", "_handle_failures",
                         "_after_iteration"}


class TestReusedProblem:
    """Regression: a reused problem's recovered solves must restore the rhs
    of the solve they run in -- reliable storage once kept the first rhs
    ever stored under a name, so a second recovered solve converged to the
    wrong system (relative residual 0.7 reported as converged), and the
    problem's own rhs was left missing on the replaced nodes."""

    def test_every_recovered_solve_solves_its_own_system(self, matrix):
        problem = fresh_problem(matrix, n_nodes=8)
        rng = np.random.default_rng(0)
        rhs_list = [rng.standard_normal(matrix.shape[0]),
                    rng.standard_normal(matrix.shape[0]), None]
        rtol = 1e-8
        for rhs in rhs_list:
            result = solve(problem, rhs, phi=2, rtol=rtol,
                           failures=[(5, [1, 2])])
            b = problem.rhs.to_global() if rhs is None else rhs
            assert result.converged
            assert len(result.recoveries) == 1
            assert np.linalg.norm(b - matrix @ result.x) <= \
                rtol * np.linalg.norm(b)

    @pytest.mark.parametrize("shape", [None, (), (2,)],
                             ids=["own", "vector", "block"])
    def test_caller_vector_rhs_valid_after_recovery(self, matrix, shape):
        """Right after a recovered solve, of the problem's own rhs or of
        another vector or block, ``problem.rhs`` is whole again."""
        problem = fresh_problem(matrix, n_nodes=8)
        before = problem.rhs.to_global()
        rhs = None if shape is None else np.random.default_rng(5) \
            .standard_normal((matrix.shape[0], *shape))
        result = solve(problem, rhs, phi=2, failures=[(5, [1, 2])])
        assert len(result.recoveries) == 1
        assert problem.rhs.lost_ranks() == []
        assert np.array_equal(problem.rhs.to_global(), before)

    def test_caller_supplied_vector_rhs_restored_by_recovery(self, matrix):
        """The k = 1 solve runs on the caller's own vector storage, so the
        recovery that rebuilds the solver's rhs rebuilds the caller's."""
        problem = fresh_problem(matrix, n_nodes=8)
        values = np.random.default_rng(3).standard_normal(matrix.shape[0])
        rhs = DistributedVector.from_global(problem.cluster, problem.partition,
                                            "mine", values)
        result = solve(problem, rhs, phi=2, failures=[(5, [1, 2])])
        assert len(result.recoveries) == 1
        assert rhs.lost_ranks() == []
        assert np.array_equal(rhs.to_global(), values)


#: The four failure-handling solvers: the ESR solver and the baselines.
FAILURE_HANDLERS = ("resilient", "checkpoint_restart", "interpolation",
                    "full_restart")


def build_failure_handler(kind, problem, failures):
    """*kind* on *problem* with the failure schedule *failures*."""
    precond = make_preconditioner("block_jacobi")
    precond.setup(problem.matrix.to_global(), problem.partition)
    if kind == "resilient":
        return ResilientPCG(problem.matrix, problem.rhs, precond,
                            resilience=ResilienceSpec(phi=2,
                                                      failures=failures))
    cls = {"checkpoint_restart": CheckpointRestartPCG,
           "interpolation": InterpolationRecoveryPCG,
           "full_restart": FullRestartPCG}[kind]
    return cls(problem.matrix, problem.rhs, precond,
               failures=failures)


def ledger_state(problem):
    ledger = problem.cluster.ledger
    return (dict(ledger.times), dict(ledger.messages), dict(ledger.elements))


class TestFailureRanksCheckedAtSetup:
    """A scheduled rank outside the cluster fails at set-up, before the
    solve runs and charges the problem's ledger."""

    MESSAGE = "failure ranks entry 9 out of range for 8 nodes"

    def test_facade_raises_before_any_charge(self, matrix):
        problem = fresh_problem(matrix, n_nodes=8)
        before = ledger_state(problem)
        with pytest.raises(ValidationError, match=self.MESSAGE):
            solve(problem, phi=2, failures=[(5, [9])])
        assert ledger_state(problem) == before

    @pytest.mark.parametrize("kind", FAILURE_HANDLERS)
    def test_construction_raises_before_any_charge(self, matrix, kind):
        problem = fresh_problem(matrix, n_nodes=8)
        before = ledger_state(problem)
        with pytest.raises(ValidationError, match=self.MESSAGE):
            build_failure_handler(kind, problem, [(5, [1]), (7, [9])])
        assert ledger_state(problem) == before


class TestRecoveryReports:
    """Every recovering solver reports each failure episode the same way."""

    @pytest.mark.parametrize("kind", FAILURE_HANDLERS)
    def test_one_report_per_episode(self, matrix, kind):
        failures = [(5, [1]), (10, [3]),
                    FailureEvent(10, (6,), during_recovery_of=1)]
        solver = build_failure_handler(kind, fresh_problem(matrix, n_nodes=8),
                                       failures)
        result = solver.solve()
        assert result.converged
        assert [(r.iteration, r.failed_ranks) for r in result.recoveries] == \
            [(5, [1]), (10, [3, 6])]
        # ESR restarts its reconstruction for the overlapping failure; the
        # baselines fold it into the failed set.
        overlap_restarts = 1 if kind == "resilient" else 0
        assert [r.restarts for r in result.recoveries] == [0, overlap_restarts]
        assert all(r.simulated_time > 0 and r.wallclock_time > 0
                   for r in result.recoveries)
        assert result.n_failures_recovered == 3
        assert result.info["unfired_failures"] == []

    def test_lost_replicated_beta_raises(self, matrix):
        """A recovery that finds ``beta`` on no surviving node fails loudly
        instead of continuing from the driver's own coefficients."""
        solver = build_failure_handler("resilient",
                                       fresh_problem(matrix, n_nodes=8),
                                       [(5, [1, 2])])
        reconstruct = solver.reconstructor.reconstruct

        def without_scalars(*args, **kwargs):
            for node in solver.cluster.nodes:
                if node.is_alive and _SCALAR_KEY in node.memory:
                    del node.memory[_SCALAR_KEY]
            return reconstruct(*args, **kwargs)

        solver.reconstructor.reconstruct = without_scalars
        with pytest.raises(UnrecoverableStateError, match="'beta'") as info:
            solver.solve()
        assert info.value.iteration == 5


class TestUnfiredFailures:
    """Scheduled failures that never struck are listed in the result."""

    @pytest.mark.parametrize("kind", FAILURE_HANDLERS)
    @pytest.mark.parametrize("failures,expected", [
        pytest.param([(5000, [1])],
                     [{"iteration": 5000, "ranks": [1],
                       "during_recovery_of": None, "label": ""}],
                     id="after-convergence"),
        pytest.param([FailureEvent(3, (2,), during_recovery_of=0)],
                     [{"iteration": 3, "ranks": [2],
                       "during_recovery_of": 0, "label": ""}],
                     id="overlap-without-recovery"),
        pytest.param([(5, [2]), FailureEvent(5, (4,), during_recovery_of=0)],
                     [], id="all-fired"),
    ])
    def test_unfired_failures_listed(self, matrix, kind, failures, expected):
        solver = build_failure_handler(kind, fresh_problem(matrix, n_nodes=8),
                                       failures)
        result = solver.solve()
        assert result.converged
        assert result.info["unfired_failures"] == expected
        # Every solver reports the one episode of a fired schedule.
        assert len(result.recoveries) == int(not expected)

    def test_unfired_failures_in_spec_form(self, matrix):
        """The listing uses the event form of ``ResilienceSpec.to_dict``."""
        spec = ResilienceSpec(phi=2, failures=[(5000, [1, 3])])
        result = solve(fresh_problem(matrix, n_nodes=8), spec=SolveSpec(
            resilience=spec))
        assert result.info["unfired_failures"] == spec.to_dict()["failures"]
