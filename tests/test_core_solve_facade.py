"""Tests for the `repro.solve` façade and the solver registry.

Acceptance contract of the API redesign: dispatching any of the three
solvers through one ``SolveSpec`` is **bit-identical** -- iterates, residual
histories, *and* cost-ledger charges -- to constructing the solver by hand;
every resilience option reaches the solver (including the ones a one-call
helper once dropped); and derived objects (global operator, set-up
preconditioners) are cached per problem until the matrix structure changes.
"""

import numpy as np
import pytest

import repro
from repro.cluster import FailureEvent, FailureInjector, MachineModel
from repro.core import (
    SOLVERS,
    BlockPCG,
    BlockSpec,
    DistributedPCG,
    ResilienceSpec,
    ResilientPCG,
    SolverRegistry,
    SolveSpec,
    distribute_problem,
    solve,
)
from repro.core.redundancy import BackupPlacement
from repro.distributed import DistributedMultiVector, DistributedVector
from repro.matrices import poisson_2d
from repro.precond import make_preconditioner

N_NODES = 4
MATRIX = poisson_2d(12)          # n = 144, 36 rows per rank
RHS_1D = np.random.default_rng(7).standard_normal(MATRIX.shape[0])
RHS_2D = np.random.default_rng(8).standard_normal((MATRIX.shape[0], 3))
FAILURES = [FailureEvent(6, (1, 2))]


def fresh_problem(rhs=None):
    """A fresh jitter-free problem so ledger charges are deterministic."""
    return distribute_problem(MATRIX, rhs,
                              n_nodes=N_NODES,
                              machine=MachineModel(jitter_rel_std=0.0))


def ledger_state(problem):
    ledger = problem.cluster.ledger
    return (dict(ledger.times), dict(ledger.messages), dict(ledger.elements))


def build_direct_solver(solver_name, problem, overlap, engine):
    """Hand-constructed solver on *problem*, bypassing the façade."""
    precond = make_preconditioner("block_jacobi")
    precond.setup(MATRIX, problem.partition)
    common = dict(rtol=1e-8, context=problem.context,
                  overlap_spmv=overlap, engine=engine)
    if solver_name == "pcg":
        return DistributedPCG(problem.matrix, problem.rhs, precond, **common)
    if solver_name == "resilient_pcg":
        return ResilientPCG(
            problem.matrix, problem.rhs, precond, phi=2,
            failure_injector=FailureInjector(list(FAILURES)), **common)
    rhs = DistributedMultiVector.from_global(
        problem.cluster, problem.partition, "solve:B", RHS_2D)
    return BlockPCG(problem.matrix, rhs, precond, **common)


def facade_spec(solver_name, overlap, engine):
    resilience = (ResilienceSpec(phi=2, failures=tuple(FAILURES))
                  if solver_name == "resilient_pcg" else None)
    return SolveSpec(solver=solver_name, rtol=1e-8, overlap_spmv=overlap,
                     engine=engine, preconditioner="block_jacobi",
                     resilience=resilience)


class TestCrossSolverEquivalence:
    """`repro.solve(spec)` vs direct construction, all solvers x knobs."""

    @pytest.mark.parametrize("engine", [True, False],
                             ids=["engine", "reference"])
    @pytest.mark.parametrize("overlap", [True, False],
                             ids=["overlap", "serial"])
    @pytest.mark.parametrize("solver_name",
                             ["pcg", "resilient_pcg", "block_pcg"])
    def test_bit_identical_to_direct_construction(self, solver_name, overlap,
                                                  engine):
        rhs = RHS_2D if solver_name == "block_pcg" else RHS_1D

        facade_problem = fresh_problem(None if solver_name == "block_pcg"
                                       else rhs)
        via_facade = solve(facade_problem,
                           rhs if solver_name == "block_pcg" else None,
                           spec=facade_spec(solver_name, overlap, engine))

        direct_problem = fresh_problem(None if solver_name == "block_pcg"
                                       else rhs)
        direct = build_direct_solver(solver_name, direct_problem, overlap,
                                     engine).solve()

        assert np.array_equal(via_facade.x, direct.x)
        assert np.array_equal(via_facade.iterations, direct.iterations)
        if solver_name == "block_pcg":
            assert (via_facade.residual_histories
                    == direct.residual_histories)
        else:
            assert via_facade.residual_norms == direct.residual_norms
        assert via_facade.simulated_time == direct.simulated_time
        assert ledger_state(facade_problem) == ledger_state(direct_problem)

    def test_resilient_recoveries_identical(self):
        facade_problem = fresh_problem(RHS_1D)
        via_facade = solve(facade_problem,
                           spec=facade_spec("resilient_pcg", False, True))
        direct_problem = fresh_problem(RHS_1D)
        direct = build_direct_solver("resilient_pcg", direct_problem, False,
                                     True).solve()
        assert len(via_facade.recoveries) == len(direct.recoveries) == 1
        assert (via_facade.recoveries[0].failed_ranks
                == direct.recoveries[0].failed_ranks)
        assert (via_facade.recoveries[0].simulated_time
                == direct.recoveries[0].simulated_time)


class TestDispatchAndNormalization:
    def test_default_spec_selects_plain_pcg(self):
        result = solve(fresh_problem(RHS_1D))
        assert "phi" not in result.info  # the resilient solver's marker
        assert result.converged

    def test_resilience_extension_selects_resilient_pcg(self):
        result = solve(fresh_problem(RHS_1D), phi=1)
        assert result.info["phi"] == 1

    def test_2d_rhs_dispatches_to_block_pcg(self):
        result = solve(fresh_problem(), RHS_2D)
        assert result.x.shape == RHS_2D.shape
        assert result.all_converged

    def test_raw_matrix_is_distributed(self):
        result = solve(MATRIX, RHS_1D, n_nodes=N_NODES,
                       machine=MachineModel(jitter_rel_std=0.0))
        assert result.converged
        assert result.info["n_nodes"] == N_NODES

    def test_raw_matrix_with_2d_rhs(self):
        result = solve(MATRIX, RHS_2D, n_nodes=N_NODES)
        assert result.x.shape == RHS_2D.shape

    def test_distributed_rhs_accepted(self):
        problem = fresh_problem()
        rhs = DistributedVector.from_global(problem.cluster,
                                            problem.partition, "mine", RHS_1D)
        result = solve(problem, rhs)
        assert result.converged

    def test_rhs_on_other_cluster_rejected(self):
        problem, other = fresh_problem(), fresh_problem()
        with pytest.raises(ValueError, match="different cluster"):
            solve(problem, other.rhs)

    def test_cluster_options_rejected_with_problem(self):
        with pytest.raises(ValueError, match="n_nodes"):
            solve(fresh_problem(), n_nodes=8)

    def test_3d_rhs_rejected(self):
        with pytest.raises(ValueError, match="1-D or"):
            solve(fresh_problem(), np.zeros((4, 4, 4)))

    def test_single_rhs_solver_rejects_block_rhs(self):
        with pytest.raises(ValueError, match="single right-hand side"):
            solve(fresh_problem(), RHS_2D, spec=SolveSpec(solver="pcg"))

    def test_block_solver_rejects_resilience(self):
        with pytest.raises(ValueError, match="ResilienceSpec"):
            solve(fresh_problem(), RHS_2D,
                  spec=SolveSpec(solver="block_pcg",
                                 resilience=ResilienceSpec()))

    def test_pcg_rejects_block_spec(self):
        with pytest.raises(ValueError, match="BlockSpec"):
            solve(fresh_problem(RHS_1D),
                  spec=SolveSpec(solver="pcg", block=BlockSpec()))

    def test_block_spec_n_cols_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_cols=2"):
            solve(fresh_problem(), RHS_2D,
                  spec=SolveSpec(block=BlockSpec(n_cols=2)))

    def test_1d_rhs_through_block_solver_as_k1(self):
        result = solve(fresh_problem(RHS_1D),
                       spec=SolveSpec(solver="block_pcg"))
        reference = solve(fresh_problem(RHS_1D))
        assert np.array_equal(result.x[:, 0], reference.x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        """A NaN/inf rhs fails loudly instead of 'converging' (an inf once
        came back converged after 0 iterations)."""
        rhs_1d = RHS_1D.copy()
        rhs_1d[5] = bad
        rhs_2d = RHS_2D.copy()
        rhs_2d[5, 1] = bad
        for rhs in (rhs_1d, rhs_2d):
            with pytest.raises(ValueError, match="non-finite"):
                solve(fresh_problem(), rhs)
            with pytest.raises(ValueError, match="non-finite"):
                solve(MATRIX, rhs, n_nodes=N_NODES)
        with pytest.raises(ValueError, match="non-finite"):
            fresh_problem(rhs_1d)

    def test_1d_rhs_is_solved_without_a_block_copy(self):
        """The solver runs on the vector's own ``(n_i, 1)`` storage: no node
        holds a second, promoted copy of the rhs after either 1-D route."""
        problem = fresh_problem()
        solve(problem, RHS_1D)
        solve(problem, RHS_1D, spec=SolveSpec(solver="block_pcg"))
        for rank in range(N_NODES):
            keys = problem.cluster.node(rank).memory.keys()
            assert not [key for key in keys if ":as_block" in repr(key)]


class TestRegistry:
    def test_builtin_names_registered(self):
        assert SOLVERS.names() == ("block_pcg", "pcg", "resilient_block_pcg",
                                   "resilient_pcg")

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            SOLVERS.get("does_not_exist")
        message = str(excinfo.value)
        assert "does_not_exist" in message
        for name in SOLVERS.names():
            assert name in message

    def test_unknown_name_through_solve(self):
        with pytest.raises(ValueError, match="available"):
            solve(fresh_problem(RHS_1D), spec=SolveSpec(solver="nope"))

    def test_decorator_registration_and_case_insensitivity(self):
        registry = SolverRegistry()

        @registry.register("MySolver")
        def build(problem, rhs, precond, spec):
            return "built"

        assert registry.names() == ("mysolver",)
        assert registry.get("MYSOLVER") is build
        assert registry.build("mysolver", None, None, None,
                              SolveSpec()) == "built"

    def test_make_preconditioner_unknown_name_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            make_preconditioner("does_not_exist")
        message = str(excinfo.value)
        assert "does_not_exist" in message
        assert "block_jacobi" in message and "ssor" in message

    def test_make_preconditioner_rejects_none(self):
        # str(None) == "None" must not silently hit the "none" alias.
        with pytest.raises(TypeError, match="must be a string"):
            make_preconditioner(None)

    def test_preconditioners_tuple_sees_late_registrations(self):
        from repro import precond
        from repro.precond import factory

        @precond.register_preconditioner("facade_test_only", "test stub")
        def build(**kwargs):
            return make_preconditioner("identity")

        try:
            assert "facade_test_only" in precond.PRECONDITIONERS
            assert "facade_test_only" in factory.PRECONDITIONERS
        finally:
            del factory._REGISTRY["facade_test_only"]
        assert "facade_test_only" not in precond.PRECONDITIONERS


class TestProblemCaches:
    def test_global_operator_cached_until_structure_changes(
            self, store_raised_diagonal):
        problem = fresh_problem(RHS_1D)
        first = problem.global_operator()
        assert problem.global_operator() is first
        # Restoring the values already stored keeps the operator.
        problem.matrix.restore_block_to_node(0, charge=False)
        assert problem.global_operator() is first
        raised = store_raised_diagonal(problem.matrix, 0)
        problem.matrix.restore_block_to_node(0, charge=False)
        rebuilt = problem.global_operator()
        assert rebuilt is not first
        start, stop = problem.partition.range_of(0)
        assert (rebuilt[start:stop] != raised).nnz == 0  # restored values
        assert (rebuilt[stop:] != first[stop:]).nnz == 0

    def test_preconditioner_cached_per_name_and_options(self):
        problem = fresh_problem(RHS_1D)
        p1 = problem.resolve_preconditioner("block_jacobi")
        assert problem.resolve_preconditioner("block_jacobi") is p1
        assert problem.resolve_preconditioner("jacobi") is not p1
        omega = problem.resolve_preconditioner("ssor", omega=1.3)
        assert problem.resolve_preconditioner("ssor", omega=1.4) is not omega
        assert problem.resolve_preconditioner("ssor", omega=1.3) is omega

    def test_preconditioner_cache_invalidated_on_structure_change(
            self, store_raised_diagonal):
        problem = fresh_problem(RHS_1D)
        p1 = problem.resolve_preconditioner("block_jacobi")
        # Restoring the values already stored keeps the factorization.
        problem.matrix.restore_block_to_node(0, charge=False)
        assert problem.resolve_preconditioner("block_jacobi") is p1
        store_raised_diagonal(problem.matrix, 0)
        problem.matrix.restore_block_to_node(0, charge=False)
        assert problem.resolve_preconditioner("block_jacobi") is not p1

    def test_instance_preconditioner_set_up_and_passed_through(self):
        problem = fresh_problem(RHS_1D)
        instance = make_preconditioner("jacobi")
        assert problem.resolve_preconditioner(instance) is instance
        assert instance.is_set_up

    def test_repeated_solves_reuse_one_preconditioner(self):
        problem = fresh_problem(RHS_1D)
        first = solve(problem)
        second = solve(problem)
        assert np.array_equal(first.x, second.x)
        assert len(problem._precond_cache) == 1


class TestRecoveryKeepsCaches:
    """ESR recovery puts each failed rank's own matrix view back from
    reliable storage and changes no value, so the problem's caches and the
    cached SpMV engine survive it."""

    def test_recovered_solve_keeps_every_cache(self):
        problem = fresh_problem(RHS_1D)
        dist, context = problem.matrix, problem.context
        solve(problem)  # builds the engine, operator and factorization
        version = dist.structure_version
        engine = dist.cached_spmv_engine(context)
        operator = problem.global_operator()
        precond = problem.resolve_preconditioner("block_jacobi")
        result = solve(problem, phi=2, failures=FAILURES)
        assert result.converged and result.n_failures_recovered == 2
        assert dist.structure_version == version
        assert engine is not None
        assert dist.cached_spmv_engine(context) is engine
        assert problem.global_operator() is operator
        assert problem.resolve_preconditioner("block_jacobi") is precond

    @pytest.mark.parametrize("rhs", [RHS_1D, RHS_2D], ids=["1d", "2d"])
    def test_second_recovered_solve_matches_a_fresh_problem(self, rhs):
        reused = fresh_problem(RHS_1D)
        solve(reused, rhs, phi=2, failures=FAILURES)
        reused.cluster.ledger.reset()
        again = solve(reused, rhs, phi=2, failures=FAILURES)
        fresh = fresh_problem(RHS_1D)
        first = solve(fresh, rhs, phi=2, failures=FAILURES)
        assert np.array_equal(again.x, first.x)
        if rhs.ndim == 1:
            assert again.residual_norms == first.residual_norms
        else:
            assert again.residual_histories == first.residual_histories
        assert again.time_breakdown == first.time_breakdown
        assert ledger_state(reused) == ledger_state(fresh)


class TestResilienceOptionsForwarding:
    """Regression: a one-call raw-matrix solve must forward `placement`,
    `local_solver_method` and `local_rtol` (a pre-registry helper dropped
    them on the floor)."""

    def run(self, **kwargs):
        return solve(MATRIX, RHS_1D, n_nodes=N_NODES, phi=2,
                     failures=FAILURES, seed=0,
                     machine=MachineModel(jitter_rel_std=0.0), **kwargs)

    def test_placement_forwarded(self):
        result = self.run(placement=BackupPlacement.NEXT_RANKS)
        assert result.info["placement"] == "next_ranks"
        assert self.run().info["placement"] == "paper"

    def test_local_solver_method_forwarded_and_changes_behavior(self):
        direct = self.run(local_solver_method="direct")
        stats = [s for r in direct.recoveries for s in r.local_solve_stats]
        assert stats and all(s.method == "direct" for s in stats)
        default = self.run()
        default_stats = [s for r in default.recoveries
                         for s in r.local_solve_stats]
        assert default_stats
        assert all(s.method == "pcg_ilu" for s in default_stats)

    def test_local_rtol_forwarded_and_changes_behavior(self):
        loose = self.run(local_solver_method="pcg_jacobi", local_rtol=1e-1)
        tight = self.run(local_solver_method="pcg_jacobi", local_rtol=1e-14)
        loose_iters = sum(s.iterations for r in loose.recoveries
                          for s in r.local_solve_stats)
        tight_iters = sum(s.iterations for r in tight.recoveries
                          for s in r.local_solve_stats)
        assert loose_iters < tight_iters

    def test_matches_direct_construction_with_same_options(self):
        one_call = self.run(placement=BackupPlacement.NEXT_RANKS,
                            local_solver_method="direct")
        problem = distribute_problem(MATRIX, RHS_1D, n_nodes=N_NODES,
                                     machine=MachineModel(jitter_rel_std=0.0),
                                     seed=0)
        precond = make_preconditioner("block_jacobi")
        precond.setup(MATRIX, problem.partition)
        direct = ResilientPCG(
            problem.matrix, problem.rhs, precond, phi=2,
            placement=BackupPlacement.NEXT_RANKS,
            failure_injector=FailureInjector(list(FAILURES)),
            local_solver_method="direct",
            context=problem.context,
        ).solve()
        assert np.array_equal(one_call.x, direct.x)
        assert one_call.residual_norms == direct.residual_norms
        assert one_call.simulated_time == direct.simulated_time


class TestFusedReductions:
    def test_fused_block_solve_bit_identical_with_fewer_collectives(self):
        problem = fresh_problem()
        plain = solve(problem, RHS_2D)
        fused_problem = fresh_problem()
        fused = solve(fused_problem, RHS_2D, fuse_reductions=True)
        assert np.array_equal(plain.x, fused.x)
        assert plain.residual_histories == fused.residual_histories
        assert fused.info["fuse_reductions"] is True
        assert fused.info["n_reductions"] < plain.info["n_reductions"]

    def test_unfused_k1_keeps_pcg_charge_equality(self):
        """The default (unfused) mode preserves the k = 1 ledger contract."""
        block_problem = fresh_problem(RHS_1D)
        solve(block_problem, spec=SolveSpec(solver="block_pcg"))
        pcg_problem = fresh_problem(RHS_1D)
        solve(pcg_problem, spec=SolveSpec(solver="pcg"))
        assert ledger_state(block_problem) == ledger_state(pcg_problem)
