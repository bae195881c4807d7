"""Tests for the `repro.solve` façade and the solver registry.

Acceptance contract of the API redesign: dispatching either solver, on one
right-hand side or a block, through one ``SolveSpec`` is **bit-identical**
-- iterates, residual histories, *and* cost-ledger charges -- to
constructing the solver by hand;
every resilience option reaches the solver (including the ones a one-call
helper once dropped); and derived objects (global operator, set-up
preconditioners) are cached per problem until the matrix structure changes.
"""

import numpy as np
import pytest

from repro.cluster import FailureEvent, MachineModel
from repro.core import (
    SOLVERS,
    BlockPCG,
    BlockSolveResult,
    BlockSpec,
    DistributedPCG,
    DistributedSolveResult,
    ResilienceSpec,
    ResilientBlockPCG,
    ResilientPCG,
    SolveSpec,
    distribute_problem,
    solve,
)
from repro.distributed import (
    DistributedMultiVector,
    DistributedVector,
    SpmvEngine,
)
from repro.matrices import poisson_2d
from repro.precond import PRECONDITIONERS, make_preconditioner

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


def build_direct_solver(solver_name, problem):
    """Hand-constructed solver on *problem*, bypassing the façade
    (``"pcg_block"``: plain PCG on the ``(n, 3)`` block ``RHS_2D``)."""
    precond = make_preconditioner("block_jacobi")
    precond.setup(MATRIX, problem.partition)
    common = dict(rtol=1e-8)
    if solver_name == "pcg":
        return DistributedPCG(problem.matrix, problem.rhs, precond, **common)
    if solver_name == "resilient_pcg":
        return ResilientPCG(
            problem.matrix, problem.rhs, precond,
            resilience=ResilienceSpec(phi=2, failures=FAILURES), **common)
    rhs = DistributedMultiVector.from_global(
        problem.cluster, problem.partition, "solve:B", RHS_2D)
    return BlockPCG(problem.matrix, rhs, precond, **common)


def facade_spec(solver_name):
    resilience = (ResilienceSpec(phi=2, failures=tuple(FAILURES))
                  if solver_name == "resilient_pcg" else None)
    solver = "pcg" if solver_name == "pcg_block" else solver_name
    return SolveSpec(solver=solver, rtol=1e-8,
                     preconditioner="block_jacobi", resilience=resilience)


class TestCrossSolverEquivalence:
    """`repro.solve(spec)` vs direct construction, all solvers x SpMV kernels."""

    @pytest.mark.parametrize("engine", [True, False],
                             ids=["engine", "reference"])
    @pytest.mark.parametrize("solver_name",
                             ["pcg", "resilient_pcg", "pcg_block"])
    def test_bit_identical_to_direct_construction(self, solver_name, engine,
                                                  request):
        # ``reference``: both solves run their SpMVs on the dense-gather
        # oracle, so the equivalence does not lean on the engine cache.
        if not engine:
            request.getfixturevalue("solvers_on_dense_gather")
        block = solver_name == "pcg_block"
        rhs = RHS_2D if block else RHS_1D

        facade_problem = fresh_problem(None if block else rhs)
        via_facade = solve(facade_problem, rhs if block else None,
                           spec=facade_spec(solver_name))

        direct_problem = fresh_problem(None if block else rhs)
        direct = build_direct_solver(solver_name, direct_problem).solve()

        assert np.array_equal(via_facade.x, direct.x)
        assert np.array_equal(via_facade.iterations, direct.iterations)
        if block:
            assert (via_facade.residual_histories
                    == direct.residual_histories)
        else:
            assert via_facade.residual_norms == direct.residual_norms
        assert via_facade.simulated_time == direct.simulated_time
        assert ledger_state(facade_problem) == ledger_state(direct_problem)

    def test_resilient_recoveries_identical(self):
        facade_problem = fresh_problem(RHS_1D)
        via_facade = solve(facade_problem,
                           spec=facade_spec("resilient_pcg"))
        direct_problem = fresh_problem(RHS_1D)
        direct = build_direct_solver("resilient_pcg", direct_problem).solve()
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

    def test_2d_rhs_is_answered_with_a_block(self):
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

    def test_block_spec_n_cols_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_cols=2"):
            solve(fresh_problem(), RHS_2D,
                  spec=SolveSpec(block=BlockSpec(n_cols=2)))

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
        holds a second, promoted copy of the rhs after either 1-D route.  A
        ``BlockSpec`` does not turn the answer into a block."""
        problem = fresh_problem()
        solve(problem, RHS_1D)
        result = solve(problem, RHS_1D, spec=SolveSpec(block=BlockSpec()))
        assert type(result) is DistributedSolveResult
        for rank in range(N_NODES):
            keys = problem.cluster.node(rank).memory.keys()
            assert not [key for key in keys if ":as_block" in repr(key)]


#: Right-hand-side inputs of the shape-dispatch test: name -> (the input
#: ``solve`` gets on *problem*, whether the answer is a single vector).
RHS_INPUTS = {
    "1d_array": (lambda problem: RHS_1D, True),
    "n_by_1_array": (lambda problem: RHS_2D[:, :1], False),
    "n_by_3_array": (lambda problem: RHS_2D, False),
    "dvector": (lambda problem: DistributedVector.from_global(
        problem.cluster, problem.partition, "solve:b", RHS_1D), True),
    "one_column_dmultivector": (
        lambda problem: DistributedMultiVector.from_global(
            problem.cluster, problem.partition, "solve:B", RHS_2D[:, :1]),
        False),
}


class TestShapeDispatch:
    """The right-hand side's shape, not the solver name, picks the answer:
    one vector for 1-D input, a block otherwise, from either solver and
    bit-identical to the class built directly on the same input."""

    @staticmethod
    def distributed(rhs, problem):
        """*rhs* as the façade distributes it on *problem*."""
        if not isinstance(rhs, np.ndarray):
            return rhs
        cls, name = ((DistributedVector, "solve:b") if rhs.ndim == 1
                     else (DistributedMultiVector, "solve:B"))
        return cls.from_global(problem.cluster, problem.partition, name, rhs)

    @pytest.mark.parametrize("rhs_kind", sorted(RHS_INPUTS))
    @pytest.mark.parametrize("solver", [None, "pcg", "resilient_pcg"])
    def test_answer_follows_the_rhs_shape(self, solver, rhs_kind):
        make_rhs, single = RHS_INPUTS[rhs_kind]
        resilience = (ResilienceSpec(phi=2, failures=tuple(FAILURES))
                      if solver == "resilient_pcg" else None)
        facade_problem = fresh_problem()
        result = solve(facade_problem, make_rhs(facade_problem),
                       spec=SolveSpec(solver=solver, resilience=resilience))

        problem = fresh_problem()
        precond = make_preconditioner("block_jacobi")
        precond.setup(MATRIX, problem.partition)
        rhs = self.distributed(make_rhs(problem), problem)
        if resilience is None:
            direct = BlockPCG(problem.matrix, rhs, precond).solve()
        else:
            direct = ResilientBlockPCG(problem.matrix, rhs, precond,
                                       resilience=resilience).solve()

        assert type(result) is (DistributedSolveResult if single
                                else BlockSolveResult)
        assert type(direct) is type(result)
        assert result.x.shape == direct.x.shape
        assert np.array_equal(result.x, direct.x)
        assert result.iterations == direct.iterations
        assert result.time_breakdown == direct.time_breakdown
        assert len(result.recoveries) == (1 if resilience else 0)


class TestRegistry:
    def test_builtin_names_registered(self):
        assert SOLVERS.names() == ("pcg", "resilient_pcg")

    @pytest.mark.parametrize("rhs", [RHS_1D, RHS_2D], ids=["1d", "2d"])
    @pytest.mark.parametrize("name", ["block_pcg", "resilient_block_pcg"])
    def test_removed_solver_names_rejected_before_any_charge(self, name,
                                                             rhs):
        problem = fresh_problem(RHS_1D)
        with pytest.raises(ValueError) as excinfo:
            solve(problem, rhs, solver=name, phi=1)
        assert str(excinfo.value) == (
            f"unknown solver {name!r}; available: ('pcg', 'resilient_pcg')")
        assert ledger_state(problem) == ({}, {}, {})

    def test_unknown_name_through_solve(self):
        with pytest.raises(ValueError, match="available"):
            solve(fresh_problem(RHS_1D), spec=SolveSpec(solver="nope"))

    def test_solve_calls_the_registered_builder(self):
        calls = []

        @SOLVERS.register("facade_test_only")
        def build(problem, rhs, precond, spec):
            calls.append(spec.solver)
            return BlockPCG(problem.matrix, rhs, precond)

        try:
            result = solve(fresh_problem(RHS_1D),
                           spec=SolveSpec(solver="Facade_Test_Only"))
        finally:
            del SOLVERS._entries["facade_test_only"]
        assert calls == ["Facade_Test_Only"]
        assert result.converged

    def test_make_preconditioner_unknown_name_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            make_preconditioner("does_not_exist")
        message = str(excinfo.value)
        assert "does_not_exist" in message
        assert "block_jacobi" in message and "block_jacobi_ilu" in message
        for removed in ("ssor", "split_ic0", "block_jacobi_ic"):
            assert removed not in message

    @pytest.mark.parametrize("solver_name", [None, "pcg", "resilient_pcg"])
    @pytest.mark.parametrize("name", ["ssor", "split_ic0", "block_jacobi_ic"])
    def test_removed_preconditioner_rejected_before_any_charge(
            self, name, solver_name):
        problem = fresh_problem(RHS_1D)
        before = ledger_state(problem)
        options = {} if solver_name is None else {"solver": solver_name}
        with pytest.raises(ValueError,
                           match=f"unknown preconditioner '{name}'"):
            solve(problem, preconditioner=name, **options)
        assert ledger_state(problem) == before

    def test_make_preconditioner_rejects_none(self):
        with pytest.raises(TypeError, match="must be a string"):
            make_preconditioner(None)

    def test_none_is_not_a_preconditioner_name(self):
        assert "none" not in PRECONDITIONERS
        with pytest.raises(ValueError, match="'identity'"):
            make_preconditioner("none")

    def test_preconditioners_registry_sees_late_registrations(self):
        from repro import precond
        from repro.precond import factory

        @precond.register_preconditioner("facade_test_only", "test stub")
        def build(**kwargs):
            return make_preconditioner("identity")

        try:
            assert precond.PRECONDITIONERS is factory.PRECONDITIONERS
            assert "facade_test_only" in precond.PRECONDITIONERS
        finally:
            del factory.PRECONDITIONERS._entries["facade_test_only"]
        assert "facade_test_only" not in precond.PRECONDITIONERS


class TestProblemCaches:
    def test_problem_context_is_the_matrix_plan_and_read_only(self):
        problem = fresh_problem(RHS_1D)
        assert problem.context is problem.matrix.context
        with pytest.raises(AttributeError):
            problem.context = problem.matrix.context
        assert problem.context is problem.matrix.context

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

    def test_preconditioner_cached_per_name(self):
        """One set-up instance per case-insensitive name; a name is the
        whole configuration, so the cache takes no options."""
        problem = fresh_problem(RHS_1D)
        p1 = problem.resolve_preconditioner("block_jacobi")
        assert problem.resolve_preconditioner("block_jacobi") is p1
        assert problem.resolve_preconditioner("Block_Jacobi") is p1
        assert problem.resolve_preconditioner("jacobi") is not p1
        with pytest.raises(TypeError, match="drop_tol"):
            problem.resolve_preconditioner("block_jacobi_ilu", drop_tol=1e-3)

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

    def test_recovered_solve_keeps_every_cache(self, monkeypatch):
        problem = fresh_problem(RHS_1D)
        dist = problem.matrix
        solve(problem)  # builds the engine, operator and factorization
        version = dist.structure_version
        engine = dist.spmv_engine()
        operator = problem.global_operator()
        precond = problem.resolve_preconditioner("block_jacobi")
        builds = []
        build = SpmvEngine.__init__

        def counting_build(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(SpmvEngine, "__init__", counting_build)
        result = solve(problem, phi=2, failures=FAILURES)
        assert result.converged and result.n_failures_recovered == 2
        assert dist.structure_version == version
        assert builds == []
        assert dist.spmv_engine() is engine
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
    """Regression: a one-call raw-matrix solve must forward the resilience
    options, such as `placement` (a pre-registry helper dropped them on the
    floor)."""

    def run(self, **kwargs):
        return solve(MATRIX, RHS_1D, n_nodes=N_NODES, phi=2,
                     failures=FAILURES, seed=0,
                     machine=MachineModel(jitter_rel_std=0.0), **kwargs)

    def test_placement_forwarded(self):
        result = self.run(placement="next_ranks")
        assert result.info["placement"] == "next_ranks"
        assert self.run().info["placement"] == "paper"

    def test_reconstruction_runs_the_papers_local_solve(self):
        """Every recovery's local solves are the inner ILU-preconditioned
        PCG (Sec. 6), not a configurable method."""
        stats = [s for r in self.run().recoveries
                 for s in r.local_solve_stats]
        assert stats and all(s.method == "pcg_ilu" for s in stats)

    def test_matches_direct_construction_with_same_options(self):
        one_call = self.run(placement="next_ranks")
        problem = distribute_problem(MATRIX, RHS_1D, n_nodes=N_NODES,
                                     machine=MachineModel(jitter_rel_std=0.0),
                                     seed=0)
        precond = make_preconditioner("block_jacobi")
        precond.setup(MATRIX, problem.partition)
        direct = ResilientPCG(
            problem.matrix, problem.rhs, precond,
            resilience=ResilienceSpec(
                phi=2, placement="next_ranks", failures=FAILURES),
        ).solve()
        assert np.array_equal(one_call.x, direct.x)
        assert one_call.residual_norms == direct.residual_norms
        assert one_call.simulated_time == direct.simulated_time


class TestResilienceSpecReachesScheme:
    """The spec's layout fields reach the redundancy scheme, which the
    solver builds once and hands to its ESR protocol."""

    def build(self, resilience, n_nodes=8):
        problem = distribute_problem(MATRIX, RHS_1D, n_nodes=n_nodes,
                                     machine=MachineModel(jitter_rel_std=0.0))
        precond = make_preconditioner("block_jacobi")
        precond.setup(MATRIX, problem.partition)
        return ResilientPCG(problem.matrix, problem.rhs, precond,
                            resilience=resilience)

    @pytest.mark.parametrize("resilience,attribute,expected", [
        pytest.param(ResilienceSpec(phi=2, placement="Next_Ranks"),
                     "placement", "next_ranks", id="placement"),
    ])
    def test_layout_field_reaches_scheme(self, resilience, attribute,
                                         expected):
        solver = self.build(resilience)
        value = solver.scheme
        for name in attribute.split("."):
            value = getattr(value, name)
        assert value == expected
        assert solver.scheme.phi == resilience.phi
        assert solver.scheme.scheme_name == resilience.scheme
        assert solver.resilience is resilience

    def test_scheme_built_once_and_shared_with_the_protocol(self,
                                                            monkeypatch):
        from repro.core import resilient_block_pcg

        built = []
        original = resilient_block_pcg.build_redundancy_scheme

        def counting(*args, **kwargs):
            scheme = original(*args, **kwargs)
            built.append(scheme)
            return scheme

        monkeypatch.setattr(resilient_block_pcg, "build_redundancy_scheme",
                            counting)
        solver = self.build(ResilienceSpec(phi=2, scheme="rs_parity"))
        assert len(built) == 1
        assert solver.scheme is built[0]
        assert solver.esr.scheme is solver.scheme

    def test_default_spec_is_the_papers(self):
        solver = self.build(None)
        assert solver.resilience == ResilienceSpec()
        assert solver.failure_injector is None
        assert (solver.scheme.phi, solver.scheme.placement,
                solver.scheme.scheme_name) == (1, "paper", "copies")


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
        solve(block_problem, RHS_1D[:, None], spec=SolveSpec(solver="pcg"))
        pcg_problem = fresh_problem(RHS_1D)
        solve(pcg_problem, spec=SolveSpec(solver="pcg"))
        assert ledger_state(block_problem) == ledger_state(pcg_problem)
