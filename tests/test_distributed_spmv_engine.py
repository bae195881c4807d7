"""Tests for the local-view SpMV execution engine.

The central property: ``distributed_spmv`` is equivalent to the dense-gather
oracle (the ``dense_gather_spmv`` fixture) -- bit-identical numeric results
and bit-identical simulated-time charges on a twin cluster -- including
after failure/recovery cycles and for degenerate scatter plans (single
node, no off-node dependencies).  The matrix owns one plan and one engine,
and an engine build with a failed owner raises before anything is charged.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_overhead, sparsity_report
from repro.baselines import (
    CheckpointRestartPCG,
    FullRestartPCG,
    InterpolationRecoveryPCG,
)
from repro.cluster import (
    FailureEvent,
    MachineModel,
    NodeFailedError,
    VirtualCluster,
)
from repro.core import BlockPCG, ResilienceSpec, ResilientBlockPCG
from repro.core.api import distribute_problem, solve
from repro.core.resilient_pcg import ResilientPCG
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    ContextMismatchError,
    DistributedMatrix,
    DistributedVector,
    SpmvEngine,
    distributed_spmv,
)
from repro.matrices import build_matrix, poisson_2d
from repro.precond import make_preconditioner


def make_pair(matrix, n_parts):
    """Two identical distributed problems on separate clusters."""
    n = matrix.shape[0]
    partition = BlockRowPartition(n, n_parts)
    out = []
    for _ in range(2):
        cluster = VirtualCluster(n_parts, machine=MachineModel(jitter_rel_std=0.0))
        dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
        out.append((cluster, dist))
    return partition, out


def ledger_state(ledger):
    return (dict(ledger.times), dict(ledger.messages), dict(ledger.elements))


def spmv_both_paths(matrix, n_parts, values, oracle, repeats=3):
    """Run the SpMV and the *oracle* on twin clusters; return both results."""
    partition, (engine_side, reference_side) = make_pair(matrix, n_parts)
    results = []
    for (cluster, dist), spmv in ((engine_side, distributed_spmv),
                                  (reference_side, oracle)):
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        for _ in range(repeats):
            spmv(dist, x, y)
        results.append((y.to_global(), cluster.ledger))
    return results


class TestEquivalence:
    @pytest.mark.parametrize("matrix_id,n,n_parts", [
        ("M1", 1500, 4), ("M3", 2000, 8), ("M4", 1500, 6), ("M8", 1500, 5),
    ])
    def test_bit_identical_results_across_suite(self, matrix_id, n, n_parts,
                                                dense_gather_spmv):
        matrix = build_matrix(matrix_id, n=n, seed=0)
        values = np.random.default_rng(7).standard_normal(matrix.shape[0])
        (y_engine, led_engine), (y_reference, led_reference) = \
            spmv_both_paths(matrix, n_parts, values, dense_gather_spmv)
        assert np.array_equal(y_engine, y_reference)
        assert ledger_state(led_engine) == ledger_state(led_reference)

    @pytest.mark.parametrize("n_parts", [2, 4, 8])
    def test_bit_identical_charges(self, n_parts, dense_gather_spmv):
        matrix = poisson_2d(20)
        values = np.linspace(-1.0, 1.0, matrix.shape[0])
        (y_engine, led_engine), (y_reference, led_reference) = \
            spmv_both_paths(matrix, n_parts, values, dense_gather_spmv,
                            repeats=5)
        assert np.array_equal(y_engine, y_reference)
        assert ledger_state(led_engine) == ledger_state(led_reference)

    def test_empty_scatter_plan_single_node(self, dense_gather_spmv):
        matrix = poisson_2d(8)  # n = 64
        values = np.arange(64.0)
        (y_engine, led), (y_reference, led_reference) = spmv_both_paths(
            matrix, 1, values, dense_gather_spmv)
        assert np.array_equal(y_engine, y_reference)
        assert np.array_equal(y_engine, matrix @ values)
        assert ledger_state(led) == ledger_state(led_reference)
        # no off-node dependencies: nothing charged to the halo phase
        assert led.total_elements(["comm.halo"]) == 0

    def test_block_diagonal_matrix_has_no_ghosts(self):
        blocks = [np.eye(4) * (i + 2) for i in range(4)]
        matrix = sp.block_diag(blocks, format="csr")
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        assert dist.spmv_engine() is not None
        assert all(dist.context.senders_to(rank) == [] for rank in range(4))

    def test_output_may_alias_input(self):
        matrix = poisson_2d(10)
        values = np.random.default_rng(3).standard_normal(100)
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        distributed_spmv(dist, x, x)
        assert np.array_equal(x.to_global(), matrix @ values)

    def test_fails_when_owner_failed(self):
        matrix = poisson_2d(10)
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y)  # engine built and cached
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            distributed_spmv(dist, x, y)


class TestGhostCompression:
    def test_in_place_value_edits_stay_live(self, dense_gather_spmv):
        """The engine shares data/indptr with the stored blocks, so value
        edits without set_block are reflected exactly like in the
        dense-gather oracle, which reads the blocks afresh."""
        matrix = poisson_2d(10)
        values = np.random.default_rng(5).standard_normal(100)
        partition, sides = make_pair(matrix, 4)
        results = []
        for (cluster, dist), spmv in zip(
                sides, (distributed_spmv, dense_gather_spmv)):
            x = DistributedVector.from_global(cluster, partition, "x", values)
            y = DistributedVector.zeros(cluster, partition, "y")
            distributed_spmv(dist, x, y, charge=False)  # engine cached
            dist.row_block(1).data *= 2.0
            spmv(dist, x, y)
            results.append((y.to_global(), ledger_state(cluster.ledger)))
        (y_engine, led_engine), (y_reference, led_reference) = results
        assert np.array_equal(y_engine, y_reference)
        assert led_engine == led_reference


class TestCache:
    def test_default_context_calls_reuse_one_engine(self):
        """Repeated SpMVs must not build (and leak) a fresh plan + engine
        per call."""
        matrix = poisson_2d(12)
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.arange(144.0))
        y = DistributedVector.zeros(cluster, partition, "y")
        engine = dist.spmv_engine()
        for _ in range(10):
            distributed_spmv(dist, x, y)
        assert dist.spmv_engine() is engine
        assert dist.context is dist.context

    def test_one_plan_per_matrix(self, store_raised_diagonal):
        """The problem, the engine and every solver hold the matrix's one
        plan; a value-changing restore keeps it, since a restore cannot
        change the pattern."""
        problem = distribute_problem(poisson_2d(12), n_nodes=4,
                                     machine=MachineModel(jitter_rel_std=0.0))
        dist = problem.matrix
        plan = dist.context
        assert problem.context is plan
        assert dist.spmv_engine().context is plan
        resilient = ResilientBlockPCG(dist, problem.rhs,
                                      resilience=ResilienceSpec(phi=2))
        solvers = [BlockPCG(dist, problem.rhs), resilient,
                   FullRestartPCG(dist, problem.rhs),
                   CheckpointRestartPCG(dist, problem.rhs),
                   InterpolationRecoveryPCG(dist, problem.rhs)]
        assert all(solver.context is plan for solver in solvers)
        assert resilient.esr.context is plan
        assert resilient.reconstructor.context is plan
        version = dist.structure_version
        store_raised_diagonal(dist, 2)
        dist.restore_block_to_node(2, charge=False)
        assert dist.structure_version > version
        assert dist.context is plan

    def test_one_problem_builds_one_engine(self, monkeypatch,
                                           store_raised_diagonal):
        """Solves of every kind, the analyses and a direct SpMV on one
        problem share one engine; a value-changing restore builds exactly
        one more."""
        builds = []
        init = SpmvEngine.__init__

        def counted_init(engine, matrix):
            builds.append(matrix)
            init(engine, matrix)

        monkeypatch.setattr(SpmvEngine, "__init__", counted_init)
        matrix = poisson_2d(12)
        problem = distribute_problem(matrix, n_nodes=4,
                                     machine=MachineModel(jitter_rel_std=0.0))
        rhs_block = np.column_stack([problem.rhs.to_global(), np.ones(144)])
        assert solve(problem).converged
        assert solve(problem, phi=2).converged
        assert solve(problem, rhs_block).all_converged
        analyze_overhead(problem.matrix, 2)
        sparsity_report(problem.matrix, 2)
        x = DistributedVector.from_global(problem.cluster, problem.partition,
                                          "x", np.arange(144.0))
        y = DistributedVector.zeros(problem.cluster, problem.partition, "y")
        distributed_spmv(problem.matrix, x, y)
        assert builds == [problem.matrix]
        store_raised_diagonal(problem.matrix, 2)
        problem.matrix.restore_block_to_node(2, charge=False)
        distributed_spmv(problem.matrix, x, y)
        assert solve(problem).converged
        assert builds == [problem.matrix] * 2

    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["serialized", "overlap"])
    def test_cold_cache_failed_owner_raises_with_nothing_booked(self,
                                                                overlap):
        """With a failed owner and no engine built yet, the engine build
        raises before the SpMV charges anything, and keeps no engine."""
        matrix = poisson_2d(10)
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        assert dist.context is not None  # the plan is built, the engine not
        cluster.fail_nodes([2])
        before = ledger_state(cluster.ledger)
        with pytest.raises(NodeFailedError):
            distributed_spmv(dist, x, y, overlap=overlap)
        assert ledger_state(cluster.ledger) == before
        assert dist._engine is None

    def test_restore_block_invalidates_cache(self, store_raised_diagonal):
        matrix = poisson_2d(12)
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        engine = dist.spmv_engine()
        version = dist.structure_version
        # Restoring the values already stored keeps the engine.
        dist.restore_block_to_node(2, charge=False)
        assert dist.structure_version == version
        assert dist.spmv_engine() is engine
        raised = store_raised_diagonal(dist, 2)
        dist.restore_block_to_node(2, charge=False)
        assert dist.structure_version > version
        rebuilt = dist.spmv_engine()
        assert rebuilt is not engine
        # the rebuilt engine computes with the restored blocks
        x = DistributedVector.from_global(
            cluster, partition, "x", np.arange(144.0)
        )
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y)
        start, stop = partition.range_of(2)
        expected = sp.vstack([matrix[:start], raised, matrix[stop:]],
                             format="csr")
        assert np.array_equal(y.to_global(), expected @ np.arange(144.0))

    def test_unrestored_input_raises_key_error(self):
        matrix = poisson_2d(10)
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y)
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        dist.restore_block_to_node(2, charge=False)
        with pytest.raises(KeyError):
            distributed_spmv(dist, x, y)

    def test_output_block_reinstalled_on_replacement_node(self):
        """The SpMV overwrites every output block, so a replacement node
        that lost its output block gets it back (the solver's ``AP`` after
        a recovery)."""
        matrix = poisson_2d(10)
        values = np.arange(100.0)
        partition, ((cluster, dist), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        dist.restore_block_to_node(2, charge=False)
        start, stop = partition.range_of(2)
        x.restore_block(2, values[start:stop])
        distributed_spmv(dist, x, y)
        assert y.has_block(2)
        assert np.array_equal(y.to_global(), matrix @ values)

    def test_ownership_violating_context_raises(self):
        """A plan whose edges ship indices their 'sender' does not own is
        rejected when it is built, so no engine or SpMV can ever see it."""
        matrix = poisson_2d(12)
        partition, ((cluster, _), _) = make_pair(matrix, 4)
        full_cols = np.arange(144, dtype=np.int64)
        before = ledger_state(cluster.ledger)
        # rank 0 "sends" every index, including ones owned by other ranks
        with pytest.raises(ContextMismatchError, match="does not own"):
            CommunicationContext(
                partition, {(0, dst): full_cols for dst in range(1, 4)}
            )
        assert ledger_state(cluster.ledger) == before

    @pytest.mark.parametrize("src, dst, index", [(0, 3, 100), (1, 3, 0)],
                             ids=["index-of-rank-2", "index-of-rank-0"])
    def test_plan_with_unowned_index_fails_before_any_charge(self, src, dst,
                                                             index):
        """The problem's own plan plus one index its sender does not own
        (rank 2's index 100 in ``S_03``; rank 0's index 0 in ``S_13``,
        whose negative local offset would count against rank 1's row 0)
        fails when it is built, before anything is charged."""
        problem = distribute_problem(poisson_2d(12), n_nodes=4,
                                     machine=MachineModel(jitter_rel_std=0.0))
        plan = problem.context
        edges = {(s, d): plan.send_indices(s, d)
                 for s in range(4) for d in plan.receivers_of(s)}
        edges[(src, dst)] = np.append(plan.send_indices(src, dst), index)
        before = ledger_state(problem.cluster.ledger)
        with pytest.raises(ContextMismatchError, match="does not own"):
            CommunicationContext(problem.partition, edges)
        assert ledger_state(problem.cluster.ledger) == before
        assert problem.context is plan


class TestNoEngineSwitch:
    """The cached engine is the only SpMV, so no layer takes an ``engine``
    switch: a caller that still passes one fails instead of silently
    running the one path."""

    def test_distributed_spmv_rejects_engine(self):
        matrix = poisson_2d(8)
        partition, ((cluster, dist), _) = make_pair(matrix, 2)
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.ones(64))
        y = DistributedVector.zeros(cluster, partition, "y")
        before = ledger_state(cluster.ledger)
        with pytest.raises(TypeError, match="engine"):
            distributed_spmv(dist, x, y, engine=False)
        assert ledger_state(cluster.ledger) == before

    @pytest.mark.parametrize("solver_cls", [BlockPCG, ResilientBlockPCG])
    def test_solvers_reject_engine(self, solver_cls):
        problem = distribute_problem(poisson_2d(8), n_nodes=2)
        with pytest.raises(TypeError, match="engine"):
            solver_cls(problem.matrix, problem.rhs, engine=False)


class TestAfterRecovery:
    def test_engine_matches_reference_after_failure_recovery_cycle(
            self, dense_gather_spmv):
        """Failure -> ESR recovery re-installs matrix blocks on replacement
        nodes; the cached engine must stay exact.  Twin problems run the
        same recovered solve, then one probe SpMV each."""
        matrix = poisson_2d(20)  # n = 400
        values = np.random.default_rng(11).standard_normal(matrix.shape[0])
        results = []
        for spmv in (distributed_spmv, dense_gather_spmv):
            problem = distribute_problem(
                matrix, n_nodes=5, seed=0,
                machine=MachineModel(jitter_rel_std=0.0))
            precond = make_preconditioner("block_jacobi")
            precond.setup(problem.matrix.to_global(), problem.partition)
            solver = ResilientPCG(
                problem.matrix, problem.rhs, precond,
                resilience=ResilienceSpec(
                    phi=2, failures=[FailureEvent(8, (1, 3))]))
            result = solver.solve()
            assert result.converged
            assert result.n_failures_recovered == 2

            x = DistributedVector.from_global(
                problem.cluster, problem.partition, "probe_x", values)
            y = DistributedVector.zeros(problem.cluster, problem.partition,
                                        "probe_y")
            spmv(problem.matrix, x, y)
            results.append((y.to_global(),
                            ledger_state(problem.cluster.ledger)))
        (y_engine, led_engine), (y_reference, led_reference) = results
        assert np.array_equal(y_engine, y_reference)
        assert led_engine == led_reference

    def test_solver_trajectory_identical_with_and_without_engine(
            self, dense_gather_spmv):
        """A recovered solve on the cached engine and one whose SpMVs all
        run on the dense-gather oracle agree bit for bit, ledger included."""
        matrix = poisson_2d(16)
        results = []
        for use_engine in (True, False):
            problem = distribute_problem(
                matrix, n_nodes=4, seed=0,
                machine=MachineModel(jitter_rel_std=0.0),
            )
            precond = make_preconditioner("block_jacobi")
            precond.setup(problem.matrix.to_global(), problem.partition)
            solver = ResilientPCG(
                problem.matrix, problem.rhs, precond,
                resilience=ResilienceSpec(
                    phi=1, failures=[FailureEvent(5, (2,))]))
            if not use_engine:
                solver._spmv = lambda x, out, s=solver: dense_gather_spmv(
                    s.matrix, x, out)
            result = solver.solve()
            results.append((result, ledger_state(problem.cluster.ledger)))
        (with_engine, led_engine), (without_engine, led_reference) = results
        assert with_engine.converged and without_engine.converged
        assert with_engine.n_failures_recovered == 1
        assert with_engine.iterations == without_engine.iterations
        assert with_engine.residual_norms == without_engine.residual_norms
        assert np.array_equal(with_engine.x, without_engine.x)
        assert with_engine.simulated_time == without_engine.simulated_time
        assert led_engine == led_reference


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(24, 400), n_parts=st.integers(1, 12),
       density=st.floats(0.01, 0.2), seed=st.integers(0, 2**32 - 1))
def test_property_engine_equals_reference(dense_gather_spmv, n, n_parts,
                                          density, seed):
    """For random sparse matrices and partitions the SpMV returns
    bit-identical results and charges to the dense-gather oracle."""
    n_parts = min(n_parts, n)
    rng = np.random.default_rng(seed)
    random_part = sp.random(n, n, density=density, random_state=rng,
                            format="csr")
    matrix = (random_part + random_part.T + sp.eye(n)).tocsr()
    values = rng.standard_normal(n)
    (y_engine, led_engine), (y_reference, led_reference) = spmv_both_paths(
        matrix, n_parts, values, dense_gather_spmv, repeats=1
    )
    assert np.array_equal(y_engine, y_reference)
    assert ledger_state(led_engine) == ledger_state(led_reference)
