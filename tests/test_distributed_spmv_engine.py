"""Tests for the local-view SpMV execution engine.

The central property: the engine path of ``distributed_spmv`` is equivalent
to the dense-gather reference path -- bit-identical numeric results and
bit-identical simulated-time charges -- including after failure/recovery
cycles that rewrite matrix blocks (cache invalidation) and for degenerate
scatter plans (single node, no off-node dependencies).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FailureEvent,
    FailureInjector,
    MachineModel,
    NodeFailedError,
    VirtualCluster,
)
from repro.core.api import distribute_problem
from repro.core.resilient_pcg import ResilientPCG
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedVector,
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
        ctx = CommunicationContext.from_matrix(dist)
        out.append((cluster, dist, ctx))
    return partition, out


def spmv_both_paths(matrix, n_parts, values, repeats=3, charge=True):
    """Run engine and reference paths on twin clusters; return both results."""
    partition, (engine_side, reference_side) = make_pair(matrix, n_parts)
    results = []
    for (cluster, dist, ctx), use_engine in ((engine_side, True),
                                             (reference_side, False)):
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        for _ in range(repeats):
            distributed_spmv(dist, x, y, ctx, charge=charge, engine=use_engine)
        results.append((y.to_global(), cluster.ledger))
    return results


class TestEquivalence:
    @pytest.mark.parametrize("matrix_id,n,n_parts", [
        ("M1", 1500, 4), ("M3", 2000, 8), ("M4", 1500, 6), ("M8", 1500, 5),
    ])
    def test_bit_identical_results_across_suite(self, matrix_id, n, n_parts):
        matrix = build_matrix(matrix_id, n=n, seed=0)
        values = np.random.default_rng(7).standard_normal(matrix.shape[0])
        (y_engine, _), (y_reference, _) = spmv_both_paths(matrix, n_parts, values)
        assert np.array_equal(y_engine, y_reference)

    @pytest.mark.parametrize("n_parts", [2, 4, 8])
    def test_bit_identical_charges(self, n_parts):
        matrix = poisson_2d(20)
        values = np.linspace(-1.0, 1.0, matrix.shape[0])
        (_, led_engine), (_, led_reference) = spmv_both_paths(
            matrix, n_parts, values, repeats=5
        )
        assert led_engine.times == led_reference.times
        assert led_engine.messages == led_reference.messages
        assert led_engine.elements == led_reference.elements

    def test_empty_scatter_plan_single_node(self):
        matrix = poisson_2d(8)  # n = 64
        values = np.arange(64.0)
        (y_engine, led), (y_reference, _) = spmv_both_paths(matrix, 1, values)
        assert np.array_equal(y_engine, y_reference)
        assert np.array_equal(y_engine, matrix @ values)
        # no off-node dependencies: nothing charged to the halo phase
        assert led.total_elements(["comm.halo"]) == 0

    def test_block_diagonal_matrix_has_no_ghosts(self):
        blocks = [np.eye(4) * (i + 2) for i in range(4)]
        matrix = sp.block_diag(blocks, format="csr")
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        engine = dist.spmv_engine(ctx)
        assert engine is not None
        for rank in range(4):
            assert engine.ghost_indices(rank).size == 0

    def test_output_may_alias_input(self):
        matrix = poisson_2d(10)
        values = np.random.default_rng(3).standard_normal(100)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        distributed_spmv(dist, x, x, ctx)
        assert np.array_equal(x.to_global(), matrix @ values)

    def test_fails_when_owner_failed(self):
        matrix = poisson_2d(10)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, ctx)  # engine built and cached
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            distributed_spmv(dist, x, y, ctx)


class TestGhostCompression:
    def test_ghost_indices_match_scatter_plan(self):
        matrix = build_matrix("M3", n=1200, seed=0)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 6)
        engine = dist.spmv_engine(ctx)
        for rank in range(6):
            senders = ctx.senders_to(rank)
            expected = (np.unique(np.concatenate(
                [ctx.send_indices(src, rank) for src in senders]
            )) if senders else np.empty(0, dtype=np.int64))
            assert np.array_equal(engine.ghost_indices(rank), expected)

    def test_in_place_value_edits_stay_live(self):
        """The engine shares data/indptr with the stored blocks, so value
        edits without set_block are reflected exactly like on the reference
        path."""
        matrix = poisson_2d(10)
        values = np.random.default_rng(5).standard_normal(100)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, ctx, charge=False)  # engine cached
        dist.row_block(1).data *= 2.0
        y_engine = DistributedVector.zeros(cluster, partition, "y1")
        y_reference = DistributedVector.zeros(cluster, partition, "y2")
        distributed_spmv(dist, x, y_engine, ctx, charge=False, engine=True)
        distributed_spmv(dist, x, y_reference, ctx, charge=False,
                         engine=False)
        assert np.array_equal(y_engine.to_global(), y_reference.to_global())


class TestCache:
    def test_engine_cached_per_context(self):
        matrix = poisson_2d(12)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        engine = dist.spmv_engine(ctx)
        assert dist.spmv_engine(ctx) is engine
        other_ctx = CommunicationContext.from_matrix(dist)
        assert dist.spmv_engine(other_ctx) is not engine

    def test_default_context_calls_reuse_one_engine(self):
        """Repeated ``context=None`` calls must not build (and leak) a fresh
        plan + engine per call."""
        matrix = poisson_2d(12)
        partition, ((cluster, dist, _), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.arange(144.0))
        y = DistributedVector.zeros(cluster, partition, "y")
        for _ in range(10):
            distributed_spmv(dist, x, y)
        assert len(dist._spmv_engines) == 1
        assert dist.default_context() is dist.default_context()

    def test_engine_cache_is_bounded(self):
        matrix = poisson_2d(12)
        partition, ((cluster, dist, _), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.arange(144.0))
        y = DistributedVector.zeros(cluster, partition, "y")
        hot_ctx = CommunicationContext.from_matrix(dist)
        hot_engine = dist.spmv_engine(hot_ctx)
        for _ in range(3 * dist._ENGINE_CACHE_SIZE):
            ctx = CommunicationContext.from_matrix(dist)
            distributed_spmv(dist, x, y, ctx)
            # LRU: touching the long-lived plan keeps it cached throughout
            assert dist.spmv_engine(hot_ctx) is hot_engine
        assert len(dist._spmv_engines) <= dist._ENGINE_CACHE_SIZE
        assert np.array_equal(y.to_global(), matrix @ np.arange(144.0))

    def test_engine_recached_under_own_key_after_invalidation(self):
        """Eviction of stale entries must not corrupt the key the rebuilt
        engine is stored under (regression: loop-variable shadowing)."""
        matrix = poisson_2d(12)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        contexts = [CommunicationContext.from_matrix(dist)
                    for _ in range(dist._ENGINE_CACHE_SIZE)]
        for extra_ctx in contexts:
            assert dist.spmv_engine(extra_ctx) is not None
        dist.restore_block_to_node(0, charge=False)  # all entries now stale
        rebuilt = dist.spmv_engine(ctx)
        assert rebuilt is not None
        assert id(ctx) in dist._spmv_engines
        assert dist.spmv_engine(ctx) is rebuilt  # hit, not a rebuild

    def test_failed_owner_charge_order_matches_reference(self):
        """With a failed owner and a cold engine cache, both paths must
        leave identical ledgers (halo charged, then the raise)."""
        matrix = poisson_2d(10)
        partition, ((c_eng, d_eng, _), (c_ref, d_ref, _)) = make_pair(matrix, 4)
        ledgers = []
        for cluster, dist, use_engine in ((c_eng, d_eng, True),
                                          (c_ref, d_ref, False)):
            x = DistributedVector.from_global(cluster, partition, "x",
                                              np.ones(100))
            y = DistributedVector.zeros(cluster, partition, "y")
            fresh_ctx = CommunicationContext.from_matrix(dist)  # cold cache
            cluster.fail_nodes([2])
            with pytest.raises(NodeFailedError):
                distributed_spmv(dist, x, y, fresh_ctx, engine=use_engine)
            ledgers.append(cluster.ledger)
        assert ledgers[0].times == ledgers[1].times
        assert ledgers[0].messages == ledgers[1].messages
        assert ledgers[0].elements == ledgers[1].elements

    def test_restore_block_invalidates_cache(self, store_raised_diagonal):
        matrix = poisson_2d(12)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        engine = dist.spmv_engine(ctx)
        version = dist.structure_version
        # Restoring the values already stored keeps the engine.
        dist.restore_block_to_node(2, charge=False)
        assert dist.structure_version == version
        assert dist.spmv_engine(ctx) is engine
        raised = store_raised_diagonal(dist, 2)
        dist.restore_block_to_node(2, charge=False)
        assert dist.structure_version > version
        rebuilt = dist.spmv_engine(ctx)
        assert rebuilt is not engine
        # the rebuilt engine computes with the restored blocks
        x = DistributedVector.from_global(
            cluster, partition, "x", np.arange(144.0)
        )
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, ctx)
        start, stop = partition.range_of(2)
        expected = sp.vstack([matrix[:start], raised, matrix[stop:]],
                             format="csr")
        assert np.array_equal(y.to_global(), expected @ np.arange(144.0))

    def test_unrestored_input_raises_key_error(self):
        matrix = poisson_2d(10)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, ctx)
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        dist.restore_block_to_node(2, charge=False)
        with pytest.raises(KeyError):
            distributed_spmv(dist, x, y, ctx)

    def test_output_block_reinstalled_on_replacement_node(self):
        """The SpMV overwrites every output block, so a replacement node
        that lost its output block gets it back (the solver's ``AP`` after
        a recovery)."""
        matrix = poisson_2d(10)
        values = np.arange(100.0)
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        dist.restore_block_to_node(2, charge=False)
        start, stop = partition.range_of(2)
        x.restore_block(2, values[start:stop])
        distributed_spmv(dist, x, y, ctx)
        assert y.has_block(2)
        assert np.array_equal(y.to_global(), matrix @ values)

    def test_ownership_violating_context_falls_back_to_reference(self):
        """A plan whose edges ship indices their 'sender' does not own must
        be rejected at build time, not silently mis-staged."""
        matrix = poisson_2d(12)
        partition, ((cluster, dist, _), _) = make_pair(matrix, 4)
        full_cols = np.arange(144, dtype=np.int64)
        # rank 0 "sends" every index, including ones owned by other ranks
        bogus_ctx = CommunicationContext(
            partition, {(0, dst): full_cols for dst in range(1, 4)}
        )
        assert dist.spmv_engine(bogus_ctx) is None
        x = DistributedVector.from_global(cluster, partition, "x",
                                          np.arange(144.0))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, bogus_ctx, charge=False)
        assert np.array_equal(y.to_global(), matrix @ np.arange(144.0))

    def test_mismatched_context_falls_back_to_reference(self):
        """A plan that does not cover the sparsity pattern must not be used
        numerically -- the reference path's numerics ignore the context."""
        matrix = poisson_2d(12)  # has off-diagonal blocks
        partition, ((cluster, dist, ctx), _) = make_pair(matrix, 4)
        empty_ctx = CommunicationContext(partition, {})
        assert dist.spmv_engine(empty_ctx) is None
        x = DistributedVector.from_global(
            cluster, partition, "x", np.arange(144.0)
        )
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, empty_ctx, charge=False)
        assert np.array_equal(y.to_global(), matrix @ np.arange(144.0))


class TestAfterRecovery:
    def test_engine_matches_reference_after_failure_recovery_cycle(self):
        """Failure -> ESR recovery rewrites matrix blocks on replacement
        nodes; the cached engine must be invalidated and stay exact."""
        matrix = poisson_2d(20)  # n = 400
        problem = distribute_problem(matrix, n_nodes=5, seed=0,
                                     machine=MachineModel(jitter_rel_std=0.0))
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        injector = FailureInjector([FailureEvent(8, (1, 3))])
        solver = ResilientPCG(problem.matrix, problem.rhs, precond, phi=2,
                              failure_injector=injector,
                              context=problem.context)
        result = solver.solve()
        assert result.converged
        assert result.n_failures_recovered == 2

        values = np.random.default_rng(11).standard_normal(problem.n)
        x = DistributedVector.from_global(problem.cluster, problem.partition,
                                          "probe_x", values)
        y_engine = DistributedVector.zeros(problem.cluster, problem.partition,
                                           "probe_y1")
        y_reference = DistributedVector.zeros(problem.cluster,
                                              problem.partition, "probe_y2")
        distributed_spmv(problem.matrix, x, y_engine, problem.context,
                         charge=False, engine=True)
        distributed_spmv(problem.matrix, x, y_reference, problem.context,
                         charge=False, engine=False)
        assert np.array_equal(y_engine.to_global(), y_reference.to_global())

    def test_solver_trajectory_identical_with_and_without_engine(self):
        """Full solves through the engine and the reference path agree."""
        matrix = poisson_2d(16)
        results = []
        for use_engine in (True, False):
            problem = distribute_problem(
                matrix, n_nodes=4, seed=0,
                machine=MachineModel(jitter_rel_std=0.0),
            )
            precond = make_preconditioner("block_jacobi")
            precond.setup(problem.matrix.to_global(), problem.partition)
            solver = ResilientPCG(problem.matrix, problem.rhs, precond, phi=1,
                                  failure_injector=FailureInjector(
                                      [FailureEvent(5, (2,))]
                                  ),
                                  context=problem.context)
            if not use_engine:
                solver._spmv_p = lambda: distributed_spmv(
                    solver.matrix, solver.p, solver.ap, solver.context,
                    engine=False,
                )
            results.append(solver.solve())
        with_engine, without_engine = results
        assert with_engine.converged and without_engine.converged
        assert with_engine.iterations == without_engine.iterations
        assert np.allclose(with_engine.x, without_engine.x,
                           rtol=1e-12, atol=1e-14)
        assert with_engine.simulated_time == pytest.approx(
            without_engine.simulated_time, rel=1e-12
        )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(24, 400), n_parts=st.integers(1, 12),
       density=st.floats(0.01, 0.2), seed=st.integers(0, 2**32 - 1))
def test_property_engine_equals_reference(n, n_parts, density, seed):
    """For random sparse matrices and partitions the engine path returns
    bit-identical results to the dense-gather reference path."""
    n_parts = min(n_parts, n)
    rng = np.random.default_rng(seed)
    random_part = sp.random(n, n, density=density, random_state=rng,
                            format="csr")
    matrix = (random_part + random_part.T + sp.eye(n)).tocsr()
    values = rng.standard_normal(n)
    (y_engine, _), (y_reference, _) = spmv_both_paths(
        matrix, n_parts, values, repeats=1, charge=False
    )
    assert np.array_equal(y_engine, y_reference)
