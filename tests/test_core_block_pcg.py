"""Tests for the lock-step (multi-RHS) PCG solver.

Acceptance contract of the block-Krylov subsystem: per-column iterates and
residual histories bit-identical to ``k`` sequential single-RHS solves on
the same execution path, allreduce *message* counts independent of ``k``
with volume scaling with ``k``, exact charge equality between a 1-D rhs and
its ``k = 1`` block, and column freezing that stops a column's history
exactly where its sequential solve stopped.
"""

import math

import numpy as np
import pytest

from repro.cluster import MachineModel, NodeFailedError, VirtualCluster
from repro.cluster.cost_model import Phase
from repro.core import (
    BlockPCG,
    DistributedPCG,
    DistributedSolveResult,
    ResilientBlockPCG,
    ResilientPCG,
)
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedMultiVector,
    DistributedVector,
)
from repro.matrices import poisson_2d
from repro.precond import make_preconditioner

N_NODES = 4


def make_problem(n_grid=12, seed=0, k=4, precond_name="block_jacobi"):
    """Fresh cluster/matrix/context/preconditioner and a random rhs block."""
    a = poisson_2d(n_grid)
    n = a.shape[0]
    partition = BlockRowPartition(n, N_NODES)
    cluster = VirtualCluster(N_NODES, machine=MachineModel(jitter_rel_std=0.0))
    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    context = CommunicationContext.from_matrix(dist)
    precond = make_preconditioner(precond_name)
    precond.setup(a, partition)
    rhs_global = np.random.default_rng(seed).standard_normal((n, k))
    return a, cluster, partition, dist, context, precond, rhs_global


def sequential_solves(a, partition, rhs_global, precond_name, **kwargs):
    """One fresh DistributedPCG solve per column (independent clusters)."""
    results = []
    for j in range(rhs_global.shape[1]):
        cluster = VirtualCluster(N_NODES,
                                 machine=MachineModel(jitter_rel_std=0.0))
        dist = DistributedMatrix.from_global(cluster, partition, "A", a)
        context = CommunicationContext.from_matrix(dist)
        precond = make_preconditioner(precond_name)
        precond.setup(a, partition)
        rhs = DistributedVector.from_global(cluster, partition, "b",
                                            rhs_global[:, j])
        results.append(
            DistributedPCG(dist, rhs, precond, context=context,
                           **kwargs).solve()
        )
    return results


class TestEquivalence:
    @pytest.mark.parametrize("precond_name", ["identity", "jacobi",
                                              "block_jacobi"])
    def test_bit_identical_to_sequential_solves(self, precond_name):
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(precond_name=precond_name)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        block = BlockPCG(dist, rhs, precond, rtol=1e-8, context=context).solve()
        seq = sequential_solves(a, partition, rhs_global, precond_name,
                                rtol=1e-8)
        for j, result in enumerate(seq):
            assert block.iterations[j] == result.iterations
            assert block.converged[j] == result.converged
            assert block.residual_histories[j] == result.residual_norms
            assert np.array_equal(block.x[:, j], result.x)

    def test_bit_identical_with_overlap_spmv(self):
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(seed=1)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        block = BlockPCG(dist, rhs, precond, rtol=1e-8, context=context,
                         overlap_spmv=True).solve()
        seq = sequential_solves(a, partition, rhs_global, "block_jacobi",
                                rtol=1e-8, overlap_spmv=True)
        for j, result in enumerate(seq):
            assert block.residual_histories[j] == result.residual_norms
            assert np.array_equal(block.x[:, j], result.x)

    def test_column_freezing_stops_history_where_sequential_stops(self):
        """Columns converging at different iterations freeze independently;
        a column converged at setup runs zero iterations."""
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(seed=2, k=3)
        # Column 0 is tiny: with atol above its r0 norm it converges at
        # iteration 0 while the others iterate.
        rhs_global[:, 0] *= 1e-14
        atol = 1e-10
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        block = BlockPCG(dist, rhs, precond, rtol=1e-8, atol=atol,
                         context=context).solve()
        seq = sequential_solves(a, partition, rhs_global, "block_jacobi",
                                rtol=1e-8, atol=atol)
        assert block.iterations[0] == 0
        assert len(block.residual_histories[0]) == 1
        assert block.converged[0]
        iteration_counts = {result.iterations for result in seq}
        assert len(iteration_counts) > 1, "columns should converge unevenly"
        for j, result in enumerate(seq):
            assert block.iterations[j] == result.iterations
            assert block.residual_histories[j] == result.residual_norms
            assert np.array_equal(block.x[:, j], result.x)

    def test_solves_the_systems(self):
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(seed=3)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        result = BlockPCG(dist, rhs, precond, rtol=1e-8,
                          context=context).solve()
        assert result.all_converged
        for j in range(rhs_global.shape[1]):
            rel = result.true_residual_norms[j] / \
                np.linalg.norm(rhs_global[:, j])
            assert rel < 1e-7

    def test_initial_guess_block_matches_sequential(self):
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(seed=4, k=2)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        x0 = np.random.default_rng(40).standard_normal(rhs_global.shape)
        block = BlockPCG(dist, rhs, precond, rtol=1e-8,
                         context=context).solve(x0)
        for j in range(rhs_global.shape[1]):
            cluster_j = VirtualCluster(
                N_NODES, machine=MachineModel(jitter_rel_std=0.0))
            dist_j = DistributedMatrix.from_global(cluster_j, partition, "A", a)
            context_j = CommunicationContext.from_matrix(dist_j)
            precond_j = make_preconditioner("block_jacobi")
            precond_j.setup(a, partition)
            rhs_j = DistributedVector.from_global(cluster_j, partition, "b",
                                                  rhs_global[:, j])
            seq = DistributedPCG(dist_j, rhs_j, precond_j, rtol=1e-8,
                                 context=context_j).solve(x0[:, j].copy())
            assert block.residual_histories[j] == seq.residual_norms
            assert np.array_equal(block.x[:, j], seq.x)


class TestCharges:
    def test_k1_charges_identical_to_distributed_pcg(self):
        """At k = 1 the block solver is charge-identical to DistributedPCG
        (same ops, same batched-reduction sizes, same order)."""
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(seed=5, k=1)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        block = BlockPCG(dist, rhs, precond, rtol=1e-8, context=context).solve()
        seq = sequential_solves(a, partition, rhs_global, "block_jacobi",
                                rtol=1e-8)[0]
        assert block.residual_histories[0] == seq.residual_norms
        assert block.time_breakdown == seq.time_breakdown
        assert block.simulated_time == seq.simulated_time

    def fixed_iteration_run(self, k, iterations=5, seed=6):
        """A run of exactly *iterations* lock-step iterations (rtol=0)."""
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(seed=seed, k=k)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        result = BlockPCG(dist, rhs, precond, rtol=0.0, atol=0.0,
                          max_iterations=iterations, context=context).solve()
        assert result.global_iterations == iterations
        assert result.info["n_reductions"] == 2 + 3 * iterations
        return cluster, result

    def test_allreduce_messages_independent_of_k(self):
        iterations = 5
        levels = math.ceil(math.log2(N_NODES))
        # 2 setup reductions (rz, ||r0||) + 3 per iteration, each one
        # collective of 2*levels*N messages whatever the column count.
        expected = (2 + 3 * iterations) * 2 * levels * N_NODES
        stats = {}
        for k in (1, 4):
            cluster, _ = self.fixed_iteration_run(k, iterations)
            stats[k] = (
                cluster.ledger.messages[Phase.ALLREDUCE_COMM],
                cluster.ledger.elements[Phase.ALLREDUCE_COMM],
                cluster.ledger.times[Phase.ALLREDUCE_COMM],
            )
        assert stats[1][0] == stats[4][0] == expected
        assert stats[4][1] == 4 * stats[1][1]
        # Latency amortization: 4 columns cost far less than 4x the
        # single-column allreduce time (only the volume term scales).
        assert stats[4][2] < 1.1 * stats[1][2]

    def test_compute_charges_scale_linearly_with_k(self):
        iterations = 5
        per_k = {}
        for k in (1, 4):
            cluster, _ = self.fixed_iteration_run(k, iterations)
            per_k[k] = {
                phase: cluster.ledger.times[phase]
                for phase in (Phase.VECTOR_COMPUTE, Phase.SPMV_COMPUTE,
                              Phase.PRECOND_COMPUTE)
            }
        for phase, t1 in per_k[1].items():
            assert per_k[4][phase] == pytest.approx(4 * t1)

    def test_halo_messages_independent_of_k(self):
        iterations = 5
        per_k = {}
        for k in (1, 4):
            cluster, _ = self.fixed_iteration_run(k, iterations)
            per_k[k] = (cluster.ledger.messages[Phase.HALO_COMM],
                        cluster.ledger.elements[Phase.HALO_COMM])
        assert per_k[1][0] == per_k[4][0]
        assert per_k[4][1] == 4 * per_k[1][1]


class TestValidation:
    def test_rejects_non_block_diagonal_preconditioner(self):
        a, cluster, partition, dist, context, _, rhs_global = make_problem()
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        ssor = make_preconditioner("ssor")
        ssor.setup(a, partition)
        with pytest.raises(ValueError):
            BlockPCG(dist, rhs, ssor, context=context)

    def test_rejects_incompatible_partitions(self):
        a, cluster, partition, dist, context, precond, _ = make_problem()
        other_cluster = VirtualCluster(
            N_NODES, machine=MachineModel(jitter_rel_std=0.0))
        other_partition = BlockRowPartition(partition.n + 1, N_NODES)
        rhs = DistributedMultiVector.zeros(other_cluster, other_partition,
                                           "B", 2)
        with pytest.raises(ValueError):
            BlockPCG(dist, rhs, precond)

    def test_node_failure_raises_out_of_solve(self):
        """BlockPCG has no recovery; a failure mid-setup must surface."""
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(seed=7, k=2)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        solver = BlockPCG(dist, rhs, precond, rtol=1e-8, context=context)
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            solver.solve()

    def test_breakdown_freezes_column(self):
        """An indefinite system drives p^T A p <= 0: the column freezes
        (no NaN contamination of the block) instead of aborting the rest."""
        import scipy.sparse as sp

        n = 16
        diag = np.ones(n)
        diag[::2] = -1.0  # indefinite
        a = sp.diags(diag, format="csr")
        partition = BlockRowPartition(n, N_NODES)
        cluster = VirtualCluster(N_NODES,
                                 machine=MachineModel(jitter_rel_std=0.0))
        dist = DistributedMatrix.from_global(cluster, partition, "A", a)
        context = CommunicationContext.from_matrix(dist)
        precond = make_preconditioner("identity")
        precond.setup(a, partition)
        rng = np.random.default_rng(8)
        rhs_global = rng.standard_normal((n, 2))
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        result = BlockPCG(dist, rhs, precond, rtol=1e-8, max_iterations=50,
                          context=context).solve()
        assert result.info["breakdown_columns"], "expected a CG breakdown"
        assert np.all(np.isfinite(result.x))
        # The reported reduction count stays consistent with the ledger even
        # when a breakdown aborts an iteration after its first reduction.
        levels = math.ceil(math.log2(N_NODES))
        assert cluster.ledger.messages[Phase.ALLREDUCE_COMM] == \
            result.info["n_reductions"] * 2 * levels * N_NODES


class TestInitialGuessValidation:
    """``x0`` must be finite and shaped like the right-hand side."""

    def block_solver(self, k=2):
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(n_grid=8, k=k)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        return BlockPCG(dist, rhs, precond, context=context), rhs_global

    def vector_solver(self):
        a, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(n_grid=8, k=1)
        rhs = DistributedVector.from_global(cluster, partition, "b",
                                            rhs_global[:, 0])
        return DistributedPCG(dist, rhs, precond, context=context)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_rejected(self, bad):
        solver = self.vector_solver()
        x0 = np.zeros(solver.partition.n)
        x0[5] = bad
        with pytest.raises(ValueError, match="x0"):
            solver.solve(x0)

    def test_non_finite_block_x0_rejected(self):
        solver, rhs_global = self.block_solver()
        x0 = np.zeros(rhs_global.shape)
        x0[3, 1] = np.nan
        with pytest.raises(ValueError, match="x0"):
            solver.solve(x0)

    def test_non_finite_distributed_x0_rejected(self):
        solver, rhs_global = self.block_solver()
        x0 = np.zeros(rhs_global.shape)
        x0[7, 0] = np.inf
        dist_x0 = DistributedMultiVector.from_global(
            solver.cluster, solver.partition, "X0", x0)
        with pytest.raises(ValueError, match="x0"):
            solver.solve(dist_x0)

    def test_transposed_block_x0_rejected(self):
        """A (k, n) array is not silently reshaped into garbled columns."""
        solver, rhs_global = self.block_solver()
        with pytest.raises(ValueError, match="shape"):
            solver.solve(np.zeros(rhs_global.shape[::-1]))

    @pytest.mark.parametrize("shape", ["column", "flat"])
    def test_wrong_rank_x0_rejected(self, shape):
        vector = self.vector_solver()
        block, rhs_global = self.block_solver(k=1)
        n = vector.partition.n
        with pytest.raises(ValueError, match="shape"):
            if shape == "column":
                vector.solve(np.zeros((n, 1)))
            else:
                block.solve(np.zeros(n))

    def test_distributed_x0_column_count_checked(self):
        solver, rhs_global = self.block_solver(k=2)
        x0 = DistributedMultiVector.zeros(solver.cluster, solver.partition,
                                          "X0", 3)
        with pytest.raises(ValueError, match="columns"):
            solver.solve(x0)

    def test_valid_x0_accepted(self):
        solver, rhs_global = self.block_solver(k=2)
        result = solver.solve(np.zeros(rhs_global.shape))
        assert result.all_converged


class TestSingleVectorInterface:
    """One loop: a 1-D rhs runs as the k = 1 block and comes back 1-D."""

    def test_single_rhs_names_are_the_block_classes(self):
        assert DistributedPCG is BlockPCG
        assert ResilientPCG is ResilientBlockPCG

    def test_vector_rhs_returns_column_of_k1_block(self):
        _, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(k=1)
        block = BlockPCG(dist, DistributedMultiVector.from_global(
            cluster, partition, "B", rhs_global), precond,
            context=context).solve()
        # A fresh cluster, so both ledgers start from zero.
        a, cluster, partition, dist, context, precond, _ = make_problem(k=1)
        vector = BlockPCG(dist, DistributedVector.from_global(
            cluster, partition, "b", rhs_global[:, 0]), precond,
            context=context).solve()
        assert isinstance(vector, DistributedSolveResult)
        assert vector.x.shape == (a.shape[0],)
        expected = block.column(0)
        assert np.array_equal(vector.x, expected.x)
        assert vector.residual_norms == expected.residual_norms
        assert vector.iterations == expected.iterations
        assert vector.time_breakdown == expected.time_breakdown

    def test_column_carries_per_column_fields(self):
        _, cluster, partition, dist, context, precond, rhs_global = \
            make_problem(k=3)
        block = BlockPCG(dist, DistributedMultiVector.from_global(
            cluster, partition, "B", rhs_global), precond,
            context=context).solve()
        for j in range(3):
            col = block.column(j)
            assert np.array_equal(col.x, block.x[:, j])
            assert col.x.flags.c_contiguous
            assert col.converged == block.converged[j]
            assert col.iterations == block.iterations[j]
            assert col.residual_norms == block.residual_histories[j]
            assert col.true_residual_norm == block.true_residual_norms[j]
            assert col.info["threshold"] == block.info["thresholds"][j]
            assert col.simulated_time == block.simulated_time


class _PoisonedJacobi:
    """Factory of a Jacobi preconditioner whose output for column 1 turns
    NaN after *clean* rank applications (an overflow inside the solve)."""

    @staticmethod
    def build(clean):
        precond = make_preconditioner("jacobi")
        apply_block = precond.apply_block
        calls = {"n": 0}

        def poisoned(rank, block):
            out = apply_block(rank, block)
            calls["n"] += 1
            if calls["n"] > clean and out.ndim == 2 and out.shape[1] > 1:
                out = np.array(out, copy=True)
                out[:, 1] = np.nan
            return out

        precond.apply_block = poisoned
        return precond


class TestNonFiniteColumns:
    """A column whose ``r^T z``, ``p^T A p`` or residual norm is NaN or
    infinite freezes with ``converged=False`` and is listed in
    ``info["nonfinite_columns"]``; the healthy columns stay bit-identical to
    their ``k = 1`` solves."""

    @staticmethod
    def solve(rhs_global, precond=None, **kwargs):
        a = poisson_2d(12)
        partition = BlockRowPartition(a.shape[0], N_NODES)
        cluster = VirtualCluster(N_NODES,
                                 machine=MachineModel(jitter_rel_std=0.0))
        dist = DistributedMatrix.from_global(cluster, partition, "A", a)
        if precond is None:
            precond = make_preconditioner("block_jacobi")
        precond.setup(a, partition)
        container = (DistributedVector if rhs_global.ndim == 1
                     else DistributedMultiVector)
        rhs = container.from_global(cluster, partition, "b", rhs_global)
        return BlockPCG(dist, rhs, precond, **kwargs).solve()

    def test_inf_rhs_entry_is_not_reported_converged(self):
        b = np.ones(144)
        b[5] = np.inf
        result = self.solve(b)
        assert not result.converged
        assert result.iterations == 0
        assert result.info["nonfinite_columns"] == [0]

    def test_nan_rhs_entry_stops_without_iterating(self):
        b = np.ones(144)
        b[5] = np.nan
        result = self.solve(b)
        assert not result.converged
        assert result.iterations == 0
        assert result.info["nonfinite_columns"] == [0]

    def test_nan_column_freezes_while_the_others_converge(self):
        rhs = np.random.default_rng(3).standard_normal((144, 3))
        rhs[7, 1] = np.nan
        result = self.solve(rhs)
        assert result.converged == [True, False, True]
        assert result.info["nonfinite_columns"] == [1]
        assert result.info["breakdown_columns"] == []
        assert result.iterations[1] == 0
        # The block stops with the healthy columns, not at the cap.
        assert result.global_iterations == max(result.iterations)
        for j in (0, 2):
            single = self.solve(rhs[:, j].copy())
            assert single.converged
            assert result.residual_histories[j] == single.residual_norms
            assert np.array_equal(result.x[:, j], single.x)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_p_ap_freezes_before_the_update(self):
        a = poisson_2d(12)
        rng = np.random.default_rng(4)
        huge = rng.standard_normal(144)
        huge *= 1e154 / np.linalg.norm(huge)  # r^T r finite, p^T A p not
        assert np.isfinite(huge @ huge) and not np.isfinite(huge @ (a @ huge))
        rhs = np.column_stack([rng.standard_normal(144), huge])
        identity = make_preconditioner("identity")
        result = self.solve(rhs, precond=identity)
        assert result.converged == [True, False]
        assert result.info["nonfinite_columns"] == [1]
        assert result.iterations[1] == 0
        assert result.residual_histories[1] == [float(np.linalg.norm(huge))]
        assert np.array_equal(result.x[:, 1], np.zeros(144))
        single = self.solve(rhs[:, 0].copy(),
                            precond=make_preconditioner("identity"))
        assert result.residual_histories[0] == single.residual_norms
        assert np.array_equal(result.x[:, 0], single.x)

    def test_nan_mid_solve_freezes_at_that_iteration(self):
        rhs = np.random.default_rng(5).standard_normal((144, 2))
        # Setup and two iterations apply the preconditioner cleanly.
        result = self.solve(rhs, precond=_PoisonedJacobi.build(3 * N_NODES))
        assert result.converged == [True, False]
        assert result.info["nonfinite_columns"] == [1]
        # Iteration 2 updated x and r, then its r^T z came out NaN.
        assert result.iterations[1] == 3
        assert len(result.residual_histories[1]) == 4
        single = self.solve(rhs[:, 0].copy(),
                            precond=make_preconditioner("jacobi"))
        assert result.residual_histories[0] == single.residual_norms
        assert np.array_equal(result.x[:, 0], single.x)
