"""Tests for split-phase (overlapped) SpMV and batched multi-RHS kernels.

Contracts exercised here:

* ``overlap=False`` (the default) is untouched by this feature: results and
  charges stay bit-identical to the dense-gather oracle (the
  ``dense_gather_spmv`` fixture).
* ``overlap=True`` executes through the diag/offdiag split: results equal an
  independent split oracle exactly and the fused kernel to rounding; the
  overlap-aware charge obeys ``max(halo, diag) + offdiag <= halo + diag +
  offdiag`` per configuration and the ledger decomposition sums to it.
* Batched ``Y = A X`` is column-wise bit-identical to ``k`` single-vector
  calls on the same execution path, with one halo exchange shipping ``k``
  columns (same message count, ``k``-fold element volume).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import MachineModel, NodeFailedError, Phase, VirtualCluster
from repro.core.pcg import DistributedPCG
from repro.distributed import (
    BlockRowPartition,
    DistributedMatrix,
    DistributedMultiVector,
    DistributedVector,
    distributed_spmv,
)
from repro.matrices import build_matrix, poisson_2d
from repro.precond import make_preconditioner


def make_problem(matrix, n_parts, seed=7):
    n = matrix.shape[0]
    partition = BlockRowPartition(n, n_parts)
    cluster = VirtualCluster(n_parts, machine=MachineModel(jitter_rel_std=0.0))
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    ctx = dist.context
    values = np.random.default_rng(seed).standard_normal(n)
    return cluster, partition, dist, ctx, values


def split_oracle(matrix, partition, values):
    """Independent diag-then-offdiag product, emulating the exact
    accumulation order of the split kernels: per row, diagonal terms are
    summed in stored order, then off-diagonal terms continue the same
    running sum (the CSR kernel accumulates in place)."""
    matrix = sp.csr_matrix(matrix)
    matrix.sort_indices()
    out = np.empty(partition.n)
    for rank in range(partition.n_parts):
        start, stop = partition.range_of(rank)
        block = matrix[start:stop, :].tocsr()
        block.sort_indices()
        indptr, indices, data = block.indptr, block.indices, block.data
        for i in range(stop - start):
            cols = indices[indptr[i]:indptr[i + 1]]
            vals = data[indptr[i]:indptr[i + 1]]
            own = (cols >= start) & (cols < stop)
            acc = np.float64(0.0)
            for a, j in zip(vals[own], cols[own]):
                acc += a * values[j]
            for a, j in zip(vals[~own], cols[~own]):
                acc += a * values[j]
            out[start + i] = acc
    return out


class TestSplitPhaseEquivalence:
    @pytest.mark.parametrize("matrix_id,n,n_parts", [
        ("M1", 1500, 4), ("M3", 2000, 8), ("M4", 1500, 6), ("M8", 1500, 5),
    ])
    def test_split_results_match_oracle_and_fused(self, matrix_id, n, n_parts):
        matrix = build_matrix(matrix_id, n=n, seed=0)
        cluster, partition, dist, ctx, values = make_problem(matrix, n_parts)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y_split = DistributedVector.zeros(cluster, partition, "ys")
        y_fused = DistributedVector.zeros(cluster, partition, "yf")
        distributed_spmv(dist, x, y_split, charge=False, overlap=True)
        distributed_spmv(dist, x, y_fused, charge=False, overlap=False)
        # Exactly the split summation order (diag terms, then offdiag terms).
        assert np.array_equal(y_split.to_global(),
                              split_oracle(matrix, partition, values))
        # And within rounding of the fused kernel.
        scale = np.max(np.abs(y_fused.to_global()))
        assert np.max(np.abs(y_split.to_global() - y_fused.to_global())) \
            <= 1e-13 * max(scale, 1.0)

    def test_overlap_false_charges_bit_identical_to_reference(
            self, dense_gather_spmv):
        matrix = build_matrix("M3", n=2000, seed=0)
        ledgers = []
        results = []
        for spmv in (distributed_spmv, dense_gather_spmv):
            cluster, partition, dist, ctx, values = make_problem(matrix, 8)
            x = DistributedVector.from_global(cluster, partition, "x", values)
            y = DistributedVector.zeros(cluster, partition, "y")
            for _ in range(3):
                spmv(dist, x, y)
            ledgers.append(cluster.ledger)
            results.append(y.to_global())
        assert np.array_equal(results[0], results[1])
        assert ledgers[0].times == ledgers[1].times
        assert ledgers[0].messages == ledgers[1].messages
        assert ledgers[0].elements == ledgers[1].elements

    @pytest.mark.parametrize("matrix_id,n_parts", [
        ("M1", 4), ("M3", 8), ("M3", 16), ("M8", 8),
    ])
    def test_overlap_charge_bounded_by_serialized(self, matrix_id, n_parts):
        matrix = build_matrix(matrix_id, n=2000, seed=0)
        cluster, partition, dist, ctx, _ = make_problem(matrix, n_parts)
        engine = dist.spmv_engine()
        ch = engine.overlap_charge()
        serialized = engine.halo_cost[0] + engine.compute_cost
        assert ch.total_time <= serialized + 1e-18
        # A connected matrix gives every rank halo traffic and diagonal
        # work, so some halo is genuinely hidden.
        assert ch.total_time < serialized
        assert 0.0 <= ch.hidden_halo_fraction <= 1.0
        assert ch.exposed_comm_time >= 0.0
        assert ch.compute_time > 0.0

    def test_overlap_ledger_decomposition(self):
        matrix = build_matrix("M3", n=2000, seed=0)
        cluster, partition, dist, ctx, values = make_problem(matrix, 8)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, overlap=True)
        engine = dist.spmv_engine()
        ch = engine.overlap_charge()
        ledger = cluster.ledger
        assert ledger.times[Phase.SPMV_COMPUTE] == ch.compute_time
        assert ledger.times[Phase.HALO_COMM] == pytest.approx(
            ch.exposed_comm_time, abs=1e-24
        )
        assert ledger.iteration_time() == pytest.approx(ch.total_time)
        # Traffic counters are unchanged by the overlap.
        assert ledger.messages[Phase.HALO_COMM] == ctx.total_messages()
        assert ledger.elements[Phase.HALO_COMM] == \
            ctx.total_exchanged_elements()

    def test_overlap_may_alias_input(self):
        matrix = poisson_2d(10)
        cluster, partition, dist, ctx, values = make_problem(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        distributed_spmv(dist, x, x, charge=False, overlap=True)
        assert np.array_equal(x.to_global(),
                              split_oracle(matrix, partition, values))

    def test_overlap_fails_when_owner_failed(self):
        matrix = poisson_2d(10)
        cluster, partition, dist, ctx, values = make_problem(matrix, 4)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y, overlap=True)
        cluster.fail_nodes([2])
        with pytest.raises(NodeFailedError):
            distributed_spmv(dist, x, y, overlap=True)

    def test_diag_offdiag_partition_structure(self):
        matrix = build_matrix("M4", n=1200, seed=0)
        cluster, partition, dist, ctx, _ = make_problem(matrix, 6)
        engine = dist.spmv_engine()
        diag_part, offdiag_part = engine._split_parts()
        for rank in range(6):
            start, stop = partition.range_of(rank)
            diag = diag_part[start:stop, start:stop]
            # The off-diagonal part of the rank's rows, in ghost order:
            # senders ascend and each ships sorted indices of its range.
            ghosts = np.concatenate(
                [ctx.send_indices(src, rank) for src in ctx.senders_to(rank)]
                or [np.empty(0, dtype=np.int64)])
            offdiag = offdiag_part[start:stop][:, ghosts]
            assert engine._diag_nnz[rank] + engine._offdiag_nnz[rank] == \
                dist.nnz_of(rank)
            assert diag.nnz == engine._diag_nnz[rank]
            assert offdiag.nnz == engine._offdiag_nnz[rank]
            # The diagonal part is exactly the square diagonal block A_{I,I}.
            reference = matrix[start:stop, start:stop]
            assert (diag != reference).nnz == 0
            n_local = stop - start
            assert diag.shape == (n_local, n_local)
            assert offdiag.shape == (n_local, ghosts.size)


class TestMultiRHS:
    @pytest.mark.parametrize("matrix_id,n,n_parts,k", [
        ("M1", 1500, 4, 3), ("M3", 2000, 8, 8), ("M8", 1500, 5, 2),
    ])
    def test_batched_columns_bit_identical_to_single_calls(
            self, matrix_id, n, n_parts, k):
        matrix = build_matrix(matrix_id, n=n, seed=0)
        cluster, partition, dist, ctx, _ = make_problem(matrix, n_parts)
        block = np.random.default_rng(3).standard_normal(
            (matrix.shape[0], k)
        )
        x = DistributedMultiVector.from_global(cluster, partition, "X", block)
        y = DistributedMultiVector.zeros(cluster, partition, "Y", k)
        distributed_spmv(dist, x, y, charge=False)
        y_global = y.to_global()
        for j in range(k):
            xj = DistributedVector.from_global(
                cluster, partition, f"x{j}", block[:, j]
            )
            yj = DistributedVector.zeros(cluster, partition, f"y{j}")
            distributed_spmv(dist, xj, yj, charge=False)
            assert np.array_equal(y_global[:, j], yj.to_global())

    def test_engine_and_reference_block_paths_agree(self, dense_gather_spmv):
        matrix = build_matrix("M3", n=1500, seed=0)
        block = np.random.default_rng(5).standard_normal(
            (matrix.shape[0], 4)
        )
        outs = []
        ledgers = []
        for spmv in (distributed_spmv, dense_gather_spmv):
            cluster, partition, dist, ctx, _ = make_problem(matrix, 6)
            x = DistributedMultiVector.from_global(cluster, partition, "X",
                                                   block)
            y = DistributedMultiVector.zeros(cluster, partition, "Y", 4)
            spmv(dist, x, y)
            outs.append(y.to_global())
            ledgers.append(cluster.ledger)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], matrix @ block)
        assert ledgers[0].times == ledgers[1].times
        assert ledgers[0].messages == ledgers[1].messages
        assert ledgers[0].elements == ledgers[1].elements

    def test_block_halo_amortizes_messages(self):
        """One batched exchange: same message count, k-fold elements, and
        the per-message latency paid once instead of k times."""
        matrix = build_matrix("M3", n=1500, seed=0)
        k = 8
        cluster, partition, dist, ctx, _ = make_problem(matrix, 6)
        block = np.random.default_rng(1).standard_normal(
            (matrix.shape[0], k)
        )
        x = DistributedMultiVector.from_global(cluster, partition, "X", block)
        y = DistributedMultiVector.zeros(cluster, partition, "Y", k)
        distributed_spmv(dist, x, y)
        ledger = cluster.ledger
        assert ledger.messages[Phase.HALO_COMM] == ctx.total_messages()
        assert ledger.elements[Phase.HALO_COMM] == \
            k * ctx.total_exchanged_elements()
        engine = dist.spmv_engine()
        halo_k = engine.halo_cost_for(k)[0]
        assert halo_k < k * engine.halo_cost[0]  # latency paid once
        assert ledger.times[Phase.HALO_COMM] == halo_k
        assert ledger.times[Phase.SPMV_COMPUTE] == engine.compute_cost_for(k)

    def test_block_overlap_matches_split_singles(self):
        matrix = build_matrix("M4", n=1200, seed=0)
        k = 3
        cluster, partition, dist, ctx, _ = make_problem(matrix, 6)
        block = np.random.default_rng(9).standard_normal(
            (matrix.shape[0], k)
        )
        x = DistributedMultiVector.from_global(cluster, partition, "X", block)
        y = DistributedMultiVector.zeros(cluster, partition, "Y", k)
        distributed_spmv(dist, x, y, charge=False, overlap=True)
        y_global = y.to_global()
        for j in range(k):
            xj = DistributedVector.from_global(
                cluster, partition, f"x{j}", block[:, j]
            )
            yj = DistributedVector.zeros(cluster, partition, f"y{j}")
            distributed_spmv(dist, xj, yj, charge=False, overlap=True)
            assert np.array_equal(y_global[:, j], yj.to_global())

    def test_block_output_may_alias_input(self):
        matrix = poisson_2d(10)
        cluster, partition, dist, ctx, _ = make_problem(matrix, 4)
        block = np.random.default_rng(2).standard_normal((100, 3))
        x = DistributedMultiVector.from_global(cluster, partition, "X", block)
        distributed_spmv(dist, x, x, charge=False)
        assert np.array_equal(x.to_global(), matrix @ block)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_k1_block_bit_identical_to_vector_call(self, overlap):
        """The k = 1 block kernel is the single-RHS path of the solvers."""
        matrix = build_matrix("M3", n=1500, seed=0)
        cluster, partition, dist, ctx, _ = make_problem(matrix, 6)
        values = np.random.default_rng(4).standard_normal(matrix.shape[0])
        x = DistributedMultiVector.from_global(cluster, partition, "X",
                                               values[:, None])
        y = DistributedMultiVector.zeros(cluster, partition, "Y", 1)
        distributed_spmv(dist, x, y, charge=False, overlap=overlap)
        xv = DistributedVector.from_global(cluster, partition, "xv", values)
        yv = DistributedVector.zeros(cluster, partition, "yv")
        distributed_spmv(dist, xv, yv, charge=False, overlap=overlap)
        assert np.array_equal(y.to_global()[:, 0], yv.to_global())

    def test_block_output_written_in_place(self):
        matrix = poisson_2d(10)
        cluster, partition, dist, ctx, _ = make_problem(matrix, 4)
        block = np.random.default_rng(6).standard_normal((100, 2))
        x = DistributedMultiVector.from_global(cluster, partition, "X", block)
        y = DistributedMultiVector.zeros(cluster, partition, "Y", 2)
        before = [y.get_block(rank) for rank in range(4)]
        for overlap in (False, True):
            distributed_spmv(dist, x, y, charge=False,
                             overlap=overlap)
            assert all(y.get_block(rank) is before[rank] for rank in range(4))
            assert np.allclose(y.to_global(), matrix @ block)

    def test_split_block_output_may_alias_input(self):
        matrix = poisson_2d(10)
        cluster, partition, dist, ctx, _ = make_problem(matrix, 4)
        block = np.random.default_rng(2).standard_normal((100, 3))
        x = DistributedMultiVector.from_global(cluster, partition, "X", block)
        distributed_spmv(dist, x, x, charge=False, overlap=True)
        assert np.allclose(x.to_global(), matrix @ block)

    def test_block_fails_when_owner_failed(self):
        matrix = poisson_2d(10)
        cluster, partition, dist, ctx, _ = make_problem(matrix, 4)
        block = np.ones((100, 2))
        x = DistributedMultiVector.from_global(cluster, partition, "X", block)
        y = DistributedMultiVector.zeros(cluster, partition, "Y", 2)
        distributed_spmv(dist, x, y)
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            distributed_spmv(dist, x, y)

    def test_multivector_validation(self):
        matrix = poisson_2d(10)
        cluster, partition, dist, ctx, _ = make_problem(matrix, 4)
        with pytest.raises(ValueError):
            DistributedMultiVector(cluster, partition, "bad", 0)
        with pytest.raises(ValueError):
            DistributedMultiVector.from_global(
                cluster, partition, "bad", np.ones(100)  # 1-D
            )
        x = DistributedMultiVector.zeros(cluster, partition, "X", 2)
        with pytest.raises(ValueError):
            x.set_block(0, np.ones((partition.size_of(0), 3)))
        y = DistributedMultiVector.zeros(cluster, partition, "Y", 3)
        with pytest.raises(ValueError):
            distributed_spmv(dist, x, y)
        with pytest.raises(IndexError):
            x.column(5)
        assert np.array_equal(x.column(1), np.zeros(100))
        assert x.lost_ranks() == []


class TestPreconditionerWorkCache:
    def test_max_block_work_matches_per_rank_max(self):
        matrix = poisson_2d(12)
        partition = BlockRowPartition(144, 4)
        precond = make_preconditioner("block_jacobi")
        precond.setup(matrix, partition)
        expected = max(precond.block_work_nnz(r) for r in range(4))
        assert precond.max_block_work_nnz() == expected
        # Cached: repeated calls return the same object value.
        assert precond.max_block_work_nnz() == expected

    def test_cache_reset_on_setup(self):
        precond = make_preconditioner("block_jacobi")
        precond.setup(poisson_2d(8), BlockRowPartition(64, 2))
        first = precond.max_block_work_nnz()
        precond.setup(poisson_2d(16), BlockRowPartition(256, 4))
        second = precond.max_block_work_nnz()
        assert second != first
        assert second == max(precond.block_work_nnz(r) for r in range(4))

    def test_solver_charge_identical_to_per_rank_loop(self):
        """The cached worst-rank charge must equal the old per-rank max."""
        matrix = poisson_2d(14)
        n = matrix.shape[0]
        partition = BlockRowPartition(n, 4)
        cluster = VirtualCluster(4, machine=MachineModel(jitter_rel_std=0.0))
        dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
        rhs = DistributedVector.from_global(cluster, partition, "b", np.ones(n))
        precond = make_preconditioner("block_jacobi")
        precond.setup(matrix, partition)
        solver = DistributedPCG(dist, rhs, precond)
        model = cluster.ledger.model
        before = cluster.ledger.snapshot()
        z = DistributedVector.zeros(cluster, partition, "z")
        solver._apply_preconditioner(rhs, z)
        charged = cluster.ledger.since(before, [Phase.PRECOND_COMPUTE])
        expected = max(
            model.precond_apply_time(precond.block_work_nnz(r))
            for r in range(4)
        )
        assert charged == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(24, 300), n_parts=st.integers(1, 10),
       density=st.floats(0.01, 0.2), seed=st.integers(0, 2**32 - 1))
def test_property_split_phase_equals_oracle(n, n_parts, density, seed):
    """Split-phase execution equals the independent diag/offdiag oracle and
    stays within rounding of the SciPy product for random inputs."""
    n_parts = min(n_parts, n)
    rng = np.random.default_rng(seed)
    random_part = sp.random(n, n, density=density, random_state=rng,
                            format="csr")
    matrix = (random_part + random_part.T + sp.eye(n)).tocsr()
    values = rng.standard_normal(n)
    partition = BlockRowPartition(n, n_parts)
    cluster = VirtualCluster(n_parts, machine=MachineModel(jitter_rel_std=0.0))
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    x = DistributedVector.from_global(cluster, partition, "x", values)
    y = DistributedVector.zeros(cluster, partition, "y")
    distributed_spmv(dist, x, y, charge=False, overlap=True)
    assert np.array_equal(y.to_global(),
                          split_oracle(matrix, partition, values))
    reference = matrix @ values
    scale = max(float(np.max(np.abs(reference))), 1.0)
    assert np.max(np.abs(y.to_global() - reference)) <= 1e-12 * scale
