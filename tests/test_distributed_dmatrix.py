"""Tests for distributed sparse matrices."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import MachineModel, NodeFailedError, Phase, VirtualCluster
from repro.distributed import BlockRowPartition, DistributedMatrix
from repro.matrices import poisson_2d


@pytest.fixture
def setup():
    cluster = VirtualCluster(4, machine=MachineModel(jitter_rel_std=0.0))
    a = poisson_2d(8)  # n = 64
    partition = BlockRowPartition(a.shape[0], 4)
    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    return cluster, partition, a, dist


class TestConstruction:
    def test_shape_and_nnz(self, setup):
        _, _, a, dist = setup
        assert dist.shape == a.shape
        assert sum(dist.nnz_of(rank) for rank in range(4)) == a.nnz

    def test_row_blocks_match_global(self, setup):
        _, partition, a, dist = setup
        for rank in range(4):
            start, stop = partition.range_of(rank)
            expected = a[start:stop, :]
            block = dist.row_block(rank)
            assert (block != expected).nnz == 0

    def test_to_global_roundtrip(self, setup):
        _, _, a, dist = setup
        assert (dist.to_global() != a).nnz == 0

    def test_size_mismatch_rejected(self, setup):
        cluster, partition, a, _ = setup
        with pytest.raises(ValueError):
            DistributedMatrix.from_global(cluster, partition, "bad", sp.identity(10))

    def test_nonsquare_rejected(self, setup):
        cluster, partition, _, _ = setup
        rect = sp.csr_matrix(np.ones((64, 32)))
        with pytest.raises(Exception):
            DistributedMatrix.from_global(cluster, partition, "bad", rect)


class TestStructure:
    def test_diagonal(self, setup):
        _, _, a, dist = setup
        assert np.allclose(dist.diagonal(), a.diagonal())

    def test_needed_column_indices(self, setup):
        _, partition, a, dist = setup
        for rank in range(4):
            start, stop = partition.range_of(rank)
            expected = np.unique(a[start:stop, :].indices)
            assert np.array_equal(dist.needed_column_indices(rank), expected)


class TestFailureAndRecovery:
    def test_row_block_lost_on_failure(self, setup):
        cluster, _, _, dist = setup
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            dist.row_block(1)

    def test_restore_from_storage(self, setup):
        cluster, partition, a, dist = setup
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        block = dist.restore_block_to_node(2)
        start, stop = partition.range_of(2)
        assert (block != a[start:stop, :]).nnz == 0
        assert dist.has_block(2)

    def test_recovery_rows(self, setup):
        cluster, partition, a, dist = setup
        rows = dist.recovery_rows([1, 3])
        expected = sp.vstack([a[slice(*partition.range_of(rank)), :]
                              for rank in (1, 3)])
        assert (rows != expected).nnz == 0

    def test_recovery_rows_charged(self, setup):
        cluster, _, _, dist = setup
        before = cluster.ledger.total_time([Phase.STORAGE_RETRIEVE])
        dist.recovery_rows([0], charge=True)
        assert cluster.ledger.total_time([Phase.STORAGE_RETRIEVE]) > before

    def test_recovery_rows_uncharged(self, setup):
        cluster, _, _, dist = setup
        dist.recovery_rows([0], charge=False)
        assert cluster.ledger.total_time([Phase.STORAGE_RETRIEVE]) == 0.0

    def test_storage_survives_all_failures(self, setup):
        cluster, _, a, dist = setup
        cluster.fail_nodes([0, 1, 2, 3])
        rows = dist.recovery_rows([0, 1, 2, 3], charge=False)
        assert (rows != a).nnz == 0


class TestContiguousStorage:
    """One CSR matrix per name; each node holds a zero-copy row view."""

    def test_row_blocks_share_the_matrix_arrays(self, setup):
        _, partition, a, dist = setup
        stacked = dist.stacked()
        assert (stacked != a).nnz == 0
        for rank in range(4):
            block = dist.row_block(rank)
            assert np.shares_memory(block.data, stacked.data)
            assert np.shares_memory(block.indices, stacked.indices)

    def test_failed_rank_raises(self, setup):
        cluster, _, _, dist = setup
        dist.stacked()
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            dist.stacked()
        with pytest.raises(NodeFailedError):
            dist.to_global()

    def test_replaced_unrestored_rank_raises_key_error(self, setup):
        cluster, _, _, dist = setup
        dist.stacked()
        cluster.fail_nodes([1])
        cluster.replace_nodes([1])
        with pytest.raises(KeyError):
            dist.stacked()

    def test_restore_block_to_node_makes_it_readable(self, setup):
        cluster, _, a, dist = setup
        cluster.fail_nodes([1])
        cluster.replace_nodes([1])
        block = dist.restore_block_to_node(1)
        assert block is dist.row_block(1)
        assert np.shares_memory(block.data, dist.stacked().data)
        assert (dist.to_global() != a).nnz == 0

    def test_restore_rejects_a_foreign_pattern(self, setup):
        cluster, partition, a, dist = setup
        start, stop = partition.range_of(2)
        cluster.storage.put_block(dist._storage_name(), 2,
                                  sp.csr_matrix(a[start:stop, :].toarray()
                                                + 1.0))
        with pytest.raises(ValueError):
            dist.restore_block_to_node(2)
