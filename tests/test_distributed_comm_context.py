"""Tests for the SpMV communication context (S_i, S_ik, R^c_i, m_i)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import MachineModel, VirtualCluster
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    ContextMismatchError,
    DistributedMatrix,
)
from repro.matrices import poisson_2d, graph_laplacian_spd


def make_context(matrix, n_nodes):
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(matrix.shape[0], n_nodes)
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    return dist, CommunicationContext.from_matrix(dist)


class TestFromMatrix:
    def test_tridiagonal_neighbours_only(self):
        # 1-D Laplacian: each node only exchanges one element with each
        # neighbouring node.
        from repro.matrices import poisson_1d
        a = poisson_1d(16)
        _, ctx = make_context(a, 4)
        assert ctx.send_count(0, 1) == 1
        assert ctx.send_count(1, 0) == 1
        assert ctx.send_count(0, 2) == 0
        assert ctx.send_count(0, 3) == 0

    def test_send_indices_are_owned_by_sender(self):
        a = poisson_2d(10)
        dist, ctx = make_context(a, 5)
        partition = dist.partition
        for src in range(5):
            for dst in ctx.receivers_of(src):
                owners = partition.owner_of(ctx.send_indices(src, dst))
                assert np.all(owners == src)

    def test_receiver_needs_exactly_the_sent_indices(self):
        a = poisson_2d(10)
        dist, ctx = make_context(a, 5)
        partition = dist.partition
        for dst in range(5):
            needed = dist.needed_column_indices(dst)
            needed_remote = needed[partition.owner_of(needed) != dst]
            received = np.concatenate([
                ctx.send_indices(src, dst) for src in ctx.senders_to(dst)
            ]) if ctx.senders_to(dst) else np.empty(0, dtype=np.int64)
            assert np.array_equal(np.sort(received), np.sort(needed_remote))

    def test_dense_matrix_all_to_all(self):
        a = sp.csr_matrix(np.ones((12, 12)) + 12 * np.eye(12))
        _, ctx = make_context(a, 4)
        for i in range(4):
            for k in range(4):
                if i != k:
                    assert ctx.send_count(i, k) == 3

    def test_block_diagonal_matrix_no_communication(self):
        blocks = [sp.identity(5) * 2 for _ in range(4)]
        a = sp.block_diag(blocks, format="csr")
        _, ctx = make_context(a, 4)
        assert ctx.total_messages() == 0
        assert ctx.total_exchanged_elements() == 0


class TestPaperQuantities:
    def test_multiplicity_matches_edges(self):
        a = poisson_2d(12)
        dist, ctx = make_context(a, 6)
        partition = dist.partition
        for owner in range(6):
            m = ctx.multiplicity(owner)
            start, _ = partition.range_of(owner)
            # recompute directly
            expected = np.zeros(partition.size_of(owner), dtype=int)
            for dst in ctx.receivers_of(owner):
                expected[ctx.send_indices(owner, dst) - start] += 1
            assert np.array_equal(m, expected)

    def test_unsent_indices_complement(self):
        a = poisson_2d(12)
        dist, ctx = make_context(a, 6)
        for owner in range(6):
            m = ctx.multiplicity(owner)
            assert ctx.unsent_indices(owner).size == int(np.sum(m == 0))

    def test_natural_copy_count(self):
        a = poisson_2d(12)
        _, ctx = make_context(a, 6)
        for owner in range(6):
            assert ctx.natural_copy_count(owner, 1) == \
                int(np.sum(ctx.multiplicity(owner) >= 1))
            assert ctx.natural_copy_count(owner, 99) == 0

    def test_interior_elements_never_sent_for_banded_matrix(self):
        a = poisson_2d(16)  # bandwidth 16, block size 64
        _, ctx = make_context(a, 4)
        # Most elements of each block are interior and never communicated.
        for owner in range(4):
            assert ctx.unsent_indices(owner).size > 0

    def test_irregular_matrix_has_high_multiplicity(self):
        a = graph_laplacian_spd(200, avg_degree=6, long_range_fraction=0.5, seed=1)
        _, ctx = make_context(a, 8)
        total_sent = sum(
            int(np.sum(ctx.multiplicity(o) >= 1)) for o in range(8)
        )
        assert total_sent > 0


class TestTables:
    """The plan is indexed once: per sender its receivers, per receiver
    its senders, both ascending and each the reverse of the other."""

    def test_senders_and_receivers_are_reverse_and_ascending(self):
        a = graph_laplacian_spd(200, avg_degree=6, long_range_fraction=0.5,
                                seed=1)
        _, ctx = make_context(a, 8)
        sent = {(src, dst) for src in range(8) for dst in ctx.receivers_of(src)}
        received = {(src, dst) for dst in range(8)
                    for src in ctx.senders_to(dst)}
        assert sent == received
        for rank in range(8):
            assert ctx.receivers_of(rank) == sorted(ctx.receivers_of(rank))
            assert ctx.senders_to(rank) == sorted(ctx.senders_to(rank))
        assert ctx.total_messages() == len(sent)
        assert ctx.total_exchanged_elements() == sum(
            ctx.send_count(src, dst) for src, dst in sent)

    def test_edges_are_normalised(self):
        """Unsorted and repeated indices collapse; self and empty edges
        are dropped, whatever order the edges come in."""
        partition = BlockRowPartition(12, 3)
        ctx = CommunicationContext(partition, {
            (2, 0): [9, 8, 8], (1, 1): [4], (1, 2): [], (0, 2): [1],
            (0, 1): [3, 0],
        })
        assert ctx.receivers_of(0) == [1, 2]
        assert ctx.receivers_of(1) == []
        assert ctx.senders_to(2) == [0]
        assert ctx.send_indices(2, 0).tolist() == [8, 9]
        assert ctx.send_indices(0, 1).dtype == np.int64
        assert ctx.total_messages() == 3
        assert ctx.multiplicity(0).tolist() == [1, 1, 0, 1]

    def test_queries_do_not_expose_the_tables(self):
        _, ctx = make_context(poisson_2d(10), 5)
        ctx.receivers_of(2).append(4)
        ctx.senders_to(2).clear()
        assert ctx.receivers_of(2) == [1, 3]
        assert ctx.senders_to(2) == [1, 3]

    def test_edge_outside_partition_raises(self):
        partition = BlockRowPartition(12, 3)
        for key in [(0, 3), (-1, 0)]:
            with pytest.raises(ContextMismatchError, match="outside"):
                CommunicationContext(partition, {key: [0]})


class TestSummaries:
    def test_describe(self):
        a = poisson_2d(10)
        _, ctx = make_context(a, 5)
        assert "messages" in ctx.describe()
