"""Tests for distributed vectors (node-local storage, arithmetic, failures)."""

import numpy as np
import pytest

from repro.cluster import MachineModel, NodeFailedError, VirtualCluster
from repro.distributed import (
    BlockRowPartition,
    DistributedMultiVector,
    DistributedVector,
)


@pytest.fixture
def setup():
    cluster = VirtualCluster(4, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(20, 4)
    return cluster, partition


class TestConstruction:
    def test_zeros(self, setup):
        cluster, partition = setup
        vec = DistributedVector.zeros(cluster, partition, "v")
        assert np.allclose(vec.to_global(), 0.0)

    def test_from_global_roundtrip(self, setup):
        cluster, partition = setup
        values = np.arange(20.0)
        vec = DistributedVector.from_global(cluster, partition, "v", values)
        assert np.array_equal(vec.to_global(), values)

    def test_wrong_length_rejected(self, setup):
        cluster, partition = setup
        with pytest.raises(ValueError):
            DistributedVector.from_global(cluster, partition, "v", np.ones(7))

    def test_block_shapes(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.arange(20.0))
        for rank in range(4):
            assert vec.get_block(rank).shape == (5,)

    def test_set_block_validates_shape(self, setup):
        cluster, partition = setup
        vec = DistributedVector.zeros(cluster, partition, "v")
        with pytest.raises(ValueError):
            vec.set_block(0, np.ones(3))

    def test_partition_mismatch_rejected(self, setup):
        cluster, _ = setup
        with pytest.raises(ValueError):
            DistributedVector(cluster, BlockRowPartition(20, 5), "v")


class TestArithmetic:
    def test_dot(self, setup):
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.arange(20.0))
        b = DistributedVector.from_global(cluster, partition, "b", np.ones(20))
        assert a.dot(b) == pytest.approx(np.arange(20.0).sum())

    def test_norm(self, setup):
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.full(20, 2.0))
        assert a.norm2() == pytest.approx(np.sqrt(80.0))

    def test_norm_propagates_nan(self, setup):
        """A NaN reduction (corrupted data) must surface as NaN, not read as
        a converged all-zero vector."""
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.ones(20))
        block = a.get_block(1)
        block[0] = np.nan
        assert np.isnan(a.norm2())

    def test_norm_of_zero_vector_is_zero(self, setup):
        cluster, partition = setup
        a = DistributedVector.zeros(cluster, partition, "a")
        assert a.norm2() == 0.0

    def test_axpy(self, setup):
        cluster, partition = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.arange(20.0))
        y = DistributedVector.from_global(cluster, partition, "y", np.ones(20))
        y.axpy(2.0, x)
        assert np.allclose(y.to_global(), 1.0 + 2.0 * np.arange(20.0))

    def test_aypx(self, setup):
        cluster, partition = setup
        p = DistributedVector.from_global(cluster, partition, "p", np.ones(20))
        z = DistributedVector.from_global(cluster, partition, "z", np.arange(20.0))
        p.aypx(0.5, z)  # p = z + 0.5 p
        assert np.allclose(p.to_global(), np.arange(20.0) + 0.5)

    def test_scale_and_fill(self, setup):
        cluster, partition = setup
        v = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        v.scale(3.0)
        assert np.allclose(v.to_global(), 3.0)
        v.fill(-1.0)
        assert np.allclose(v.to_global(), -1.0)

    def test_copy_is_independent(self, setup):
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.ones(20))
        b = a.copy("b")
        b.scale(5.0)
        assert np.allclose(a.to_global(), 1.0)

    def test_assign(self, setup):
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.arange(20.0))
        b = DistributedVector.zeros(cluster, partition, "b")
        b.assign(a)
        assert np.array_equal(b.to_global(), a.to_global())

    def test_operations_charge_cost(self, setup):
        cluster, partition = setup
        a = DistributedVector.from_global(cluster, partition, "a", np.ones(20))
        before = cluster.simulated_time()
        a.dot(a)
        assert cluster.simulated_time() > before

    def test_incompatible_vectors_rejected(self, setup):
        cluster, partition = setup
        other_cluster = VirtualCluster(4)
        a = DistributedVector.zeros(cluster, partition, "a")
        b = DistributedVector.zeros(other_cluster, BlockRowPartition(20, 4), "b")
        with pytest.raises(ValueError):
            a.dot(b)


class TestFailureSemantics:
    def test_block_of_failed_node_unreadable(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        cluster.fail_nodes([2])
        with pytest.raises(NodeFailedError):
            vec.get_block(2)

    def test_to_global_raises_unless_allowed(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            vec.to_global()
        out = vec.to_global(allow_missing=True, fill_value=0.0)
        assert np.allclose(out[slice(*partition.range_of(1))], 0.0)
        assert np.allclose(out[slice(*partition.range_of(0))], 1.0)

    def test_available_and_lost_ranks(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        cluster.fail_nodes([0, 3])
        assert vec.lost_ranks() == [0, 3]

    def test_replacement_node_has_no_block(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        cluster.fail_nodes([1])
        cluster.replace_nodes([1])
        assert not vec.has_block(1)
        vec.set_block(1, np.zeros(5))
        assert vec.has_block(1)

    REDUCTIONS = {
        "dot": lambda v, w, **kw: v.dot(w, **kw),
        "norm2": lambda v, w, **kw: v.norm2(**kw),
    }

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reduction_with_failed_rank_raises_and_books_nothing(
            self, setup, name):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        other = DistributedVector.from_global(cluster, partition, "w",
                                              np.arange(20.0))
        cluster.fail_nodes([3])
        ledger = cluster.ledger
        before = (dict(ledger.times), dict(ledger.messages),
                  dict(ledger.elements))
        with pytest.raises(NodeFailedError):
            self.REDUCTIONS[name](vec, other)
        assert (ledger.times, ledger.messages, ledger.elements) == before

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reduction_takes_no_alive_only(self, setup, name):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        with pytest.raises(TypeError):
            self.REDUCTIONS[name](vec, vec, alive_only=True)


class TestMaintenance:
    def test_delete(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v", np.ones(20))
        vec.delete()
        assert vec.lost_ranks() == [0, 1, 2, 3]


class TestOneColumnView:
    def test_storage_is_the_multivector_block(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v",
                                            np.arange(20.0))
        view = vec.as_multivector()
        assert type(view) is DistributedMultiVector and view.n_cols == 1
        assert view.get_block(1).shape == (5, 1)
        assert np.shares_memory(vec.get_block(1), view.get_block(1))
        view.scale(2.0)
        assert np.array_equal(vec.to_global(), 2.0 * np.arange(20.0))

    def test_set_block_accepts_column_shape(self, setup):
        cluster, partition = setup
        vec = DistributedVector.zeros(cluster, partition, "v")
        vec.set_block(2, np.full((5, 1), 3.0))
        vec.set_block(3, np.full(5, 4.0))
        assert np.array_equal(vec.get_block(2), np.full(5, 3.0))
        assert np.array_equal(vec.get_block(3), np.full(5, 4.0))

    def test_more_than_one_column_rejected(self, setup):
        cluster, partition = setup
        with pytest.raises(ValueError, match="one column"):
            DistributedVector(cluster, partition, "v", 2)

    def test_copy_stays_a_vector(self, setup):
        cluster, partition = setup
        vec = DistributedVector.from_global(cluster, partition, "v",
                                            np.arange(20.0))
        twin = vec.copy("w")
        assert isinstance(twin, DistributedVector)
        assert np.array_equal(twin.to_global(), np.arange(20.0))
