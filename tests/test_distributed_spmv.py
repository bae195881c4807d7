"""Tests for the distributed SpMV and its cost accounting."""

import numpy as np
import pytest

from repro.cluster import MachineModel, NodeFailedError, Phase, VirtualCluster
from repro.distributed import (
    BlockRowPartition,
    DistributedMatrix,
    DistributedVector,
    distributed_spmv,
    halo_exchange_cost,
    spmv_compute_cost,
)
from repro.matrices import poisson_2d


@pytest.fixture
def setup():
    cluster = VirtualCluster(4, machine=MachineModel(jitter_rel_std=0.0))
    a = poisson_2d(10)  # n = 100
    partition = BlockRowPartition(100, 4)
    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    ctx = dist.context
    return cluster, partition, a, dist, ctx


class TestNumerics:
    def test_matches_scipy(self, setup):
        cluster, partition, a, dist, ctx = setup
        rng = np.random.default_rng(0)
        x_values = rng.standard_normal(100)
        x = DistributedVector.from_global(cluster, partition, "x", x_values)
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y)
        assert np.allclose(y.to_global(), a @ x_values)

    def test_without_prebuilt_context(self, setup):
        cluster, partition, a, dist, _ = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y)
        assert np.allclose(y.to_global(), a @ np.ones(100))

    def test_repeated_spmv(self, setup):
        cluster, partition, a, dist, ctx = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.arange(100.0))
        y = DistributedVector.zeros(cluster, partition, "y")
        for _ in range(3):
            distributed_spmv(dist, x, y)
        assert np.allclose(y.to_global(), a @ np.arange(100.0))

    def test_partition_mismatch_rejected(self, setup):
        cluster, partition, a, dist, ctx = setup
        other = BlockRowPartition(100, 2)
        other_cluster = VirtualCluster(2)
        x = DistributedVector.zeros(other_cluster, other, "x")
        y = DistributedVector.zeros(cluster, partition, "y")
        with pytest.raises(ValueError):
            distributed_spmv(dist, x, y)

    def test_fails_when_owner_failed(self, setup):
        cluster, partition, _, dist, ctx = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        cluster.fail_nodes([2])
        with pytest.raises(NodeFailedError):
            distributed_spmv(dist, x, y)


class TestCosts:
    def test_charges_halo_and_compute(self, setup):
        cluster, partition, _, dist, ctx = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y)
        assert cluster.ledger.total_time([Phase.HALO_COMM]) > 0
        assert cluster.ledger.total_time([Phase.SPMV_COMPUTE]) > 0

    def test_uncharged_mode(self, setup):
        cluster, partition, _, dist, ctx = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        before = cluster.simulated_time()
        distributed_spmv(dist, x, y, charge=False)
        assert cluster.simulated_time() == before

    def test_halo_cost_formula(self, setup):
        cluster, _, _, dist, ctx = setup
        model = cluster.machine
        topo = cluster.topology
        time, n_msg, n_elem = halo_exchange_cost(ctx, topo, model)
        assert n_msg == ctx.total_messages()
        assert n_elem == ctx.total_exchanged_elements()
        # max over receivers of the summed incoming message costs
        expected = 0.0
        for dst in range(4):
            total = sum(
                model.message_time(topo.latency(src, dst), ctx.send_count(src, dst))
                for src in ctx.senders_to(dst)
            )
            expected = max(expected, total)
        assert time == pytest.approx(expected)

    def test_compute_cost_is_max_over_nodes(self, setup):
        cluster, _, _, dist, _ = setup
        model = cluster.machine
        expected = max(model.spmv_time(dist.nnz_of(r)) for r in range(4))
        assert spmv_compute_cost(dist, model) == pytest.approx(expected)

    def test_traffic_counters(self, setup):
        cluster, partition, _, dist, ctx = setup
        x = DistributedVector.from_global(cluster, partition, "x", np.ones(100))
        y = DistributedVector.zeros(cluster, partition, "y")
        distributed_spmv(dist, x, y)
        assert cluster.ledger.total_elements([Phase.HALO_COMM]) == \
            ctx.total_exchanged_elements()

