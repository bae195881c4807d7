"""Tests for the fat-tree interconnect."""

import hashlib

import numpy as np
import pytest

from repro.cluster import ClusterError, MachineModel, VirtualCluster
from repro.cluster.network import FatTreeTopology

#: The machines the interconnect digest covers: the defaults, the harness's
#: scaled machine (same latencies) and a machine with other latencies.
MACHINES = [MachineModel(), MachineModel().scaled(7.5),
            MachineModel(latency_intra=1e-6, latency_inter=9e-6)]


def pairwise_max_latency(topology):
    """``lambda_max`` by scanning every ordered pair (the oracle)."""
    n = topology.n_nodes
    return max((topology.latency(i, k) for i in range(n) for k in range(n)
                if i != k), default=0.0)


@pytest.mark.parametrize("n_nodes", [1, 2, 7, 33, 128])
def test_closed_form_max_latency_equals_the_pairwise_scan(n_nodes):
    topology = FatTreeTopology(n_nodes, MachineModel())
    assert topology.max_latency() == pairwise_max_latency(topology)


def test_interconnect_digest():
    """Every ordered pair's latency and ``max_latency()`` for 1..69 and 128
    nodes under three machines, hashed: pins the switch-size rule and both
    latencies that every halo, redundancy and recovery charge reads."""
    digest = hashlib.sha256()
    for machine in MACHINES:
        for n in [*range(1, 70), 128]:
            topology = FatTreeTopology(n, machine)
            values = [topology.latency(s, d)
                      for s in range(n) for d in range(n)]
            values.append(topology.max_latency())
            digest.update(np.array(values, dtype=np.float64).tobytes())
    assert digest.hexdigest()[:16] == "1d520ef223a2a2ab"


@pytest.mark.parametrize("n_nodes,switch_size", [
    (1, 2), (2, 2), (4, 2), (6, 3), (15, 7),
    (16, 2), (23, 2), (24, 3), (32, 4), (64, 8), (128, 16), (1024, 128),
])
def test_switch_size_derived_from_node_count(n_nodes, switch_size):
    """``max(2, N // 8)`` from 16 nodes up, ``max(2, N // 2)`` below."""
    assert FatTreeTopology(n_nodes, MachineModel()).nodes_per_switch == \
        switch_size


class TestFatTreeTopology:
    def test_intra_vs_inter_switch(self):
        topo = FatTreeTopology(32, MachineModel(latency_intra=1e-6,
                                                latency_inter=3e-6))
        assert topo.latency(0, 3) == pytest.approx(1e-6)   # same switch
        assert topo.latency(0, 4) == pytest.approx(3e-6)   # across switches

    def test_latencies_read_from_the_machine(self):
        machine = MachineModel(latency_intra=1e-6, latency_inter=9e-6)
        topo = VirtualCluster(16, machine=machine).topology
        assert (topo.latency_intra, topo.latency_inter) == (1e-6, 9e-6)

    def test_switch_assignment(self):
        topo = FatTreeTopology(32, MachineModel())
        assert topo.switch_of(0) == 0
        assert topo.switch_of(5) == 1
        assert topo.switch_of(15) == 3

    def test_zero_self_latency(self):
        topo = FatTreeTopology(4, MachineModel())
        assert topo.latency(2, 2) == 0.0

    def test_out_of_range_rejected(self):
        topo = FatTreeTopology(4, MachineModel())
        with pytest.raises(ValueError, match="rank 4 out of range"):
            topo.latency(0, 4)

    def test_inter_must_not_be_smaller(self):
        machine = MachineModel(latency_intra=5e-6, latency_inter=1e-6)
        with pytest.raises(ValueError, match="latency_inter"):
            FatTreeTopology(8, machine)
        with pytest.raises(ValueError, match="latency_inter"):
            VirtualCluster(8, machine=machine)

    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            FatTreeTopology(0, MachineModel())
        with pytest.raises(ClusterError):
            VirtualCluster(0)

    def test_neighbouring_ranks_usually_share_switch(self):
        topo = FatTreeTopology(64, MachineModel())
        same_switch = sum(
            topo.switch_of(r) == topo.switch_of(r + 1) for r in range(63)
        )
        assert same_switch == 63 - 7  # only the 7 switch boundaries differ
