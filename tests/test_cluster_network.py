"""Tests for interconnect topologies."""

import pytest

from repro.cluster.network import (
    FatTreeTopology,
    Topology,
    UniformTopology,
    default_topology,
)


@pytest.mark.parametrize("make", [
    lambda: UniformTopology(1),
    lambda: UniformTopology(7, latency=3e-6),
    lambda: FatTreeTopology(1),
    lambda: FatTreeTopology(4, nodes_per_switch=4),
    lambda: FatTreeTopology(33, nodes_per_switch=4),
    lambda: default_topology(128),
])
def test_closed_form_max_latency_equals_the_pairwise_scan(make):
    topology = make()
    assert topology.max_latency() == Topology.max_latency(topology)


class TestUniformTopology:
    def test_constant_latency(self):
        topo = UniformTopology(8, latency=3e-6)
        assert topo.latency(0, 5) == pytest.approx(3e-6)
        assert topo.latency(7, 1) == pytest.approx(3e-6)

    def test_zero_self_latency(self):
        topo = UniformTopology(4)
        assert topo.latency(2, 2) == 0.0

    def test_out_of_range_rejected(self):
        topo = UniformTopology(4)
        with pytest.raises(ValueError):
            topo.latency(0, 4)

    def test_max_latency(self):
        topo = UniformTopology(4, latency=1e-6)
        assert topo.max_latency() == pytest.approx(1e-6)

    def test_single_node(self):
        assert UniformTopology(1).max_latency() == 0.0

    def test_invalid_latency(self):
        with pytest.raises(Exception):
            UniformTopology(4, latency=0.0)


class TestFatTreeTopology:
    def test_intra_vs_inter_switch(self):
        topo = FatTreeTopology(16, nodes_per_switch=4,
                               latency_intra=1e-6, latency_inter=3e-6)
        assert topo.latency(0, 3) == pytest.approx(1e-6)   # same switch
        assert topo.latency(0, 4) == pytest.approx(3e-6)   # across switches

    def test_switch_assignment(self):
        topo = FatTreeTopology(16, nodes_per_switch=4)
        assert topo.switch_of(0) == 0
        assert topo.switch_of(5) == 1
        assert topo.switch_of(15) == 3

    def test_latency_matrix_symmetry(self):
        topo = FatTreeTopology(8, nodes_per_switch=4)
        mat = topo.latency_matrix()
        assert (mat == mat.T).all()
        assert (mat.diagonal() == 0).all()

    def test_inter_must_not_be_smaller(self):
        with pytest.raises(ValueError):
            FatTreeTopology(8, latency_intra=5e-6, latency_inter=1e-6)

    def test_neighbouring_ranks_usually_share_switch(self):
        topo = FatTreeTopology(32, nodes_per_switch=8)
        same_switch = sum(
            topo.switch_of(r) == topo.switch_of(r + 1) for r in range(31)
        )
        assert same_switch >= 24  # only switch boundaries differ


class TestDefaultTopology:
    def test_returns_fat_tree(self):
        topo = default_topology(16)
        assert isinstance(topo, FatTreeTopology)
        assert topo.n_nodes == 16

    def test_small_cluster(self):
        topo = default_topology(4)
        assert topo.n_nodes == 4

    def test_custom_latencies_forwarded(self):
        topo = default_topology(16, 1e-6, 9e-6)
        assert topo.latency_intra == pytest.approx(1e-6)
        assert topo.latency_inter == pytest.approx(9e-6)
