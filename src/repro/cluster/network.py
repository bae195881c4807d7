"""The interconnect: a two-level fat tree and its pairwise latencies.

The experiments in the paper ran on VSC3, whose interconnect is a fat tree
(Sec. 7.1).  For the cost model the only property of the interconnect that
matters is the per-message latency ``lambda_ik`` between a sending node ``i``
and a receiving node ``k`` (Sec. 4.2 allows these to differ per pair).  The
simulator runs that one interconnect: :class:`FatTreeTopology`, sized from
the node count and priced by the machine model's two latencies.  Every
:class:`~repro.cluster.cluster.VirtualCluster` builds its own; the rest of
the library only consumes :meth:`FatTreeTopology.latency` and
:meth:`FatTreeTopology.max_latency`.
"""

from __future__ import annotations

from .cost_model import MachineModel


class FatTreeTopology:
    """Two-level fat tree: cheap within a switch, more expensive across.

    Nodes are grouped into leaf switches of ``nodes_per_switch`` consecutive
    ranks: ``max(2, N // 8)`` from 16 nodes up, ``max(2, N // 2)`` below.
    Messages within a switch cost the machine's ``latency_intra``; messages
    that have to traverse the spine cost its ``latency_inter``, which may
    not be smaller.  This captures the latency structure that makes the
    Eqn. (5) backup placement (neighbouring ranks) attractive: neighbouring
    ranks usually share a switch.
    """

    def __init__(self, n_nodes: int, machine: MachineModel):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if machine.latency_inter < machine.latency_intra:
            raise ValueError(
                "latency_inter must be >= latency_intra "
                f"({machine.latency_inter} < {machine.latency_intra})"
            )
        self.n_nodes = int(n_nodes)
        self.nodes_per_switch = (max(2, self.n_nodes // 8) if self.n_nodes >= 16
                                 else max(2, self.n_nodes // 2))
        self.latency_intra = machine.latency_intra
        self.latency_inter = machine.latency_inter

    def switch_of(self, rank: int) -> int:
        """Index of the leaf switch that node *rank* hangs off."""
        if not 0 <= rank < self.n_nodes:
            raise ValueError(
                f"rank {rank} out of range for a {self.n_nodes}-node topology"
            )
        return rank // self.nodes_per_switch

    def latency(self, src: int, dst: int) -> float:
        """Per-message latency (seconds) from node *src* to node *dst*."""
        if self.switch_of(src) != self.switch_of(dst):
            return self.latency_inter
        return 0.0 if src == dst else self.latency_intra

    def max_latency(self) -> float:
        """``lambda_max`` of Sec. 4.2: the largest pairwise latency."""
        if self.n_nodes == 1:
            return 0.0
        if self.n_nodes > self.nodes_per_switch:
            return self.latency_inter
        return self.latency_intra
