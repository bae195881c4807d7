"""Interconnection-network topologies and their latency structure.

The experiments in the paper ran on VSC3, whose interconnect is a fat tree
(Sec. 7.1).  For the cost model the only property of the topology that
matters is the per-message latency ``lambda_ik`` between a sending node ``i``
and a receiving node ``k`` (Sec. 4.2 allows these to differ per pair).  This
module provides a small hierarchy of topologies that produce such latency
matrices; the rest of the library only consumes :meth:`Topology.latency`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.validation import check_positive


class Topology:
    """Abstract interconnect topology: provides pairwise message latencies."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)

    def latency(self, src: int, dst: int) -> float:
        """Per-message latency (seconds) from node *src* to node *dst*."""
        raise NotImplementedError

    def latency_matrix(self) -> np.ndarray:
        """Dense ``(N, N)`` matrix of pairwise latencies (zero diagonal)."""
        mat = np.zeros((self.n_nodes, self.n_nodes))
        for i in range(self.n_nodes):
            for k in range(self.n_nodes):
                if i != k:
                    mat[i, k] = self.latency(i, k)
        return mat

    def max_latency(self) -> float:
        """``lambda_max`` of Sec. 4.2: the largest pairwise latency.

        Subclasses with a closed form override this ``O(N^2)`` scan.
        """
        if self.n_nodes == 1:
            return 0.0
        return float(self.latency_matrix().max())

    def _check_ranks(self, src: int, dst: int) -> None:
        for r in (src, dst):
            if not 0 <= r < self.n_nodes:
                raise ValueError(
                    f"rank {r} out of range for a {self.n_nodes}-node topology"
                )


class UniformTopology(Topology):
    """All node pairs communicate with the same latency.

    This is the simplest model and is sufficient for most unit tests; it is
    also the model under which the Sec. 4.2 bounds become tight.
    """

    def __init__(self, n_nodes: int, latency: float = 2.0e-6):
        super().__init__(n_nodes)
        self._latency = check_positive(latency, "latency")

    def latency(self, src: int, dst: int) -> float:
        self._check_ranks(src, dst)
        return 0.0 if src == dst else self._latency

    def max_latency(self) -> float:
        return 0.0 if self.n_nodes == 1 else self._latency


class FatTreeTopology(Topology):
    """Two-level fat tree: cheap within a switch, more expensive across.

    Nodes are grouped into leaf switches of ``nodes_per_switch`` consecutive
    ranks.  Messages within a switch cost ``latency_intra``; messages that
    have to traverse the spine cost ``latency_inter``.  This captures the
    latency structure that makes the Eqn. (5) backup placement (neighbouring
    ranks) attractive: neighbouring ranks usually share a switch.
    """

    def __init__(self, n_nodes: int, nodes_per_switch: int = 16,
                 latency_intra: float = 1.5e-6, latency_inter: float = 3.5e-6):
        super().__init__(n_nodes)
        if nodes_per_switch < 1:
            raise ValueError(
                f"nodes_per_switch must be >= 1, got {nodes_per_switch}"
            )
        self.nodes_per_switch = int(nodes_per_switch)
        self.latency_intra = check_positive(latency_intra, "latency_intra")
        self.latency_inter = check_positive(latency_inter, "latency_inter")
        if latency_inter < latency_intra:
            raise ValueError(
                "latency_inter must be >= latency_intra "
                f"({latency_inter} < {latency_intra})"
            )

    def switch_of(self, rank: int) -> int:
        """Index of the leaf switch that node *rank* hangs off."""
        if not 0 <= rank < self.n_nodes:
            raise ValueError(
                f"rank {rank} out of range for a {self.n_nodes}-node topology"
            )
        return rank // self.nodes_per_switch

    def latency(self, src: int, dst: int) -> float:
        self._check_ranks(src, dst)
        if src == dst:
            return 0.0
        if self.switch_of(src) == self.switch_of(dst):
            return self.latency_intra
        return self.latency_inter

    def max_latency(self) -> float:
        if self.n_nodes == 1:
            return 0.0
        if self.n_nodes > self.nodes_per_switch:
            return self.latency_inter
        return self.latency_intra


def default_topology(n_nodes: int, model_latency_intra: Optional[float] = None,
                     model_latency_inter: Optional[float] = None) -> Topology:
    """Build the default (fat-tree) topology used by the experiment harness."""
    kwargs = {}
    if model_latency_intra is not None:
        kwargs["latency_intra"] = model_latency_intra
    if model_latency_inter is not None:
        kwargs["latency_inter"] = model_latency_inter
    nodes_per_switch = max(2, n_nodes // 8) if n_nodes >= 16 else max(2, n_nodes // 2)
    return FatTreeTopology(n_nodes, nodes_per_switch=nodes_per_switch, **kwargs)
