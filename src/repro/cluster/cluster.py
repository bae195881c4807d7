"""The :class:`VirtualCluster` facade.

A ``VirtualCluster`` bundles everything the distributed solvers need from the
machine: the nodes with their private memories, the fat-tree interconnect, the
latency-bandwidth cost model with its ledger, the communicator with its one
collective (the dot-product allreduce), the ULFM-like failure runtime and the
reliable storage for static data.  It is the single object that experiment
code constructs and passes around.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..utils.rng import RandomState, as_rng
from .communicator import Communicator
from .cost_model import CostLedger, MachineModel
from .errors import ClusterError
from .failure import UlfmRuntime
from .network import FatTreeTopology
from .node import MemoryEpoch, Node
from .reliable_storage import ReliableStorage


class VirtualCluster:
    """A simulated distributed-memory parallel computer.

    Parameters
    ----------
    n_nodes:
        Number of compute nodes ``N``.
    machine:
        Performance parameters, the interconnect's two latencies among them;
        defaults to :class:`MachineModel` defaults.  The interconnect is the
        :class:`~repro.cluster.network.FatTreeTopology` sized for ``n_nodes``
        and priced by this machine.
    seed:
        Seed for the cost model's run-to-run jitter (only used if the machine
        model has ``jitter_rel_std > 0``).
    """

    def __init__(self, n_nodes: int, *, machine: Optional[MachineModel] = None,
                 seed: Optional[int] = None):
        if n_nodes < 1:
            raise ClusterError(f"a cluster needs at least one node, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self.machine = machine if machine is not None else MachineModel()
        self.topology = FatTreeTopology(self.n_nodes, self.machine)
        self._rng: Optional[RandomState] = (
            as_rng(seed) if self.machine.jitter_rel_std > 0 else None)
        #: Bumped by every node failure, replacement and memory deletion.
        self.epoch = MemoryEpoch()
        self.nodes: List[Node] = [
            Node(rank=r, epoch=self.epoch)
            for r in range(self.n_nodes)
        ]
        #: Driver-side backing storage of the distributed containers, keyed
        #: like their node-memory entries: each node memory holds only its
        #: rank's zero-copy view into these arrays (see
        #: :mod:`repro.distributed.blockstore`).
        self.arrays: Dict[Any, Any] = {}
        self.ledger = CostLedger(model=self.machine, rng=self._rng)
        self.comm = Communicator(self.nodes, self.ledger)
        self.storage = ReliableStorage(self.ledger)
        self.ulfm = UlfmRuntime(self.nodes)

    # -- node queries -----------------------------------------------------
    def node(self, rank: int) -> Node:
        """The node object at *rank* (alive or failed)."""
        if not 0 <= rank < self.n_nodes:
            raise ClusterError(f"rank {rank} out of range [0, {self.n_nodes})")
        return self.nodes[rank]

    def alive_ranks(self) -> List[int]:
        return [n.rank for n in self.nodes if n.is_alive]

    def failed_ranks(self) -> List[int]:
        return [n.rank for n in self.nodes if n.is_failed]

    # -- failure handling ---------------------------------------------------
    def fail_nodes(self, ranks: Iterable[int]) -> List[int]:
        """Fail the listed ranks immediately (bypassing a schedule)."""
        failed = []
        for rank in ranks:
            self.node(rank).fail()
            failed.append(int(rank))
        return failed

    def replace_nodes(self, ranks: Iterable[int]) -> List[int]:
        """Install replacement nodes for the given failed ranks."""
        return self.ulfm.provide_replacements(ranks)

    # -- time accounting ------------------------------------------------------
    def simulated_time(self) -> float:
        """Total simulated time accumulated so far (seconds)."""
        return self.ledger.total_time()

    # -- reporting --------------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable description (used by examples and logs)."""
        topo = type(self.topology).__name__
        return (
            f"VirtualCluster(N={self.n_nodes}, topology={topo}, "
            f"alive={len(self.alive_ranks())}, failed={len(self.failed_ranks())})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()
