"""Virtual distributed-memory cluster substrate.

This package simulates the parallel computer of Sec. 1.1 of the paper: ``N``
compute nodes with private memories, an interconnection network with a
latency-bandwidth cost model, the dot-product allreduce, fail-stop node
failures with ULFM-like detection/replacement, and reliable external storage
for the static problem data.
"""

from .cluster import VirtualCluster, make_cluster
from .communicator import Communicator
from .cost_model import CostLedger, MachineModel, Phase, max_over_nodes
from .errors import (
    ClusterError,
    CommunicationError,
    NodeFailedError,
    UnrecoverableStateError,
)
from .failure import FailureEvent, FailureInjector, UlfmRuntime
from .network import (
    FatTreeTopology,
    Topology,
    UniformTopology,
    default_topology,
)
from .node import Node, NodeMemory, NodeStatus
from .reliable_storage import ReliableStorage

__all__ = [
    "VirtualCluster",
    "make_cluster",
    "Communicator",
    "CostLedger",
    "MachineModel",
    "Phase",
    "max_over_nodes",
    "ClusterError",
    "CommunicationError",
    "NodeFailedError",
    "UnrecoverableStateError",
    "FailureEvent",
    "FailureInjector",
    "UlfmRuntime",
    "FatTreeTopology",
    "Topology",
    "UniformTopology",
    "default_topology",
    "Node",
    "NodeMemory",
    "NodeStatus",
    "ReliableStorage",
]
