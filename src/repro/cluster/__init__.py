"""Virtual distributed-memory cluster substrate.

This package simulates the parallel computer of Sec. 1.1 of the paper: ``N``
compute nodes with private memories, a fat-tree interconnect with a
latency-bandwidth cost model, the dot-product allreduce, fail-stop node
failures with ULFM-like detection/replacement, and reliable external storage
for the static problem data.
"""

from .cluster import VirtualCluster
from .communicator import Communicator
from .cost_model import CostLedger, MachineModel, Phase
from .errors import (
    ClusterError,
    CommunicationError,
    NodeFailedError,
    UnrecoverableStateError,
)
from .failure import FailureEvent, FailureInjector, UlfmRuntime
from .network import FatTreeTopology
from .node import Node, NodeMemory, NodeStatus
from .reliable_storage import ReliableStorage

__all__ = [
    "VirtualCluster",
    "Communicator",
    "CostLedger",
    "MachineModel",
    "Phase",
    "ClusterError",
    "CommunicationError",
    "NodeFailedError",
    "UnrecoverableStateError",
    "FailureEvent",
    "FailureInjector",
    "UlfmRuntime",
    "FatTreeTopology",
    "Node",
    "NodeMemory",
    "NodeStatus",
    "ReliableStorage",
]
