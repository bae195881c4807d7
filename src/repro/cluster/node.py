"""Compute nodes of the virtual distributed-memory machine.

A :class:`Node` models one compute node of the parallel computer described in
Sec. 1.1 of the paper: it has a private memory (shared by its ``m`` local
processors, which the simulation does not need to distinguish further), it can
*fail* -- losing all dynamic data stored in that memory -- and it can later be
re-initialised as a *replacement node* that takes over the failed node's rank.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator

import numpy as np

from .. import sanitizer as _sanitizer
from .errors import NodeFailedError


class NodeStatus(enum.Enum):
    """Lifecycle states of a virtual compute node."""

    #: Healthy node participating in the computation.
    ALIVE = "alive"
    #: Node that failed; its memory contents are gone.
    FAILED = "failed"
    #: Node brought in to take over a failed node's rank (Sec. 1.1).  It is
    #: functionally alive but flagged so the recovery logic and statistics can
    #: distinguish it from nodes that never failed.
    REPLACEMENT = "replacement"


class MemoryEpoch:
    """Counter of the events that can take data out of node memories.

    Clearing a node memory (which a node failing or being replaced does) and
    deleting any key bump it.  The nodes of one cluster share a counter, so
    a container that has seen every rank hold its block at epoch ``e``
    knows that all its blocks are still readable while the counter reads
    ``e`` -- one integer comparison instead of one guarded lookup per rank
    (see :class:`~repro.distributed.blockstore.BlockArray`).  Once the
    counter has moved, each memory's own :attr:`NodeMemory.wipes` tells
    which nodes lost something.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


class NodeMemory:
    """Private key/value memory of one node.

    Every read or write checks the owning node's status, so any attempt to use
    data that should have been lost in a failure raises
    :class:`~repro.cluster.errors.NodeFailedError`.  Removing a key bumps the
    node's :class:`MemoryEpoch` and the memory's own :attr:`wipes`.
    """

    def __init__(self, node: "Node"):
        self._node = node
        self._store: Dict[Any, Any] = {}
        #: How often this memory has lost keys (cleared, or a key deleted
        #: or popped): entries written while it read ``w`` are all still
        #: here while it reads ``w``.
        self.wipes = 0

    # -- guarded dict-like interface -------------------------------------
    def _check(self) -> None:
        if self._node.status is NodeStatus.FAILED:
            raise NodeFailedError(self._node.rank)

    def __setitem__(self, key: Any, value: Any) -> None:
        if self._node.status is NodeStatus.FAILED:  # _check(), inlined: hot
            raise NodeFailedError(self._node.rank)
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_memory_write(self._node, key)
        self._store[key] = value

    def __getitem__(self, key: Any) -> Any:
        # No use-after-failure hook here: a lost key raises a loud KeyError,
        # which callers (e.g. ``to_global(allow_missing=True)``) handle
        # deliberately.  The sanitizer targets the *silent* paths below.
        self._check()
        return self._store[key]

    def __delitem__(self, key: Any) -> None:
        self._check()
        del self._store[key]
        self._wiped()

    def __contains__(self, key: Any) -> bool:
        self._check()
        return key in self._store

    def __len__(self) -> int:
        self._check()
        return len(self._store)

    def __iter__(self) -> Iterator[Any]:
        self._check()
        return iter(list(self._store.keys()))

    def get(self, key: Any, default: Any = None) -> Any:
        self._check()
        if _sanitizer._ACTIVE is not None and key not in self._store:
            # About to silently return the default for a key that may have
            # been lost in a failure -- the use-after-failure hazard.
            _sanitizer._ACTIVE.on_memory_read(self._node, key)
        return self._store.get(key, default)

    def pop(self, key: Any, *default: Any) -> Any:
        self._check()
        if key not in self._store:
            if _sanitizer._ACTIVE is not None and default:
                _sanitizer._ACTIVE.on_memory_read(self._node, key)
            return self._store.pop(key, *default)
        self._wiped()
        return self._store.pop(key)

    def keys(self):
        self._check()
        return list(self._store.keys())

    def raw_keys(self):
        """Keys currently in the raw store, without the liveness check.

        Introspection hook for the runtime sanitizer, which must enumerate
        the contents of a memory *while its node is failing* (i.e. exactly
        when the guarded interface refuses access).
        """
        return list(self._store.keys())

    def clear(self) -> None:
        """Erase everything (used when the node fails)."""
        self._store.clear()
        self._wiped()

    def _wiped(self) -> None:
        self.wipes += 1
        self._node.epoch.bump()

    def nbytes(self) -> int:
        """Approximate memory footprint of stored NumPy data (for statistics)."""
        self._check()
        total = 0
        for value in self._store.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif hasattr(value, "data") and hasattr(value.data, "nbytes"):
                # scipy sparse matrices
                total += value.data.nbytes
                for attr in ("indices", "indptr"):
                    arr = getattr(value, attr, None)
                    if arr is not None:
                        total += arr.nbytes
        return total


@dataclass
class Node:
    """One compute node of the virtual cluster.

    Parameters
    ----------
    rank:
        Global rank (0-based) of the node.  The paper indexes nodes
        ``1..N``; ranks map to that numbering shifted by one.  The node is
        the unit of failure and of data ownership, matching the paper's
        experiments (one process per node).
    """

    rank: int
    status: NodeStatus = NodeStatus.ALIVE
    #: Number of times this rank has failed during the simulation.
    failure_count: int = 0
    #: Shared by all nodes of a cluster; a standalone node gets its own.
    epoch: MemoryEpoch = field(default_factory=MemoryEpoch, repr=False,
                               compare=False)
    memory: NodeMemory = field(init=False)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")
        self.memory = NodeMemory(self)

    # -- status helpers ---------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True for ``ALIVE`` and ``REPLACEMENT`` nodes."""
        return self.status is not NodeStatus.FAILED

    @property
    def is_failed(self) -> bool:
        return self.status is NodeStatus.FAILED

    # -- failure / replacement lifecycle ----------------------------------
    def fail(self) -> None:
        """Fail-stop this node: erase its memory and mark it failed."""
        if _sanitizer._ACTIVE is not None:
            # Tombstones must be recorded before the wipe below.
            _sanitizer._ACTIVE.on_node_fail(self)
        self.memory.clear()
        self.status = NodeStatus.FAILED
        self.failure_count += 1

    def replace(self) -> None:
        """Bring in a replacement node for this rank.

        The replacement starts with an *empty* memory -- it has to obtain all
        data it needs through the recovery procedure (reliable storage for
        static data, redundant copies on surviving nodes for dynamic data).
        """
        if self.status is not NodeStatus.FAILED:
            raise ValueError(
                f"node {self.rank} is not failed; cannot install a replacement"
            )
        self.memory.clear()
        self.status = NodeStatus.REPLACEMENT

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Node(rank={self.rank}, status={self.status.value}, "
            f"failures={self.failure_count})"
        )
