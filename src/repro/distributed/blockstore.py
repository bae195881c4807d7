"""Contiguous storage of the distributed containers, seen per rank.

A distributed container -- a
:class:`~repro.distributed.dmultivector.DistributedMultiVector` (and so its
one-column :class:`~repro.distributed.dvector.DistributedVector` face) or a
:class:`~repro.distributed.dmatrix.DistributedMatrix` -- keeps all its rows
in **one** driver-side object: a C-order ``(n, k)`` array, or one CSR
matrix.  A :class:`BlockArray` pairs that object with its per-rank
zero-copy views (the view of rank ``i`` covers the partition rows ``I_i``)
and is registered in the cluster's ``arrays`` under the container's
node-memory key, so every handle of one name sees one array.

Each node's :class:`~repro.cluster.node.NodeMemory` holds only its own
rank's view.  A failure wipes that memory, so the view is gone and SimSan
tombstones the key; a replacement node starts without it; and
``restore_block`` writes the recovered values into the rank's rows and puts
the view back.  Per-rank access (``get_block``) reads the node memory.

**Liveness check.**  A whole-array kernel (BLAS-1, the reductions, the SpMV,
ESR staging) first calls :meth:`BlockArray.check`.  It raises exactly what
the per-rank read ``node.memory[key]`` of the first unreadable rank raises:
``NodeFailedError`` on a failed node, ``KeyError`` on a replacement node
whose block was not restored.  The check walks the ranks once and then
records the cluster's :class:`~repro.cluster.node.MemoryEpoch`; every later
check is one integer comparison, until a node fails or is replaced or a
memory entry is deleted.
"""

from __future__ import annotations

from typing import Any, Iterable, List, NoReturn, Optional

import numpy as np

from .. import sanitizer as _sanitizer


class BlockArray:
    """One container's contiguous storage and its per-rank views.

    ``data`` is the whole container (an ``(n, k)`` array or a CSR matrix)
    and ``views[rank]`` the zero-copy object that rank's node memory holds
    under ``key``.  Creating one registers it as the storage of ``key`` in
    the cluster's ``arrays`` (replacing any earlier one).  It keeps the
    cluster's nodes and epoch, not the cluster, so the registry holds no
    reference cycle and dropped storage is freed at once.
    """

    __slots__ = ("nodes", "epoch", "key", "data", "views", "checked")

    def __init__(self, cluster, key: Any, data: Any, views: List[Any]):
        self.nodes = cluster.nodes
        self.epoch = cluster.epoch
        self.key = key
        self.data = data
        self.views = views
        #: Memory epoch at which every rank was last seen holding its view.
        self.checked = -1
        cluster.arrays[key] = self

    def check(self, *, alive_only: bool = False) -> "BlockArray":
        """Raise what a per-rank read would, unless every rank holds its view.

        With *alive_only* failed ranks are skipped (ESR staging reads the
        surviving ranks' rows this way); that partial check is not cached.
        """
        epoch = self.epoch.value
        if self.checked == epoch:
            return self
        key = self.key
        for node, view in zip(self.nodes, self.views):
            if alive_only and node.is_failed:
                continue
            if node.memory[key] is not view:
                raise KeyError(f"{key!r} on rank {node.rank} is not a view "
                               "of this container's storage")
        if not alive_only:
            self.checked = epoch
        return self

    def install(self, ranks: Optional[Iterable[int]] = None) -> "BlockArray":
        """Put the views of *ranks* (default: all) into their node memories.

        The write path of an operation that overwrites whole blocks (the
        SpMV output, the preconditioner output, a new container): a failed
        node raises ``NodeFailedError``; a replacement node without the
        block gets its view back.
        """
        epoch = self.epoch.value
        if ranks is None and self.checked == epoch:
            return self
        key = self.key
        for rank in range(len(self.views)) if ranks is None else ranks:
            memory = self.nodes[rank].memory
            view = self.views[rank]
            if key not in memory or memory[key] is not view:
                memory[key] = view
        if ranks is None:
            self.checked = epoch
        return self


def raise_unreadable(cluster, key: Any, *, alive_only: bool = False
                     ) -> NoReturn:
    """Fail a read of a container that has no storage of the right shape.

    Reads every rank's entry first (skipping failed ranks with
    *alive_only*), so a failed node raises ``NodeFailedError`` and a missing
    entry ``KeyError``, as the per-rank read would; entries that are left
    belong to other storage.
    """
    for node in cluster.nodes:
        if not (alive_only and node.is_failed):
            node.memory[key]
    raise KeyError(f"{key!r} holds storage of a different shape")


class NodeBlockStore:
    """Mixin with the per-rank bookkeeping of the multi-vector storage.

    Expected host-class contract:

    * ``self.cluster`` -- the :class:`~repro.cluster.cluster.VirtualCluster`;
    * ``self.partition`` -- the
      :class:`~repro.distributed.partition.BlockRowPartition`;
    * ``self._key()`` -- the node-memory key the blocks are stored under;
    * ``self.set_block(rank, values)`` -- overwrite the block of *rank*
      (shape-validated by the host class).
    """

    def restore_block(self, rank: int, values: np.ndarray) -> None:
        """Write a recovered block onto (replacement) node *rank*.

        The recovery-path counterpart of ``set_block``, used by the ESR
        reconstruction to re-install reconstructed ``(n_i, k)`` blocks on
        the replacement nodes the ULFM runtime provided.  The values are
        copied into the rank's rows of the contiguous storage, so the
        reconstruction's driver-side work buffers never alias node-local
        memory.  Writing to a failed node raises ``NodeFailedError`` exactly
        like ``set_block``.
        """
        self.set_block(rank, values)
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_block_restored(rank, self._key())

    def has_block(self, rank: int) -> bool:
        """True if *rank* is alive and holds a block of this container."""
        node = self.cluster.node(rank)
        if not node.is_alive:
            return False
        return self._key() in node.memory

    def lost_ranks(self) -> List[int]:
        """Ranks whose block is unavailable (failed node or never written)."""
        return [r for r in range(self.partition.n_parts) if not self.has_block(r)]

    def delete(self) -> None:
        """Remove this container's blocks from all alive nodes."""
        key = self._key()
        self.cluster.arrays.pop(key, None)
        for rank in range(self.partition.n_parts):
            node = self.cluster.node(rank)
            if node.is_alive and key in node.memory:
                del node.memory[key]
