"""Node-local block bookkeeping of the distributed multi-vector storage.

A :class:`~repro.distributed.dmultivector.DistributedMultiVector` (and its
one-column :class:`~repro.distributed.dvector.DistributedVector` view) keeps
one NumPy block per node, stored under a private key inside that node's
:class:`~repro.cluster.node.NodeMemory`, with the block of rank ``i``
covering the partition rows ``I_i``.  The availability queries, the
recovery write path and the driver-side assembly helper depend only on that
contract, so they live here, apart from the numeric kernels.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

import numpy as np

from .. import sanitizer as _sanitizer
from ..cluster.errors import NodeFailedError
from .partition import BlockRowPartition


def participating_max_block_size(partition: BlockRowPartition,
                                 ranks: Iterable[int]) -> int:
    """Largest block size among *ranks* (0 when the collection is empty).

    Bulk-synchronous local compute on a shrunken communicator is paced by
    the slowest rank that actually participates -- dead ranks contribute no
    work, so ``partition.max_block_size()`` would over-charge whenever the
    largest rank is among the failed ones.
    """
    return max((partition.size_of(r) for r in ranks), default=0)


class NodeBlockStore:
    """Mixin with the per-node block bookkeeping.

    Expected host-class contract:

    * ``self.cluster`` -- the :class:`~repro.cluster.cluster.VirtualCluster`;
    * ``self.partition`` -- the
      :class:`~repro.distributed.partition.BlockRowPartition`;
    * ``self._key()`` -- the node-memory key the blocks are stored under;
    * ``self.get_block(rank)`` -- the block of *rank* (raising
      :class:`~repro.cluster.errors.NodeFailedError` on failed nodes);
    * ``self.set_block(rank, values)`` -- overwrite the block of *rank*
      (shape-validated by the host class).
    """

    def restore_block(self, rank: int, values: np.ndarray) -> None:
        """Write a recovered block onto (replacement) node *rank*.

        The recovery-path counterpart of ``set_block``, used by the ESR
        reconstruction to re-install reconstructed ``(n_i, k)`` blocks on
        the replacement nodes the ULFM runtime provided.  The values are
        defensively copied so the reconstruction's driver-side work buffers
        can never alias node-local memory (a later in-place block update
        must not silently rewrite the driver's recovery records, and vice
        versa).  Writing to a failed node raises ``NodeFailedError`` exactly
        like ``set_block``.
        """
        self.set_block(rank, np.array(values, dtype=np.float64, copy=True))
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_block_restored(rank, self._key())

    def has_block(self, rank: int) -> bool:
        """True if *rank* is alive and holds a block of this container."""
        node = self.cluster.node(rank)
        if not node.is_alive:
            return False
        return self._key() in node.memory

    def available_ranks(self) -> List[int]:
        """Ranks whose block is currently readable."""
        return [r for r in range(self.partition.n_parts) if self.has_block(r)]

    def lost_ranks(self) -> List[int]:
        """Ranks whose block is unavailable (failed node or never written)."""
        return [r for r in range(self.partition.n_parts) if not self.has_block(r)]

    def delete(self) -> None:
        """Remove this container's blocks from all alive nodes."""
        key = self._key()
        for rank in range(self.partition.n_parts):
            node = self.cluster.node(rank)
            if node.is_alive and key in node.memory:
                del node.memory[key]

    # -- driver-side assembly ------------------------------------------------
    def _assemble(self, extract: Callable[[np.ndarray], np.ndarray],
                  tail_shape: Tuple[int, ...], *, allow_missing: bool = False,
                  fill_value: float = np.nan) -> np.ndarray:
        """Assemble ``extract(block)`` of every rank into one global array.

        *extract* maps each rank's block to the rows it contributes (shape
        ``(n_i,) + tail_shape``); the identity assembles the full container,
        a column selector assembles just that column.  This is an
        orchestration/verification helper (it is *not* charged to the cost
        model); the solvers themselves only use block access and explicit
        communication.  With ``allow_missing=True`` the rows of failed nodes
        are replaced by ``fill_value`` instead of raising.
        """
        out = np.full((self.partition.n,) + tail_shape, fill_value,
                      dtype=np.float64)
        for rank in range(self.partition.n_parts):
            start, stop = self.partition.range_of(rank)
            try:
                out[start:stop] = extract(self.get_block(rank))
            except (NodeFailedError, KeyError):
                if not allow_missing:
                    raise
        return out
