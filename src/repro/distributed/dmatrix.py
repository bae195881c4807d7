"""Distributed sparse matrices in block-row layout.

A :class:`DistributedMatrix` is one CSR matrix on the driver (see
:mod:`repro.distributed.blockstore`); every node's private memory holds the
CSR block of the rows that node owns (shape ``(n_i, n)``) as a zero-copy
view of it -- the block's ``data`` and ``indices`` are slices of the
matrix's -- so a failed node's block is gone while the SpMV engine runs one
kernel over all rows (:meth:`DistributedMatrix.stacked`).  Since the system
matrix and the preconditioner are *static* data (Sec. 1.1.2), each row block
is additionally deposited in the cluster's reliable storage so that
replacement nodes can re-retrieve it during reconstruction -- which is
charged to the recovery phase of the cost model.

The matrix owns its one scatter plan (:attr:`DistributedMatrix.context`,
derived once from the sparsity pattern, which never changes) and its one
:class:`~repro.distributed.spmv_engine.SpmvEngine`
(:meth:`DistributedMatrix.spmv_engine`), rebuilt when ``structure_version``
moves.  The version changes only when stored values do: at distribution,
and when ``restore_block_to_node`` installs values that differ from the
rank's.  Reliable storage holds each rank's view object itself, so a
recovery that re-installs blocks on replacement nodes writes nothing and
keeps the engine, and the caches
:class:`~repro.core.api.DistributedProblem` keys by the same version (the
global operator and the set-up preconditioners).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from ..cluster.cluster import VirtualCluster
from ..utils.validation import check_square
from .blockstore import BlockArray, raise_unreadable
from .partition import BlockRowPartition

#: Memory key prefix under which matrix row blocks are stored on each node.
_MAT_KEY = "mat"


def _row_view(a: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows ``[start, stop)`` of *a* as a CSR matrix sharing its data and
    indices (the constructor would copy slices of a much larger array)."""
    lo, hi = a.indptr[start], a.indptr[stop]
    block = sp.csr_matrix((stop - start, a.shape[1]), dtype=a.dtype)
    block.data = a.data[lo:hi]
    block.indices = a.indices[lo:hi]
    block.indptr = a.indptr[start:stop + 1] - lo
    block.has_sorted_indices = True
    return block


class DistributedMatrix:
    """A block-row distributed sparse matrix."""

    def __init__(self, cluster: VirtualCluster, partition: BlockRowPartition,
                 name: str):
        if partition.n_parts != cluster.n_nodes:
            raise ValueError(
                f"partition has {partition.n_parts} parts but cluster has "
                f"{cluster.n_nodes} nodes"
            )
        self.cluster = cluster
        self.partition = partition
        self.name = name
        #: Bumped when stored values change (distribution, a restore of
        #: other values); an SpMV engine built against an older version is
        #: rebuilt on its next use.
        self._structure_version = 0
        #: The one scatter plan (:attr:`context`) and SpMV engine
        #: (:meth:`spmv_engine`), built on first use.
        self._context = None
        self._engine = None

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_global(cls, cluster: VirtualCluster, partition: BlockRowPartition,
                    name: str, matrix) -> "DistributedMatrix":
        """Distribute a global sparse matrix over the cluster (setup phase).

        *matrix* is any SciPy sparse matrix (or dense array) of shape
        ``(n, n)`` with ``n == partition.n``.  Each row block is also
        deposited in reliable storage, so replacement nodes can retrieve it
        after a failure (the paper's assumption for static data).
        """
        a = sp.csr_matrix(matrix, copy=True)
        check_square(a, name)
        if a.shape[0] != partition.n:
            raise ValueError(
                f"matrix has {a.shape[0]} rows, partition expects {partition.n}"
            )
        a.sort_indices()
        dist = cls(cluster, partition, name)
        views = [_row_view(a, start, stop) for start, stop in partition.ranges]
        BlockArray(cluster, dist._key(), a, views).install()
        dist._structure_version += 1
        for rank, block in enumerate(views):
            cluster.storage.put_block(dist._storage_name(), rank, block)
        return dist

    def _storage_name(self) -> str:
        return f"{_MAT_KEY}:{self.name}"

    def _key(self) -> tuple:
        return (_MAT_KEY, self.name)

    def _record(self) -> BlockArray:
        record = self.cluster.arrays.get(self._key())
        if record is None or record.data.shape != self.shape:
            raise_unreadable(self.cluster, self._key())
        return record

    def stacked(self) -> sp.csr_matrix:
        """The one CSR matrix whose row blocks are the ranks' blocks.

        Zero-copy: in-place edits of its values land in the node-local
        blocks.  Raises what :meth:`row_block` raises on the first
        unreadable rank (``NodeFailedError`` on a failed node, ``KeyError``
        on a replacement node whose block was not restored).
        """
        return self._record().check().data

    @property
    def structure_version(self) -> int:
        """Monotone counter of stored-value changes (cache invalidation)."""
        return self._structure_version

    @property
    def context(self):
        """The scatter plan derived from this matrix's sparsity pattern.

        Built on first use and then kept: the engine, the problem, its
        solvers and the analyses all read this one plan.  A restore cannot
        change the pattern (:meth:`restore_block_to_node` rejects another
        one), so the plan never goes stale.
        """
        if self._context is None:
            from .comm_context import CommunicationContext

            self._context = CommunicationContext.from_matrix(self)
        return self._context

    def spmv_engine(self):
        """The matrix's SpMV engine, rebuilt when ``structure_version`` moves.

        A stored value that changes (e.g. ``restore_block_to_node``
        installing other values) makes the engine stale; the next call
        builds a new one.  A current engine is returned without touching
        node memory.  A build raises ``NodeFailedError`` when a row block
        sits on a failed node, and keeps nothing then.
        """
        engine = self._engine
        if engine is None or engine.version != self._structure_version:
            from .spmv_engine import SpmvEngine

            engine = self._engine = SpmvEngine(self)
        return engine

    # -- block access ------------------------------------------------------------
    def row_block(self, rank: int) -> sp.csr_matrix:
        """Rows owned by *rank* as a ``(n_i, n)`` CSR block (node memory)."""
        return self.cluster.node(rank).memory[self._key()]

    def row_block_from_storage(self, rank: int, *, charge: bool = True
                               ) -> sp.csr_matrix:
        """Re-retrieve the rows of *rank* from reliable storage (recovery path)."""
        return self.cluster.storage.retrieve_block(
            self._storage_name(), rank, charge=charge
        )

    def restore_block_to_node(self, rank: int, *, charge: bool = True) -> sp.csr_matrix:
        """Fetch a row block from storage and install it on the (replacement) node.

        The node gets its view back.  Storage normally holds that view
        itself, so nothing is written and every cache keyed by
        ``structure_version`` stays valid.  A stored block of other values
        (its sparsity pattern must match) is copied into the rank's rows,
        and the version is bumped if that changes any stored value.
        """
        block = self.row_block_from_storage(rank, charge=charge)
        record = self._record()
        view = record.views[rank]
        if block is not view:
            if (block.shape != view.shape
                    or not np.array_equal(block.indptr, view.indptr)
                    or not np.array_equal(block.indices, view.indices)):
                raise ValueError(
                    f"stored row block of rank {rank} does not match the "
                    f"sparsity pattern of matrix {self.name!r}"
                )
            values = np.asarray(block.data, dtype=view.data.dtype)
            if values.tobytes() != view.data.tobytes():
                view.data[...] = values
                self._structure_version += 1
        record.install([rank])
        return view

    def has_block(self, rank: int) -> bool:
        node = self.cluster.node(rank)
        return node.is_alive and self._key() in node.memory

    # -- structural queries ---------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return (self.partition.n, self.partition.n)

    def nnz_of(self, rank: int) -> int:
        """Stored non-zeros in the row block of *rank*."""
        return int(self.row_block(rank).nnz)

    def needed_column_indices(self, rank: int) -> np.ndarray:
        """Global column indices with non-zeros in *rank*'s row block.

        These are exactly the vector elements node *rank* needs to compute its
        part of ``A p`` -- the basis of the SpMV communication pattern
        (Eqn. (1)/(2) of the paper).
        """
        block = self.row_block(rank)
        return np.unique(block.indices.astype(np.int64))

    def diagonal(self) -> np.ndarray:
        """Global main diagonal assembled from the row blocks."""
        diag = np.zeros(self.partition.n)
        for rank in range(self.partition.n_parts):
            start, stop = self.partition.range_of(rank)
            block = self.row_block(rank)[:, start:stop]
            diag[start:stop] = block.diagonal()
        return diag

    # -- global assembly (verification / recovery) -------------------------------------
    def to_global(self) -> sp.csr_matrix:
        """A copy of the full matrix on the driver (verification only)."""
        return self.stacked().copy()

    def recovery_rows(self, ranks: Iterable[int], *, charge: bool = True
                      ) -> sp.csr_matrix:
        """``A_{I_f, I}`` for a set of failed ranks, pulled from reliable storage.

        This is line 1 of the reconstruction (Alg. 2): the replacement nodes
        retrieve the static rows they own from reliable storage.
        """
        ranks = sorted(set(int(r) for r in ranks))
        blocks = [
            self.row_block_from_storage(rank, charge=charge) for rank in ranks
        ]
        if not blocks:
            return sp.csr_matrix((0, self.partition.n))
        return sp.vstack(blocks, format="csr")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DistributedMatrix(name={self.name!r}, n={self.partition.n}, "
            f"N={self.partition.n_parts})"
        )
