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

The matrix also caches :class:`~repro.distributed.spmv_engine.SpmvEngine`
instances keyed by communication context (see :meth:`DistributedMatrix.
spmv_engine`) and a default scatter plan, both tagged with
``structure_version``.  The version changes only when stored values do: at
distribution, and when ``restore_block_to_node`` installs values that
differ from the rank's.  Reliable storage holds each rank's view object
itself, so a recovery that re-installs blocks on replacement nodes writes
nothing and keeps these caches, and the ones
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
        #: other values); SpMV engines built against an older version are
        #: discarded (cache invalidation contract).
        self._structure_version = 0
        #: ``id(context) -> (context, engine_or_None, version)``.
        self._spmv_engines: dict = {}
        #: Cached default scatter plan (see :meth:`default_context`).
        self._default_context = None
        self._default_context_version = -1

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_global(cls, cluster: VirtualCluster, partition: BlockRowPartition,
                    name: str, matrix, *, keep_in_storage: bool = True
                    ) -> "DistributedMatrix":
        """Distribute a global sparse matrix over the cluster (setup phase).

        Parameters
        ----------
        matrix:
            Any SciPy sparse matrix (or dense array) of shape ``(n, n)`` with
            ``n == partition.n``.
        keep_in_storage:
            Also deposit each row block in reliable storage so it can be
            retrieved by replacement nodes after a failure (default: true,
            matching the paper's assumption for static data).
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
        if keep_in_storage:
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

    #: Engines cached per context; solvers hold one long-lived plan, so a
    #: small bound suffices while preventing unbounded growth when callers
    #: keep passing fresh context objects.
    _ENGINE_CACHE_SIZE = 8

    def default_context(self):
        """Cached scatter plan derived from this matrix's sparsity pattern.

        ``distributed_spmv`` uses this when no context is passed, so repeated
        default-context calls reuse one plan (and therefore one cached SpMV
        engine) instead of deriving a fresh plan per call.  Rebuilt when the
        structure version changes.
        """
        if (self._default_context is None
                or self._default_context_version != self._structure_version):
            from .comm_context import CommunicationContext

            self._default_context = CommunicationContext.from_matrix(self)
            self._default_context_version = self._structure_version
        return self._default_context

    def _cached_engine_entry(self, context):
        """The live cache entry for *context*, LRU-refreshed, or ``None``."""
        key = id(context)
        entry = self._spmv_engines.get(key)
        if (entry is not None and entry[0] is context
                and entry[2] == self._structure_version):
            # LRU refresh so a long-lived hot plan is not evicted by a
            # stream of short-lived foreign contexts.
            self._spmv_engines[key] = self._spmv_engines.pop(key)
            return entry
        return None

    def cached_spmv_engine(self, context):
        """The cached engine for *context* without building one.

        Pure cache lookup -- never touches node memories, so callers can use
        it to pick the cached static charges before any operation that may
        raise on failed nodes (keeping the charge order identical to the
        dense-gather reference path).  ``None`` on a cache miss *or* when
        the cached entry records a context mismatch.
        """
        entry = self._cached_engine_entry(context)
        return entry[1] if entry is not None else None

    def spmv_engine(self, context):
        """The cached SpMV engine for *context* (or ``None``).

        Engines are cached per context object and invalidated whenever the
        stored values change (``structure_version`` changes), e.g. when
        ``restore_block_to_node`` installs other values.  Returns ``None``
        when *context* does not cover the matrix's off-diagonal columns --
        callers then fall back to the dense-gather reference path, whose
        numerics never depend on the context.
        """
        entry = self._cached_engine_entry(context)
        if entry is not None:
            return entry[1]
        from .spmv_engine import ContextMismatchError, SpmvEngine

        try:
            engine = SpmvEngine(self, context)
        except ContextMismatchError:
            engine = None
        if len(self._spmv_engines) >= self._ENGINE_CACHE_SIZE:
            stale = [cached_key for cached_key, cached in
                     self._spmv_engines.items()
                     if cached[2] != self._structure_version]
            for cached_key in stale:
                del self._spmv_engines[cached_key]
        while len(self._spmv_engines) >= self._ENGINE_CACHE_SIZE:
            self._spmv_engines.pop(next(iter(self._spmv_engines)))
        self._spmv_engines[id(context)] = (context, engine,
                                           self._structure_version)
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

    def total_nnz(self) -> int:
        return sum(self.nnz_of(rank) for rank in range(self.partition.n_parts))

    def max_block_nnz(self) -> int:
        """Largest per-node non-zero count (sets the SpMV compute pace)."""
        return max(self.nnz_of(rank) for rank in range(self.partition.n_parts))

    def needed_column_indices(self, rank: int) -> np.ndarray:
        """Global column indices with non-zeros in *rank*'s row block.

        These are exactly the vector elements node *rank* needs to compute its
        part of ``A p`` -- the basis of the SpMV communication pattern
        (Eqn. (1)/(2) of the paper).
        """
        block = self.row_block(rank)
        return np.unique(block.indices.astype(np.int64))

    def diagonal_block(self, rank: int) -> sp.csr_matrix:
        """The square diagonal block ``A_{I_i, I_i}`` (used by block Jacobi)."""
        start, stop = self.partition.range_of(rank)
        return self.row_block(rank)[:, start:stop].tocsr()

    def off_diagonal_nnz(self, rank: int) -> int:
        """Non-zeros of *rank*'s rows that fall outside its diagonal block."""
        return self.nnz_of(rank) - int(self.diagonal_block(rank).nnz)

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
