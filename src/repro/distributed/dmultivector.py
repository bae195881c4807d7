"""Distributed multi-vectors: the one distributed-vector storage.

A :class:`DistributedMultiVector` is a global ``(n, k)`` dense matrix of
``k`` vectors, block-row distributed: rank ``i`` owns the ``(n_i, k)`` block
of rows ``I_i``.  All blocks of one name live in **one** C-order ``(n, k)``
array shared by every handle of that name, and each node's private memory
holds only its rank's zero-copy view of it (see
:mod:`repro.distributed.blockstore`).  When a node fails, its view of every
dynamic operand (``X``, ``R``, ``Z``, ``P``, ``AP``) is gone and any read
raises, so recovery must rebuild the block from redundant copies and write
it back with ``restore_block``.  A single vector is the ``k = 1`` case;
:class:`~repro.distributed.dvector.DistributedVector` is only a 1-D face of
it (same storage, same kernels -- see
:meth:`DistributedMultiVector.as_multivector`).  The batched ``Y = A X``
kernel of the SpMV engine
(:meth:`~repro.distributed.spmv_engine.SpmvEngine.apply_block`), the block
BLAS-1 operations and the batched reductions below are the only numeric
kernels; :class:`~repro.core.block_pcg.BlockPCG` is the solver built on
them, and :class:`~repro.core.resilient_block_pcg.ResilientBlockPCG` adds
ESR protection.

**Whole-array kernels.**  Every kernel first checks that every rank holds
its block -- one integer comparison while no node has failed or been
replaced since the last check -- and raises what :meth:`get_block` would on
the first unreadable rank (``NodeFailedError`` on a failed node,
``KeyError`` on a replacement node whose block was not restored).  It then
runs on the whole array (:meth:`stacked`) or on the cached per-rank views
(:meth:`blocks`), never looking up node memories rank by rank.

**Block BLAS-1.**  ``copy``/``fill``/``scale``/``axpy``/``aypx``/``assign``
are single NumPy operations on the ``(n, k)`` arrays; coefficients may be
scalars (applied to every column) or per-column ``(k,)`` vectors (one
independent recurrence per column, which is what the lock-step block-PCG
needs).  Every operation is elementwise, so column ``j`` of the result is
bit-identical to the same operation on column ``j`` alone (a ``k = 1``
multi-vector), and the charge is the single-vector streaming charge with
``k``-fold element count, mirroring how the batched SpMV scales.

**Batched reductions.**  :meth:`dots` returns the ``k`` per-column dot
products through **one** allreduce of ``k`` scalars.  The collective's
message count is that of a single scalar allreduce -- one message per tree
hop -- and only the per-hop volume scales
(see :meth:`~repro.cluster.communicator.Communicator.allreduce_sum`), which
is the latency amortization the paper's cost model (Sec. 4.2) rewards.
Rank ``r``'s partial dot of column ``j`` is a contiguous 1-D dot over
rank ``r``'s stretch of row ``j`` of the ``(k, n)`` transpose (a view for
``k = 1``, one copy otherwise).  One ``np.matmul`` per run of equal block
size computes them all, calling the BLAS dot that a per-rank
``ndarray.dot`` calls on the same buffers, so each partial is bit for bit
the per-rank one (see :func:`fused_dots`).  They fill one ``(N, k)``
partials array, row ``r`` holding rank ``r``'s partials, which the
allreduce sums row by row in rank order, so the per-column results are
bit-identical to the ``k = 1`` dots of each column.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import Phase
from ..cluster.errors import NodeFailedError
from .blockstore import BlockArray, NodeBlockStore, raise_unreadable
from .partition import BlockRowPartition

#: Memory key prefix under which multi-vector blocks are stored on each node.
_MVEC_KEY = "mvec"

#: A BLAS-1 coefficient: one scalar for all columns, or one value per column.
Coefficient = Union[float, np.ndarray]


class _Storage(BlockArray):
    """The storage of one multi-vector name, plus the per-rank 1-D views of
    a one-column storage (:meth:`DistributedMultiVector.vector_blocks`)."""

    __slots__ = ("_vectors",)

    def __init__(self, cluster: VirtualCluster, key: tuple, data: np.ndarray,
                 views: List[np.ndarray]):
        super().__init__(cluster, key, data, views)
        self._vectors: Optional[List[np.ndarray]] = None

    def vectors(self) -> List[np.ndarray]:
        """Per rank, its ``(n_i, 1)`` view as a contiguous ``(n_i,)`` view
        (built on first use)."""
        if self._vectors is None:
            self._vectors = [view[:, 0] for view in self.views]
        return self._vectors


class DistributedMultiVector(NodeBlockStore):
    """A block-row distributed ``(n, k)`` dense matrix of ``k`` vectors."""

    def __init__(self, cluster: VirtualCluster, partition: BlockRowPartition,
                 name: str, n_cols: int):
        if partition.n_parts != cluster.n_nodes:
            raise ValueError(
                f"partition has {partition.n_parts} parts but cluster has "
                f"{cluster.n_nodes} nodes"
            )
        if n_cols < 1:
            raise ValueError(f"n_cols must be positive, got {n_cols}")
        self.cluster = cluster
        self.partition = partition
        self.name = name
        self.n_cols = int(n_cols)
        self._mem_key = (_MVEC_KEY, name)
        self._shape = (partition.n, self.n_cols)

    # -- construction -------------------------------------------------------
    @classmethod
    def zeros(cls, cluster: VirtualCluster, partition: BlockRowPartition,
              name: str, n_cols: int) -> "DistributedMultiVector":
        """Create a distributed multi-vector of zeros."""
        mvec = cls(cluster, partition, name, n_cols)
        mvec._new_storage(np.zeros(mvec._shape)).install()
        return mvec

    @classmethod
    def from_global(cls, cluster: VirtualCluster, partition: BlockRowPartition,
                    name: str, values: np.ndarray) -> "DistributedMultiVector":
        """Distribute a global ``(n, k)`` array (setup phase, not charged)."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != partition.n:
            raise ValueError(
                f"expected a ({partition.n}, k) array, got shape {values.shape}"
            )
        mvec = cls(cluster, partition, name, values.shape[1])
        mvec._new_storage(np.array(values, order="C")).install()
        return mvec

    # -- storage access -----------------------------------------------------
    def _key(self) -> tuple:
        return self._mem_key

    def _new_storage(self, data: np.ndarray) -> _Storage:
        """Register *data* (a fresh C-order ``(n, k)`` array) as the storage
        of this name, split into per-rank row views."""
        views = [data[start:stop] for start, stop in self.partition.ranges]
        return _Storage(self.cluster, self._mem_key, data, views)

    def _lookup(self) -> Optional[_Storage]:
        """The storage of this name, if it has this container's shape."""
        record = self.cluster.arrays.get(self._mem_key)
        if record is None or record.data.shape != self._shape:
            return None
        return record

    def _storage(self, *, alive_only: bool = False,
                 overwrite: bool = False) -> _Storage:
        record = self._lookup()
        if overwrite:
            if record is None:
                record = self._new_storage(np.zeros(self._shape))
            return record.install()
        if record is None:
            raise_unreadable(self.cluster, self._mem_key,
                             alive_only=alive_only)
        return record.check(alive_only=alive_only)

    def stacked(self, *, alive_only: bool = False,
                overwrite: bool = False) -> np.ndarray:
        """The C-order ``(n, k)`` array whose row blocks are the ranks' blocks.

        Zero-copy: writes land in the node-local blocks.  Raises what
        :meth:`get_block` raises on the first unreadable rank
        (``NodeFailedError`` on a failed node, ``KeyError`` on a replacement
        node whose block was not restored); with *alive_only* failed ranks
        are skipped and their rows must not be used.  With *overwrite* the
        caller promises to overwrite every block: a replacement node then
        gets its block back instead of raising (a failed node still raises).
        """
        return self._storage(alive_only=alive_only, overwrite=overwrite).data

    def blocks(self, *, alive_only: bool = False,
               overwrite: bool = False) -> List[np.ndarray]:
        """The per-rank ``(n_i, k)`` views of :meth:`stacked` (same checks)."""
        return self._storage(alive_only=alive_only, overwrite=overwrite).views

    def vector_blocks(self, *, overwrite: bool = False) -> List[np.ndarray]:
        """The per-rank blocks of a one-column multi-vector as contiguous
        ``(n_i,)`` views of :meth:`stacked` (same checks as :meth:`blocks`).

        Built once per storage, so a kernel that hands a 1-D block per rank
        to a 1-D routine (the block-local preconditioner) neither slices nor
        copies per call.
        """
        if self.n_cols != 1:
            raise ValueError(
                f"vector_blocks needs one column, {self.name!r} has "
                f"{self.n_cols}"
            )
        return self._storage(overwrite=overwrite).vectors()

    def get_block(self, rank: int) -> np.ndarray:
        """``(n_i, k)`` block of *rank*; raises ``NodeFailedError`` if failed."""
        return self.cluster.node(rank).memory[self._mem_key]

    def set_block(self, rank: int, values: np.ndarray) -> None:
        """Overwrite the block owned by *rank* (the values are copied)."""
        values = np.asarray(values, dtype=np.float64)
        expected = (self.partition.size_of(rank), self.n_cols)
        if values.shape != expected:
            raise ValueError(
                f"block for rank {rank} must have shape {expected}, "
                f"got {values.shape}"
            )
        record = self._lookup()
        if record is None:
            record = self._new_storage(np.zeros(self._shape))
        record.install([rank])
        record.views[rank][...] = values

    def as_multivector(self) -> "DistributedMultiVector":
        """The plain multi-vector over this container's storage.

        Kernels read and write ``(n_i, k)`` blocks through this view, so a
        :class:`~repro.distributed.dvector.DistributedVector` (whose own
        ``get_block`` is 1-D) runs on the same code as any block.  A plain
        multi-vector is its own view.
        """
        return self

    # -- assembly / views ---------------------------------------------------
    def to_global(self, *, allow_missing: bool = False,
                  fill_value: float = np.nan) -> np.ndarray:
        """Assemble the global ``(n, k)`` array on the driver (not charged).

        With ``allow_missing=True`` the rows of unreadable ranks (failed, or
        replaced and not restored) are ``fill_value`` instead of raising.
        """
        if not allow_missing:
            return self.stacked().copy()
        mine = self.as_multivector()
        out = np.full(self._shape, fill_value)
        for rank, (start, stop) in enumerate(self.partition.ranges):
            try:
                out[start:stop] = mine.get_block(rank)
            except (NodeFailedError, KeyError):
                continue
        return out

    def column(self, j: int) -> np.ndarray:
        """Global column *j* assembled on the driver (verification helper)."""
        j = self._check_column(j)
        return self.stacked()[:, j].copy()

    # ``has_block`` / ``lost_ranks`` / ``delete`` and
    # the recovery write path ``restore_block`` come from
    # :class:`NodeBlockStore`.

    # -- elementwise / block BLAS-1 operations -------------------------------
    def _coefficient(self, alpha: Coefficient) -> Union[float, np.ndarray]:
        """Normalise *alpha* to a scalar or a ``(k,)`` broadcast row."""
        arr = np.asarray(alpha, dtype=np.float64)
        if arr.ndim == 0:
            return float(arr)
        if arr.shape != (self.n_cols,):
            raise ValueError(
                f"per-column coefficients must have shape ({self.n_cols},), "
                f"got {arr.shape}"
            )
        return arr

    def _charge_block_op(self, flops_per_element: float = 2.0,
                         phase: str = Phase.VECTOR_COMPUTE) -> None:
        """Charge one streaming block op: single-vector charge, ``k``-fold size."""
        model = self.cluster.ledger.model
        n_rows = self.partition.max_block_size()
        self.cluster.ledger.add_time(
            phase,
            model.vector_op_time(n_rows * self.n_cols, flops_per_element),
        )

    def copy(self, name: str) -> "DistributedMultiVector":
        """Deep copy under a new name (charged as a streaming block op)."""
        out = type(self)(self.cluster, self.partition, name, self.n_cols)
        out._new_storage(self.stacked().copy()).install()
        self._charge_block_op(1.0)
        return out

    def fill(self, value: float) -> "DistributedMultiVector":
        """Set every element (all columns) to *value*."""
        self.stacked()[...] = value
        self._charge_block_op(1.0)
        return self

    def scale(self, alpha: Coefficient) -> "DistributedMultiVector":
        """In-place ``self *= alpha`` (scalar or per-column)."""
        alpha = self._coefficient(alpha)
        mine = self.stacked()
        mine *= alpha
        self._charge_block_op(1.0)
        return self

    def axpy(self, alpha: Coefficient,
             x: "DistributedMultiVector") -> "DistributedMultiVector":
        """In-place ``self[:, j] += alpha_j * x[:, j]`` (scalar or per-column)."""
        self._check_compatible(x)
        alpha = self._coefficient(alpha)
        mine = self.stacked()
        mine += alpha * x.stacked()
        self._charge_block_op(2.0)
        return self

    def aypx(self, alpha: Coefficient,
             x: "DistributedMultiVector") -> "DistributedMultiVector":
        """In-place ``self[:, j] = x[:, j] + alpha_j * self[:, j]``.

        The block-PCG search-direction update ``P = Z + P diag(beta)``.
        """
        self._check_compatible(x)
        alpha = self._coefficient(alpha)
        mine = self.stacked()
        mine[...] = x.stacked() + alpha * mine
        self._charge_block_op(2.0)
        return self

    def assign(self, other: "DistributedMultiVector") -> "DistributedMultiVector":
        """In-place copy of *other*'s values into this multi-vector."""
        self._check_compatible(other)
        self.stacked()[...] = other.stacked()
        self._charge_block_op(1.0)
        return self

    # -- batched reductions --------------------------------------------------
    def dots(self, other: "DistributedMultiVector") -> np.ndarray:
        """The ``k`` per-column dot products through **one** batched allreduce.

        Column ``j`` of the result is bit-identical to the ``k = 1`` dot of
        the ``j``-th columns (each column is gathered into a contiguous
        buffer before the local dot, so the same BLAS kernel runs on the
        same data), and the per-rank partial sums are reduced in the same
        rank order.  The collective ships all ``k``
        partial dots in one payload: message count of a scalar allreduce,
        ``k``-fold volume (cf. Sec. 4.2's latency-dominated reductions).
        """
        return fused_dots([(self, other)])[0]

    def norms2(self) -> np.ndarray:
        """Per-column Euclidean norms (one batched allreduce via :meth:`dots`).

        A NaN reduction (corrupted or lost data) propagates as that column's
        NaN norm -- clamping it to ``0.0`` would silently read as
        "converged"; only tiny negative rounding residue is clamped.
        """
        return norms_from_dots(self.dots(self))

    # -- validation ----------------------------------------------------------
    def _check_column(self, j: int) -> int:
        j = int(j)
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range for k={self.n_cols}")
        return j

    def _check_compatible(self, other: "DistributedMultiVector") -> None:
        if other.cluster is not self.cluster:
            raise ValueError("multi-vectors live on different clusters")
        if not self.partition.is_compatible_with(other.partition):
            raise ValueError(
                "multi-vectors have incompatible partitions: "
                f"{self.partition} vs {other.partition}"
            )
        if other.n_cols != self.n_cols:
            raise ValueError(
                f"multi-vectors have different column counts: "
                f"{self.n_cols} vs {other.n_cols}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DistributedMultiVector(name={self.name!r}, n={self.partition.n}, "
            f"k={self.n_cols}, N={self.partition.n_parts})"
        )


def norms_from_dots(values: np.ndarray) -> np.ndarray:
    """Per-column norms from already-reduced ``x^T x`` values.

    The post-processing :meth:`DistributedMultiVector.norms2` applies after
    its reduction -- NaN propagates per column, tiny negative rounding
    residue is clamped -- factored out so callers that obtained the dot
    values through a fused reduction (:func:`fused_dots`) produce
    bit-identical norms.
    """
    out = np.empty(len(values))
    for j, value in enumerate(values):
        out[j] = (float("nan") if np.isnan(value)
                  else float(np.sqrt(max(value, 0.0))))
    return out


def fused_dots(pairs) -> List[np.ndarray]:
    """Per-column dots of several multi-vector pairs through **one** allreduce.

    ``fused_dots([(x1, y1), ..., (xm, ym)])`` returns the ``m`` per-column
    dot-product vectors that ``[x.dots(y) for x, y in pairs]`` would, but
    ships all ``m * k`` partial sums in a single collective: one allreduce
    message per tree hop instead of ``m`` (the volume is unchanged -- the
    same scalars move, batched).  This is the reduction-fusing lever of the
    ROADMAP ("fuse the trailing reductions"):
    :class:`~repro.core.block_pcg.BlockPCG` with ``fuse_reductions=True``
    uses it to ship ``R^T Z`` and ``R^T R`` together, dropping the
    per-iteration reduction count from 3 to 2.

    Every component is **bit-identical** to the corresponding unfused
    :meth:`DistributedMultiVector.dots` result: ``dots`` itself is a
    single-pair call of this function, so there is exactly one copy of the
    kernel.  Each rank's partial dot of column ``j`` is computed on a
    contiguous stretch of row ``j`` of the ``(k, n)`` transpose of each
    operand, so column ``j`` of a ``k``-column pair gets the partials of
    the ``k = 1`` pair of its columns (:func:`_partial_dots`).  They fill
    one ``(N, m * k)`` partials array, row ``r`` holding rank ``r``'s
    partials, and
    :meth:`~repro.cluster.communicator.Communicator.allreduce_sum` sums its
    rows in rank order, column by column, as the separate calls would.
    Only the ledger differs (fewer allreduce messages / latency terms; the
    local compute charge is the sum of the pairs' individual charges).
    """
    pairs = [(x.as_multivector(), y.as_multivector()) for x, y in pairs]
    if not pairs:
        raise ValueError("fused_dots needs at least one (x, y) pair")
    first = pairs[0][0]
    for x, y in pairs:
        x._check_compatible(y)
        first._check_compatible(x)
    cluster = first.cluster
    partition = first.partition
    k = first.n_cols
    partials = np.empty((partition.n_parts, len(pairs) * k))
    for i, (x, y) in enumerate(pairs):
        mine = x.stacked()
        theirs = y.stacked()
        xs = np.ascontiguousarray(mine.T)
        ys = xs if theirs is mine else np.ascontiguousarray(theirs.T)
        _partial_dots(xs, ys, partition, partials[:, i * k:(i + 1) * k])
    for x, _ in pairs:
        x._charge_block_op(2.0)
    total = cluster.comm.allreduce_sum(partials)
    return [total[i * k:(i + 1) * k].copy() for i in range(len(pairs))]


def _partial_dots(xs: np.ndarray, ys: np.ndarray,
                  partition: BlockRowPartition, out: np.ndarray) -> None:
    """``out[r, j] = xs[j, I_r] . ys[j, I_r]`` for every rank ``r`` and row
    ``j`` of the C-order ``(k, n)`` arrays, bit for bit
    ``xs[j, I_r].dot(ys[j, I_r])``.

    One call per run of equal block size (:attr:`BlockRowPartition.size_runs`)
    instead of one per rank: ``np.matmul`` of a ``(1, m)`` row by an
    ``(m, 1)`` column hands each batch element to NumPy's BLAS dot with the
    pointer, length and stride ``ndarray.dot`` passes for the 1-D stretch.
    ``ndarray.dot`` of one-element vectors is NumPy's scalar product
    instead, which keeps the sign of a zero product, so one-row blocks are
    multiplied.  Tests compare this against the per-rank dots bit for bit.
    """
    k = xs.shape[0]
    for ranks, rows, size in partition.size_runs:
        a, b = xs[:, rows], ys[:, rows]
        if size == 1:
            out[ranks] = (a * b).T
        else:
            a = a.reshape(k, -1, size)[..., None, :]
            b = b.reshape(k, -1, size)[..., :, None]
            out[ranks] = np.matmul(a, b)[..., 0, 0].T
