"""Distributed multi-vectors: the one distributed-vector storage.

A :class:`DistributedMultiVector` stores a global ``(n, k)`` dense matrix of
``k`` vectors as one ``(n_i, k)`` NumPy block per node, inside that node's
private memory: when a node fails, its block of every dynamic operand
(``X``, ``R``, ``Z``, ``P``, ``AP``) is genuinely gone and any read raises,
so recovery must rebuild it from redundant copies.  A single vector is the
``k = 1`` case; :class:`~repro.distributed.dvector.DistributedVector` is
only a 1-D face of it (same storage, same kernels -- see
:meth:`DistributedMultiVector.as_multivector`).  The batched ``Y = A X``
kernel of the SpMV engine
(:meth:`~repro.distributed.spmv_engine.SpmvEngine.apply_block`), the block
BLAS-1 operations and the batched reductions below are the only numeric
kernels; :class:`~repro.core.block_pcg.BlockPCG` is the solver built on
them, and :class:`~repro.core.resilient_block_pcg.ResilientBlockPCG` adds
ESR protection (redundant ``(rows, k)`` copies, reconstruction of lost
blocks re-installed through the ``restore_block`` recovery write path).

**Block BLAS-1.**  ``copy``/``fill``/``scale``/``axpy``/``aypx``/``assign``
operate on whole ``(n_i, k)`` blocks; coefficients may be scalars (applied to
every column) or per-column ``(k,)`` vectors (one independent recurrence per
column, which is what the lock-step block-PCG needs).  Every operation is
elementwise, so column ``j`` of the result is bit-identical to the same
operation on column ``j`` alone (a ``k = 1`` multi-vector), and the charge is
the single-vector streaming charge with ``k``-fold element count, mirroring
how the batched SpMV scales.

**Batched reductions.**  :meth:`dots` returns the ``k`` per-column dot
products through **one** allreduce of ``k`` scalars; :meth:`gram` returns
the ``k x k`` block Gram matrix through one allreduce of ``k^2`` scalars.
Either way the collective's message count is that of a single scalar
allreduce -- one message per tree hop -- and only the per-hop volume scales
(see :meth:`~repro.cluster.communicator.Communicator.allreduce_sum`), which
is the latency amortization the paper's cost model (Sec. 4.2) rewards.
:meth:`dots` gathers each column into a contiguous buffer before the local
dot, so its per-column results are bit-identical to the ``k = 1`` dots of
each column.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import Phase
from .blockstore import NodeBlockStore, participating_max_block_size
from .partition import BlockRowPartition

#: Memory key prefix under which multi-vector blocks are stored on each node.
_MVEC_KEY = "mvec"

#: A BLAS-1 coefficient: one scalar for all columns, or one value per column.
Coefficient = Union[float, np.ndarray]


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

    # -- construction -------------------------------------------------------
    @classmethod
    def zeros(cls, cluster: VirtualCluster, partition: BlockRowPartition,
              name: str, n_cols: int) -> "DistributedMultiVector":
        """Create a distributed multi-vector of zeros."""
        mvec = cls(cluster, partition, name, n_cols)
        for rank in range(partition.n_parts):
            mvec.set_block(rank, np.zeros((partition.size_of(rank), n_cols)))
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
        for rank in range(partition.n_parts):
            start, stop = partition.range_of(rank)
            mvec.set_block(rank, values[start:stop].copy())
        return mvec

    @classmethod
    def from_columns(cls, cluster: VirtualCluster, partition: BlockRowPartition,
                     name: str, columns) -> "DistributedMultiVector":
        """Build a multi-vector from ``k`` distributed vectors (not charged)."""
        columns = list(columns)
        if not columns:
            raise ValueError("at least one column vector is required")
        mvec = cls(cluster, partition, name, len(columns))
        for vec in columns:
            if vec.cluster is not cluster:
                raise ValueError("column vector lives on a different cluster")
            if not partition.is_compatible_with(vec.partition):
                raise ValueError("column vector has an incompatible partition")
        for rank in range(partition.n_parts):
            mvec.set_block(rank, np.column_stack(
                [vec.get_block(rank) for vec in columns]
            ))
        return mvec

    # -- block access -------------------------------------------------------
    def _key(self) -> tuple:
        return (_MVEC_KEY, self.name)

    def get_block(self, rank: int) -> np.ndarray:
        """``(n_i, k)`` block of *rank*; raises ``NodeFailedError`` if failed."""
        return self.cluster.node(rank).memory[self._key()]

    def set_block(self, rank: int, values: np.ndarray) -> None:
        """Overwrite the block owned by *rank*."""
        values = np.asarray(values, dtype=np.float64)
        expected = (self.partition.size_of(rank), self.n_cols)
        if values.shape != expected:
            raise ValueError(
                f"block for rank {rank} must have shape {expected}, "
                f"got {values.shape}"
            )
        self.cluster.node(rank).memory[self._key()] = values

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
        """Assemble the global ``(n, k)`` array on the driver (not charged)."""
        return self.as_multivector()._assemble(
            lambda block: block, (self.n_cols,),
            allow_missing=allow_missing, fill_value=fill_value)

    def column(self, j: int) -> np.ndarray:
        """Global column *j* assembled on the driver (verification helper).

        Gathers only column *j* of each block -- the full ``(n, k)`` global
        matrix is never materialised.
        """
        j = self._check_column(j)
        return self.as_multivector()._assemble(lambda block: block[:, j], ())

    # ``has_block`` / ``available_ranks`` / ``lost_ranks`` / ``delete`` and
    # the recovery write path ``restore_block`` (defensive-copy writes of
    # reconstructed ``(n_i, k)`` blocks onto replacement nodes) come from
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
                         phase: str = Phase.VECTOR_COMPUTE,
                         n_rows: Optional[int] = None) -> None:
        """Charge one streaming block op: single-vector charge, ``k``-fold size."""
        model = self.cluster.ledger.model
        if n_rows is None:
            n_rows = self.partition.max_block_size()
        self.cluster.ledger.add_time(
            phase,
            model.vector_op_time(n_rows * self.n_cols, flops_per_element),
        )

    def copy(self, name: str) -> "DistributedMultiVector":
        """Deep copy under a new name (charged as a streaming block op)."""
        out = type(self)(self.cluster, self.partition, name, self.n_cols)
        src, dst = self.as_multivector(), out.as_multivector()
        for rank in range(self.partition.n_parts):
            dst.set_block(rank, src.get_block(rank).copy())
        self._charge_block_op(1.0)
        return out

    def fill(self, value: float) -> "DistributedMultiVector":
        """Set every element (all columns) to *value*."""
        mine = self.as_multivector()
        for rank in range(self.partition.n_parts):
            mine.get_block(rank)[:] = value
        self._charge_block_op(1.0)
        return self

    def scale(self, alpha: Coefficient) -> "DistributedMultiVector":
        """In-place ``self *= alpha`` (scalar or per-column)."""
        alpha = self._coefficient(alpha)
        mine = self.as_multivector()
        for rank in range(self.partition.n_parts):
            mine.get_block(rank)[:] *= alpha
        self._charge_block_op(1.0)
        return self

    def axpy(self, alpha: Coefficient,
             x: "DistributedMultiVector") -> "DistributedMultiVector":
        """In-place ``self[:, j] += alpha_j * x[:, j]`` (scalar or per-column)."""
        self._check_compatible(x)
        alpha = self._coefficient(alpha)
        mine, theirs = self.as_multivector(), x.as_multivector()
        for rank in range(self.partition.n_parts):
            mine.get_block(rank)[:] += alpha * theirs.get_block(rank)
        self._charge_block_op(2.0)
        return self

    def aypx(self, alpha: Coefficient,
             x: "DistributedMultiVector") -> "DistributedMultiVector":
        """In-place ``self[:, j] = x[:, j] + alpha_j * self[:, j]``.

        The block-PCG search-direction update ``P = Z + P diag(beta)``.
        """
        self._check_compatible(x)
        alpha = self._coefficient(alpha)
        mine, theirs = self.as_multivector(), x.as_multivector()
        for rank in range(self.partition.n_parts):
            block = mine.get_block(rank)
            block[:] = theirs.get_block(rank) + alpha * block
        self._charge_block_op(2.0)
        return self

    def assign(self, other: "DistributedMultiVector") -> "DistributedMultiVector":
        """In-place copy of *other*'s values into this multi-vector."""
        self._check_compatible(other)
        mine, theirs = self.as_multivector(), other.as_multivector()
        for rank in range(self.partition.n_parts):
            mine.get_block(rank)[:] = theirs.get_block(rank)
        self._charge_block_op(1.0)
        return self

    # -- batched reductions --------------------------------------------------
    def dots(self, other: "DistributedMultiVector", *,
             alive_only: bool = False) -> np.ndarray:
        """The ``k`` per-column dot products through **one** batched allreduce.

        Column ``j`` of the result is bit-identical to the ``k = 1`` dot of
        the ``j``-th columns (each column is gathered into a contiguous
        buffer before the local dot, so the same BLAS kernel runs on the
        same data), and the per-rank partial sums are reduced in the same
        rank order.  The collective ships all ``k``
        partial dots in one payload: message count of a scalar allreduce,
        ``k``-fold volume (cf. Sec. 4.2's latency-dominated reductions).
        """
        return fused_dots([(self, other)], alive_only=alive_only)[0]

    def gram(self, other: "DistributedMultiVector", *,
             alive_only: bool = False) -> np.ndarray:
        """The ``k x k`` block Gram matrix ``self^T other`` in one allreduce.

        Each rank contributes its local ``(k, k)`` product; the collective
        ships ``k^2`` scalars in one payload per tree hop.  This is the
        reduction genuine block-Krylov recurrences (block-CG with coupled
        columns) consume; :class:`~repro.core.block_pcg.BlockPCG` only needs
        the diagonal (see :meth:`dots`).  The local products use a dense
        GEMM, so the diagonal may differ from :meth:`dots` in the last bits.
        """
        self._check_compatible(other)
        mine, theirs = self.as_multivector(), other.as_multivector()
        contributions: Dict[int, np.ndarray] = {}
        for rank in range(self.partition.n_parts):
            node = self.cluster.node(rank)
            if alive_only and not node.is_alive:
                continue
            contributions[rank] = mine.get_block(rank).T @ theirs.get_block(rank)
        # 2k flops per stored element: each of the k^2 entries is a length
        # n_i dot, i.e. the streaming charge of k passes over the block.
        self._charge_block_op(2.0 * self.n_cols,
                              n_rows=participating_max_block_size(
                                  self.partition, contributions)
                              if alive_only else None)
        total = self.cluster.comm.allreduce_sum(contributions,
                                                alive_only=alive_only)
        return np.asarray(total, dtype=np.float64)

    def norms2(self, *, alive_only: bool = False) -> np.ndarray:
        """Per-column Euclidean norms (one batched allreduce via :meth:`dots`).

        A NaN reduction (corrupted or lost data) propagates as that column's
        NaN norm -- clamping it to ``0.0`` would silently read as
        "converged"; only tiny negative rounding residue is clamped.
        """
        return norms_from_dots(self.dots(self, alive_only=alive_only))

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


def fused_dots(pairs, *, alive_only: bool = False) -> List[np.ndarray]:
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
    :meth:`DistributedMultiVector.dots` result: the local partial dots are
    computed by the same kernel on the same buffers (``dots`` itself is a
    single-pair call of this function, so there is exactly one copy of the
    kernel), and
    :meth:`~repro.cluster.communicator.Communicator.allreduce_sum`
    accumulates the concatenated payload elementwise in the same rank order
    as the separate calls.  Only the ledger differs (fewer allreduce
    messages / latency terms; the local compute charge is the sum of the
    pairs' individual charges).
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
    contributions: Dict[int, np.ndarray] = {}
    for rank in range(partition.n_parts):
        if alive_only and not cluster.node(rank).is_alive:
            continue
        row = partials[rank]
        for i, (x, y) in enumerate(pairs):
            # Each column is one contiguous 1-D dot on identical data.
            mine = np.ascontiguousarray(x.get_block(rank).T)
            theirs = (mine if y is x
                      else np.ascontiguousarray(y.get_block(rank).T))
            for j in range(k):
                row[i * k + j] = mine[j] @ theirs[j]
        contributions[rank] = row
    n_rows = (participating_max_block_size(partition, contributions)
              if alive_only else None)
    for x, _ in pairs:
        x._charge_block_op(2.0, n_rows=n_rows)
    total = np.asarray(
        cluster.comm.allreduce_sum(contributions, alive_only=alive_only),
        dtype=np.float64,
    )
    return [total[i * k:(i + 1) * k].copy() for i in range(len(pairs))]
