"""Distributed vectors: the one-column view of a distributed multi-vector.

A :class:`DistributedVector` is a
:class:`~repro.distributed.dmultivector.DistributedMultiVector` fixed at
``n_cols = 1``.  Its rows are the ``(n, 1)`` array stored under the
multi-vector key of its name, and each node's private
:class:`~repro.cluster.node.NodeMemory` holds its ``(n_i, 1)`` view, so a
failed node's rows are genuinely gone and recovery must rebuild them.  The
vector and :meth:`as_multivector` are two handles on that one storage:
every kernel -- BLAS-1, the batched reductions, the SpMV engine, ESR staging
and reconstruction -- runs on the 2-D storage, and a recovery that restores
the multi-vector's blocks has restored the vector.

What the class adds is the 1-D face: ``(n,)`` global arrays in
:meth:`from_global`/:meth:`to_global`, ``(n_i,)`` zero-copy views from
:meth:`get_block`, and scalar :meth:`dot`/:meth:`norm2`.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import VirtualCluster
from .dmultivector import DistributedMultiVector
from .partition import BlockRowPartition


class DistributedVector(DistributedMultiVector):
    """A block-row distributed vector (a ``k = 1`` multi-vector seen in 1-D)."""

    def __init__(self, cluster: VirtualCluster, partition: BlockRowPartition,
                 name: str, n_cols: int = 1):
        if n_cols != 1:
            raise ValueError(f"a distributed vector has one column, got {n_cols}")
        super().__init__(cluster, partition, name, 1)

    # -- construction -------------------------------------------------------
    @classmethod
    def zeros(cls, cluster: VirtualCluster, partition: BlockRowPartition,
              name: str) -> "DistributedVector":
        """Create a distributed vector of zeros."""
        return super().zeros(cluster, partition, name, 1)

    @classmethod
    def from_global(cls, cluster: VirtualCluster, partition: BlockRowPartition,
                    name: str, values: np.ndarray) -> "DistributedVector":
        """Distribute a global ``(n,)`` array (setup phase, not charged)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (partition.n,):
            raise ValueError(
                f"expected a vector of length {partition.n}, got shape {values.shape}"
            )
        return super().from_global(cluster, partition, name, values[:, None])

    # -- the 1-D face -------------------------------------------------------
    def as_multivector(self) -> DistributedMultiVector:
        """The plain ``k = 1`` multi-vector over this vector's storage."""
        return DistributedMultiVector(self.cluster, self.partition, self.name, 1)

    def get_block(self, rank: int) -> np.ndarray:
        """``(n_i,)`` view of *rank*'s block; raises ``NodeFailedError`` if
        that node failed."""
        return super().get_block(rank)[:, 0]

    def set_block(self, rank: int, values: np.ndarray) -> None:
        """Overwrite *rank*'s block with an ``(n_i,)`` or ``(n_i, 1)`` array."""
        values = np.asarray(values, dtype=np.float64)
        super().set_block(rank, values[:, None] if values.ndim == 1 else values)

    def to_global(self, *, allow_missing: bool = False,
                  fill_value: float = np.nan) -> np.ndarray:
        """Assemble the global ``(n,)`` vector on the driver (not charged)."""
        return super().to_global(allow_missing=allow_missing,
                                 fill_value=fill_value)[:, 0]

    def dot(self, other: DistributedMultiVector) -> float:
        """Global dot product: column 0 of :meth:`dots`."""
        return float(self.dots(other)[0])

    def norm2(self) -> float:
        """Euclidean norm: column 0 of :meth:`norms2` (NaN propagates)."""
        return float(self.norms2()[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DistributedVector(name={self.name!r}, n={self.partition.n}, "
            f"N={self.partition.n_parts})"
        )
