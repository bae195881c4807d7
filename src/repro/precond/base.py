"""Preconditioner interface.

The PCG method (Alg. 1) only ever needs the *action* ``z = M^{-1} r`` of the
preconditioner.  The ESR reconstruction, however, needs structural access as
well (Alg. 2 and its variants in [23]): depending on whether ``P = M^{-1}``
or ``M`` itself is explicitly available, a different reconstruction formula
applies.  The interface below therefore exposes

* ``apply`` / ``apply_block`` -- the action, globally or per partition block
  (block-diagonal preconditioners such as (block) Jacobi apply locally with no
  communication, which is why the paper uses them);
* ``form`` -- which representation the reconstruction uses: rows of ``M``
  (``forward_rows``), rows of ``P = M^{-1}`` (``inverse_rows``), or none
  for ``M = I``; a preconditioner implements the accessor its form reads;
* ``work_nnz`` -- an operation count for the cost model.
"""

from __future__ import annotations

import abc
import enum
from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..distributed.partition import BlockRowPartition


class PreconditionerForm(enum.Enum):
    """Which representation of the preconditioner is explicitly available."""

    #: No preconditioning (M = I); reconstruction needs no solve for ``r``.
    IDENTITY = "identity"
    #: ``P = M^{-1}`` is available row-wise (Alg. 2 of the paper).
    INVERSE = "inverse"
    #: ``M`` is available row-wise ([23, Alg. 3]).
    FORWARD = "forward"


class Preconditioner(abc.ABC):
    """Abstract base class of all preconditioners."""

    #: Short identifier used in reports.
    name: str = "preconditioner"

    def __init__(self) -> None:
        self._matrix: Optional[sp.csr_matrix] = None
        self._partition: Optional[BlockRowPartition] = None
        self._max_block_work_nnz: Optional[int] = None
        #: Per rank, the row count of the blocks :meth:`apply_block`
        #: accepts (empty until :meth:`setup` knows the blocks).
        self._block_rows: Tuple[int, ...] = ()

    # -- lifecycle ---------------------------------------------------------
    def setup(self, matrix, partition: Optional[BlockRowPartition] = None) -> None:
        """Prepare the preconditioner for *matrix* (factorisations etc.)."""
        self._matrix = sp.csr_matrix(matrix)
        self._partition = partition
        self._max_block_work_nnz = None
        self._block_rows = ()
        self._setup_impl()
        blocks = self.block_partition
        if blocks is not None:
            self._block_rows = tuple(stop - start
                                     for start, stop in blocks.ranges)

    def _setup_impl(self) -> None:
        """Hook for subclasses; called after the matrix has been stored."""

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            raise RuntimeError(f"{self.name}: setup() has not been called")
        return self._matrix

    @property
    def partition(self) -> Optional[BlockRowPartition]:
        return self._partition

    @property
    def block_partition(self) -> Optional[BlockRowPartition]:
        """The partition whose blocks :meth:`apply_block` applies to: the
        one given to :meth:`setup`."""
        return self._partition

    @property
    def is_set_up(self) -> bool:
        return self._matrix is not None

    # -- action ------------------------------------------------------------
    @abc.abstractmethod
    def apply(self, residual: np.ndarray) -> np.ndarray:
        """Return ``z = M^{-1} r`` for a global residual vector."""

    def apply_block(self, rank: int, residual_block: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to one partition block.

        Only meaningful for block-diagonal preconditioners (the application
        then needs no communication).  The default raises.

        Block-diagonal implementations accept both a single residual block
        of shape ``(n_i,)`` and a 2-D multi-RHS block of shape ``(n_i, k)``
        (one independent application per column), where ``n_i`` is the
        rank's entry of the row tuple :meth:`setup` builds.
        :class:`~repro.core.block_pcg.BlockPCG` calls it once per rank and
        application: with the 1-D path for a single right-hand side, the
        2-D path for ``k`` recurrences.  Column ``j`` of a 2-D application
        must be bit-identical to the 1-D application of column ``j`` alone.

        Implementations test the rank and the block against the row tuple
        inline -- ``0 <= rank < len(rows)``, one or two dimensions and
        ``len(block) == rows[rank]`` -- and raise :meth:`_block_error` when
        a test fails, so a call costs no Python-level call besides its own.
        """
        raise NotImplementedError(
            f"{self.name} is not block-diagonal; apply_block is unavailable"
        )

    def _block_error(self, rank: int, block: np.ndarray) -> Exception:
        """The error for an :meth:`apply_block` call whose rank or block
        does not match the blocks set up."""
        rows = self._block_rows
        if not rows:
            return RuntimeError(
                f"{self.name}: apply_block requires setup() with a partition"
            )
        if not 0 <= rank < len(rows):
            return ValueError(
                f"rank {rank} out of range for a partition into "
                f"{len(rows)} parts"
            )
        return ValueError(
            f"block for rank {rank} must have shape ({rows[rank]},) or "
            f"({rows[rank]}, k), got {block.shape}"
        )

    @property
    def is_block_diagonal(self) -> bool:
        """True if the preconditioner decouples across partition blocks."""
        return False

    # -- cost accounting ------------------------------------------------------
    def work_nnz(self) -> int:
        """Approximate non-zero operations per global application."""
        return int(self.matrix.shape[0])

    def block_work_nnz(self, rank: int) -> int:
        """Approximate non-zero operations to apply the block of *rank*."""
        if self._partition is None:
            return self.work_nnz()
        size = self._partition.size_of(rank)
        return int(round(self.work_nnz() * size / max(self._partition.n, 1)))

    def max_block_work_nnz(self) -> int:
        """Worst-rank ``block_work_nnz`` (cached; static after ``setup``).

        The distributed solvers charge every block-local application with
        the slowest rank's work; since the per-block work never changes
        between ``setup`` calls, the max over ranks is computed once here
        instead of per iteration.
        """
        if self._max_block_work_nnz is None:
            if self._partition is None:
                self._max_block_work_nnz = self.work_nnz()
            else:
                self._max_block_work_nnz = max(
                    self.block_work_nnz(rank)
                    for rank in range(self._partition.n_parts)
                )
        return self._max_block_work_nnz

    # -- ESR structural access --------------------------------------------------
    @property
    def form(self) -> PreconditionerForm:
        """The representation the ESR reconstruction uses: FORWARD reads
        :meth:`forward_rows`, INVERSE reads :meth:`inverse_rows`, and
        IDENTITY reads neither."""
        return PreconditionerForm.FORWARD

    def forward_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows ``M[indices, :]`` of the preconditioner operator."""
        raise NotImplementedError(
            f"{self.name} does not expose rows of M"
        )

    def inverse_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows ``P[indices, :]`` of the inverse operator ``P = M^{-1}``."""
        raise NotImplementedError(
            f"{self.name} does not expose rows of M^-1"
        )

    # -- misc -----------------------------------------------------------------------
    def describe(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()


def as_indices(indices: Iterable[int]) -> np.ndarray:
    """Normalise an index collection to a sorted unique int64 array."""
    return np.unique(np.asarray(list(indices), dtype=np.int64))
