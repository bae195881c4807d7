"""Block Jacobi preconditioner.

This is the preconditioner used in the paper's experiments (Sec. 6): the
preconditioner matrix is the block-diagonal part of ``A`` defined by the node
partition, ``M = blkdiag(A_{I_1,I_1}, ..., A_{I_N,I_N})``, and each block is
solved either exactly (sparse LU, the paper's choice during regular solver
operation) or approximately via ILU(0)/IC(0) (the paper's choice for the
reconstruction subsystem).

Being block-diagonal with respect to the partition, applying it requires no
communication, and its rows ``M_{I_f, I}`` vanish outside the failed blocks --
which is what makes the ESR reconstruction of the residual cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from ..distributed.partition import BlockRowPartition
from .base import Preconditioner, PreconditionerForm, as_indices
from .ichol import ic0, ic0_solve

#: Supported inner solvers for the diagonal blocks.
BLOCK_SOLVERS = ("direct", "ilu", "ic")


class BlockJacobiPreconditioner(Preconditioner):
    """Block Jacobi preconditioner over a block-row partition.

    Parameters
    ----------
    n_blocks:
        Number of diagonal blocks.  If a partition is supplied at
        :meth:`setup`, that partition's block count takes precedence (the
        blocks then coincide with the node subdomains, as in the paper).
    block_solver:
        ``"direct"`` (sparse LU, exact solves), ``"ilu"`` (ILU(0) via
        :func:`scipy.sparse.linalg.spilu` with zero fill), or ``"ic"``
        (incomplete Cholesky IC(0)).
    drop_tol:
        Drop tolerance forwarded to ILU (ignored otherwise).
    """

    name = "block_jacobi"

    def __init__(self, n_blocks: Optional[int] = None, *,
                 block_solver: str = "direct", drop_tol: float = 1e-4,
                 fill_factor: float = 10.0) -> None:
        super().__init__()
        if block_solver not in BLOCK_SOLVERS:
            raise ValueError(
                f"block_solver must be one of {BLOCK_SOLVERS}, got {block_solver!r}"
            )
        self.requested_blocks = n_blocks
        self.block_solver = block_solver
        self.drop_tol = drop_tol
        self.fill_factor = fill_factor
        self._blocks: Dict[int, sp.csr_matrix] = {}
        self._solvers: Dict[int, Callable[[np.ndarray], np.ndarray]] = {}
        self._block_partition: Optional[BlockRowPartition] = None

    # -- setup ----------------------------------------------------------------
    def _setup_impl(self) -> None:
        n = self.matrix.shape[0]
        if self.partition is not None:
            block_partition = self.partition
        else:
            n_blocks = self.requested_blocks or max(1, min(16, n // 64))
            block_partition = BlockRowPartition(n, n_blocks)
        self._block_partition = block_partition
        self._blocks.clear()
        self._solvers.clear()
        for rank in range(block_partition.n_parts):
            start, stop = block_partition.range_of(rank)
            block = self.matrix[start:stop, start:stop].tocsc()
            self._blocks[rank] = block.tocsr()
            self._solvers[rank] = self._make_solver(block)

    def _make_solver(self, block: sp.csc_matrix
                     ) -> Callable[[np.ndarray], np.ndarray]:
        if self.block_solver == "direct":
            lu = splu(block)
            return lu.solve
        if self.block_solver == "ilu":
            ilu = spilu(block, drop_tol=self.drop_tol,
                        fill_factor=self.fill_factor,
                        permc_spec="NATURAL", diag_pivot_thresh=0.0)
            return ilu.solve
        factor = ic0(block)
        return lambda rhs: ic0_solve(factor, rhs)

    @property
    def block_partition(self) -> BlockRowPartition:
        if self._block_partition is None:
            raise RuntimeError("setup() has not been called")
        return self._block_partition

    def diagonal_block(self, rank: int) -> sp.csr_matrix:
        """The block ``A_{I_i, I_i}`` this preconditioner uses for *rank*."""
        return self._blocks[rank]

    # -- action -------------------------------------------------------------------
    def apply(self, residual: np.ndarray) -> np.ndarray:
        out = np.empty_like(residual, dtype=np.float64)
        for rank in range(self.block_partition.n_parts):
            start, stop = self.block_partition.range_of(rank)
            out[start:stop] = self._solvers[rank](residual[start:stop])
        return out

    def apply_block(self, rank: int, residual_block: np.ndarray) -> np.ndarray:
        block = np.asarray(residual_block, dtype=np.float64)
        rows = self._block_rows
        if not (0 <= rank < len(rows) and 0 < block.ndim < 3
                and len(block) == rows[rank]):
            raise self._block_error(rank, block)
        solve = self._solvers[rank]
        if block.ndim == 1:
            return solve(block)
        # Multi-RHS block: one inner solve per contiguous column
        # (bit-identical per column to the 1-D path; a multi-RHS sparse-LU
        # solve could round differently).
        out = np.empty_like(block)
        for j in range(block.shape[1]):
            out[:, j] = solve(np.ascontiguousarray(block[:, j]))
        return out

    @property
    def is_block_diagonal(self) -> bool:
        return True

    # -- cost accounting -------------------------------------------------------------
    def work_nnz(self) -> int:
        return int(sum(block.nnz for block in self._blocks.values()))

    def block_work_nnz(self, rank: int) -> int:
        return int(self._blocks[rank].nnz)

    # -- ESR structural access -----------------------------------------------------------
    @property
    def form(self) -> PreconditionerForm:
        return PreconditionerForm.FORWARD

    def _rows_by_rank(self, indices) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(rank, start, local_rows)`` for each rank owning some of
        *indices*, in rank order.

        The indices are sorted and deduplicated (:func:`as_indices`), so
        the ranks' local rows, taken in rank order, list them in order.
        """
        idx = as_indices(indices)
        partition = self.block_partition
        ranks, firsts = np.unique(partition.owner_of(idx), return_index=True)
        bounds = np.append(firsts, idx.size).tolist()
        for rank, lo, hi in zip(ranks.tolist(), bounds[:-1], bounds[1:]):
            start = partition.ranges[rank][0]
            yield rank, start, idx[lo:hi] - start

    def _assemble(self, data: List[np.ndarray], columns: List[np.ndarray],
                  row_lengths: List[np.ndarray]) -> sp.csr_matrix:
        """One ``(rows, n)`` CSR matrix from per-rank row pieces."""
        n = self.matrix.shape[0]
        if not data:
            return sp.csr_matrix((0, n))
        lengths = np.concatenate(row_lengths)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        return sp.csr_matrix(
            (np.concatenate(data), np.concatenate(columns), indptr),
            shape=(lengths.size, n),
        )

    def forward_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows of ``M = blkdiag(A_{I_i,I_i})`` at the given global indices.

        The rows come back in sorted index order.  Each owning rank
        contributes one row slice of its diagonal block, with the columns
        shifted by the rank's first global index, and the slices are
        assembled into one CSR matrix: the Python-level work is per owning
        rank, not per row.

        With inexact inner solves (ILU/IC) the operator actually applied is
        only an approximation of this ``M``; the reconstruction is then
        approximate as well, consistent with the finite-precision discussion
        in Sec. 6 of the paper.
        """
        data, columns, lengths = [], [], []
        for rank, start, local in self._rows_by_rank(indices):
            rows = self._blocks[rank][local]
            data.append(rows.data)
            columns.append(rows.indices + start)
            lengths.append(np.diff(rows.indptr))
        return self._assemble(data, columns, lengths)

    def inverse_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        """Rows of ``P = M^{-1}`` (one dense block inverse per owning rank).

        The rows come back in sorted index order, each stored densely over
        its rank's columns.  Only practical for moderate block sizes; the
        resilient solver prefers the FORWARD form, this method mainly
        supports testing the INVERSE reconstruction path (Alg. 2 verbatim).
        """
        data, columns, lengths = [], [], []
        for rank, start, local in self._rows_by_rank(indices):
            inv = np.linalg.inv(self._blocks[rank].toarray())
            size = inv.shape[1]
            data.append(inv[local].ravel())
            columns.append(np.tile(np.arange(start, start + size), local.size))
            lengths.append(np.full(local.size, size))
        return self._assemble(data, columns, lengths)
