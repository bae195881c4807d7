"""Block Jacobi preconditioner.

This is the preconditioner used in the paper's experiments (Sec. 6): the
preconditioner matrix is the block-diagonal part of ``A`` defined by the
partition given to :meth:`~BlockJacobiPreconditioner.setup` (the node
partition; without one the whole matrix is one block),
``M = blkdiag(A_{I_1,I_1}, ..., A_{I_N,I_N})``, and each block is solved
either exactly (the paper's choice during regular solver operation) or
approximately via a threshold ILU with the fixed :data:`ILU_DROP_TOL` and
:data:`ILU_FILL_FACTOR` (the paper's inner preconditioner for the
reconstruction subsystem, which
:class:`~repro.solvers.local_solver.LocalSubsystemSolver` builds from this
class).  With an ILU block solve the operator applied is the factorization's
product ``L U``, up to its permutations, and that product is the ``M`` whose
rows the ESR reconstruction reads.

An exact block solve runs one of two host kernels, chosen by the block's
row count alone:

* a block of at most :data:`DENSE_INVERSE_MAX_ROWS` rows applies its stored
  explicit inverse, one BLAS ``gemv`` per application.  The inverses are
  built at set-up with one batched :func:`numpy.linalg.inv` per run of equal
  block size (:attr:`BlockRowPartition.size_runs`), and each rank keeps its
  slice of that stack;
* a larger block keeps a SuperLU factorization and applies its triangular
  solves.

The two agree to rounding (the tests compare the inverse against a SuperLU
oracle at 1e-12 relative).  Either way the simulated charge is the paper's
sparse block solve: :meth:`~BlockJacobiPreconditioner.block_work_nnz` is
``nnz(A_ii)``, whichever kernel the host runs.

Being block-diagonal with respect to the partition, applying it requires no
communication, and its rows ``M_{I_f, I}`` vanish outside the failed blocks --
which is what makes the ESR reconstruction of the residual cheap.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from ..distributed.partition import BlockRowPartition
from .base import Preconditioner, PreconditionerForm, as_indices

#: Supported inner solvers for the diagonal blocks.
BLOCK_SOLVERS = ("direct", "ilu")

#: Largest diagonal block, in rows, whose exact solve applies a stored dense
#: inverse instead of SuperLU.  Measured with BLAS on one thread (2-vCPU
#: x86-64 host), one block of the middle rank, best of 5 x 2000 calls:
#:
#: * per call, dense ``inv @ b`` time over ``SuperLU.solve`` time is
#:   0.25-0.30 at m = 32-64, 0.42 at m = 125-128, 0.75-0.79 at m = 250-288
#:   and 1.44 at m = 500 for ``poisson_2d`` blocks; 0.20-0.24, 0.21-0.27,
#:   0.29-0.41 and 0.50-1.24 at the same sizes for M1/M3/M8 (n = 8000);
#: * set-up of all blocks, ``splu`` against one batched inverse:
#:   ``poisson_2d(64)`` 12.9 against 4.2 ms at m = 32, 4.7 against 23.6 ms
#:   at m = 128 and 4.9 against 74.2 ms at m = 256; M3 22.1 against 16.2 ms
#:   at m = 62 and 12.1 against 109.3 ms at m = 250.
#:
#: Inversion costs about m^3 per block and an inverse holds m doubles per
#: row, so above 128 rows the set-up time and memory outgrow the cheaper
#: applications: at m <= 128 the extra set-up is repaid within about one
#: solve, and each application is 2.4-5x cheaper.
DENSE_INVERSE_MAX_ROWS = 128

#: Drop tolerance and fill-factor bound of every ILU block solve.  With
#: natural ordering and no diagonal pivoting they let the reconstruction's
#: inner PCG reach its 1e-14 reduction in a handful of iterations.
ILU_DROP_TOL = 1e-4
ILU_FILL_FACTOR = 10.0


class FactorizationError(RuntimeError):
    """Raised at set-up when a block solve meets an exactly singular
    diagonal block: an exact solve (on either kernel) or an ILU."""


class BlockJacobiPreconditioner(Preconditioner):
    """Block Jacobi preconditioner over a block-row partition.

    The diagonal blocks are the parts of the partition given to
    :meth:`setup` (the node subdomains, as in the paper); without a
    partition the matrix is one block.

    Parameters
    ----------
    block_solver:
        ``"direct"`` (exact solves: a stored dense inverse for blocks of
        at most :data:`DENSE_INVERSE_MAX_ROWS` rows, sparse LU above),
        or ``"ilu"`` (threshold ILU via :func:`scipy.sparse.linalg.spilu`,
        which keeps fill-in up to :data:`ILU_DROP_TOL` and
        :data:`ILU_FILL_FACTOR`).

    Raises
    ------
    FactorizationError
        From :meth:`setup`, naming the rank, when an exact solve (on either
        kernel) or the ILU meets an exactly singular diagonal block.
    """

    name = "block_jacobi"

    def __init__(self, *, block_solver: str = "direct") -> None:
        super().__init__()
        if block_solver not in BLOCK_SOLVERS:
            raise ValueError(
                f"block_solver must be one of {BLOCK_SOLVERS}, got {block_solver!r}"
            )
        self.block_solver = block_solver
        #: Per rank, ``A_{I_i,I_i}``: CSR for an exact block solve, whose
        #: rows the dense kernel and the reconstruction read; an ILU block
        #: keeps the CSC it was factored from, read only for its ``nnz``.
        self._blocks: Dict[int, sp.spmatrix] = {}
        self._solvers: Dict[int, Callable[[np.ndarray], np.ndarray]] = {}
        #: Per rank whose exact block solve runs the dense kernel, its
        #: ``A_ii^{-1}``: a slice of one stacked inverse per size run.
        self._inverses: Dict[int, np.ndarray] = {}
        #: Per rank, the ILU object (``"ilu"`` only).
        self._factors: Dict[int, Any] = {}
        #: Per rank, the operator an ILU block solve applies, built on
        #: the first recovery that reads its rows.
        self._operators: Dict[int, sp.csr_matrix] = {}
        self._block_partition: Optional[BlockRowPartition] = None

    # -- setup ----------------------------------------------------------------
    def _setup_impl(self) -> None:
        block_partition = self.partition
        if block_partition is None:
            block_partition = BlockRowPartition(self.matrix.shape[0], 1)
        self._block_partition = block_partition
        self._blocks.clear()
        self._solvers.clear()
        self._factors.clear()
        self._operators.clear()
        self._inverses.clear()
        direct = self.block_solver == "direct"
        for rank in range(block_partition.n_parts):
            start, stop = block_partition.range_of(rank)
            block = self.matrix[start:stop, start:stop].tocsc()
            self._blocks[rank] = block.tocsr() if direct else block
            if not (direct and stop - start <= DENSE_INVERSE_MAX_ROWS):
                self._solvers[rank] = self._make_solver(rank, block)
        if direct:
            self._invert_small_blocks(block_partition)

    def _invert_small_blocks(self, partition: BlockRowPartition) -> None:
        """Give every block of at most :data:`DENSE_INVERSE_MAX_ROWS` rows
        its dense kernel: one batched :func:`numpy.linalg.inv` per run of
        equal block size, and each rank applies its slice of the stack."""
        for ranks, _, size in partition.size_runs:
            if size > DENSE_INVERSE_MAX_ROWS:
                continue
            owners = range(*ranks.indices(partition.n_parts))
            stack = np.stack([self._blocks[rank].toarray() for rank in owners])
            try:
                inverses = np.linalg.inv(stack)
            except np.linalg.LinAlgError:
                # The batched call does not say which block failed.
                for rank, block in zip(owners, stack):
                    try:
                        np.linalg.inv(block)
                    except np.linalg.LinAlgError:
                        raise self._singular_block(rank) from None
                raise
            for rank, inverse in zip(owners, inverses):
                self._inverses[rank] = inverse
                self._solvers[rank] = inverse.dot

    def _singular_block(self, rank: int, solve: str = "exact block solve"
                        ) -> FactorizationError:
        return FactorizationError(
            f"{self.name}: the diagonal block of rank {rank} is exactly "
            f"singular, so it has no {solve}")

    def _make_solver(self, rank: int, block: sp.csc_matrix
                     ) -> Callable[[np.ndarray], np.ndarray]:
        if self.block_solver == "direct":
            try:
                lu = splu(block)
            except RuntimeError:  # SuperLU: "Factor is exactly singular"
                raise self._singular_block(rank) from None
            return lu.solve
        # Natural ordering and no diagonal pivoting keep the factors close
        # to symmetric, as CG needs.
        try:
            ilu = spilu(block, drop_tol=ILU_DROP_TOL,
                        fill_factor=ILU_FILL_FACTOR,
                        permc_spec="NATURAL", diag_pivot_thresh=0.0)
        except RuntimeError:  # SuperLU: "matrix is singular"
            raise self._singular_block(rank, "ILU factorization") from None
        self._factors[rank] = ilu
        return ilu.solve

    def _applied_block(self, rank: int) -> sp.csr_matrix:
        """The operator ``M_i`` whose inverse the block solve of *rank*
        applies: ``A_{I_i,I_i}`` itself for exact solves, and
        ``Pr^T L U Pc^T`` for ILU (``Pr A Pc ~= L U``)."""
        if self.block_solver == "direct":
            return self._blocks[rank]
        operator = self._operators.get(rank)
        if operator is None:
            factor = self._factors[rank]
            shape = factor.shape
            ones, order = np.ones(shape[0]), np.arange(shape[0])
            pr = sp.csr_matrix((ones, (factor.perm_r, order)), shape=shape)
            pc = sp.csr_matrix((ones, (order, factor.perm_c)), shape=shape)
            operator = sp.csr_matrix(pr.T @ (factor.L @ factor.U) @ pc.T)
            operator.sort_indices()
            self._operators[rank] = operator
        return operator

    @property
    def block_partition(self) -> BlockRowPartition:
        if self._block_partition is None:
            raise RuntimeError("setup() has not been called")
        return self._block_partition

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
        """Rows of the applied ``M = blkdiag(M_i)`` at the given global
        indices (``M_i = A_{I_i,I_i}`` for exact block solves).

        The rows come back in sorted index order.  Each owning rank
        contributes one row slice of its block operator, with the columns
        shifted by the rank's first global index, and the slices are
        assembled into one CSR matrix: the Python-level work is per owning
        rank, not per row.
        """
        data, columns, lengths = [], [], []
        for rank, start, local in self._rows_by_rank(indices):
            rows = self._applied_block(rank)[local]
            data.append(rows.data)
            columns.append(rows.indices + start)
            lengths.append(np.diff(rows.indptr))
        return self._assemble(data, columns, lengths)
