"""Point Jacobi (diagonal) preconditioner."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import Preconditioner, PreconditionerForm, as_indices


class JacobiPreconditioner(Preconditioner):
    """``M = diag(A)``: the simplest preconditioner.

    It is block-diagonal for every partition (each element only needs its own
    diagonal entry), so its application is embarrassingly parallel; rows of
    ``P = M^{-1}`` are trivially available, and the reconstruction reads
    them (the INVERSE form).
    """

    name = "jacobi"

    def __init__(self) -> None:
        super().__init__()
        self._inv_diag: np.ndarray | None = None

    def _setup_impl(self) -> None:
        diag = self.matrix.diagonal().astype(np.float64)
        if np.any(diag == 0.0):
            raise ValueError(
                "Jacobi preconditioner requires a zero-free diagonal"
            )
        self._inv_diag = 1.0 / diag

    # -- action -----------------------------------------------------------
    def apply(self, residual: np.ndarray) -> np.ndarray:
        return residual * self._inv_diag

    def apply_block(self, rank: int, residual_block: np.ndarray) -> np.ndarray:
        block = np.asarray(residual_block, dtype=np.float64)
        rows = self._block_rows
        if not (0 <= rank < len(rows) and 0 < block.ndim < 3
                and len(block) == rows[rank]):
            raise self._block_error(rank, block)
        start, stop = self._partition.ranges[rank]
        inv = self._inv_diag[start:stop]
        if block.ndim == 1:
            return block * inv
        # Multi-RHS block: scale every column elementwise (bit-identical per
        # column to the 1-D path).
        return block * inv[:, None]

    @property
    def is_block_diagonal(self) -> bool:
        return True

    def work_nnz(self) -> int:
        return int(self.matrix.shape[0])

    # -- ESR structural access ------------------------------------------------
    @property
    def form(self) -> PreconditionerForm:
        return PreconditionerForm.INVERSE

    def inverse_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        idx = as_indices(indices)
        n = self.matrix.shape[0]
        return sp.csr_matrix(
            (self._inv_diag[idx], (np.arange(idx.size), idx)), shape=(idx.size, n)
        )
