"""Identity (no-op) preconditioner: plain CG."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import Preconditioner, PreconditionerForm, as_indices


class IdentityPreconditioner(Preconditioner):
    """``M = I``: turns PCG into unpreconditioned CG.

    Useful as a baseline and in tests; the ESR reconstruction simplifies
    because ``z = r`` (no local solve is needed to recover the residual).
    """

    name = "identity"

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return np.array(residual, dtype=np.float64, copy=True)

    def apply_block(self, rank: int, residual_block: np.ndarray) -> np.ndarray:
        block = np.array(residual_block, dtype=np.float64, copy=True)
        rows = self._block_rows
        if not (0 <= rank < len(rows) and 0 < block.ndim < 3
                and len(block) == rows[rank]):
            raise self._block_error(rank, block)
        return block

    @property
    def is_block_diagonal(self) -> bool:
        return True

    @property
    def form(self) -> PreconditionerForm:
        return PreconditionerForm.IDENTITY

    def work_nnz(self) -> int:
        return int(self.matrix.shape[0]) if self.is_set_up else 0

    def forward_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        idx = as_indices(indices)
        n = self.matrix.shape[0]
        return sp.csr_matrix(
            (np.ones(idx.size), (np.arange(idx.size), idx)), shape=(idx.size, n)
        )

    def inverse_rows(self, indices: np.ndarray) -> sp.csr_matrix:
        return self.forward_rows(indices)

    def split_factor(self) -> sp.csr_matrix:
        return sp.identity(self.matrix.shape[0], format="csr")
