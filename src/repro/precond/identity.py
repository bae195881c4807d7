"""Identity (no-op) preconditioner: plain CG."""

from __future__ import annotations

import numpy as np

from .base import Preconditioner, PreconditionerForm


class IdentityPreconditioner(Preconditioner):
    """``M = I``: turns PCG into unpreconditioned CG.

    Useful as a baseline and in tests; the ESR reconstruction simplifies
    because ``z = r``: it recovers the residual with no local solve and
    reads no rows of the preconditioner.
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
