"""Interpolation/restart recovery baselines (Langou et al.; Agullo et al.).

These heuristics (Sec. 1.2) do not keep any redundant dynamic data.  After a
failure, only the surviving parts of the iterate ``x`` are available; the lost
block is *approximated* and the Krylov iteration is restarted from the patched
iterate:

* ``local_interpolation`` (LI, Langou et al. 2007): solve the local system
  ``A_{I_f,I_f} x_{I_f} = b_{I_f} - A_{I_f,I\\I_f} x_{I\\I_f}`` on the
  replacement nodes.
* ``least_squares_interpolation`` (LSI, Agullo et al. 2016): use *all* rows of
  ``A`` that reference the lost unknowns and solve the corresponding normal
  equations ``A_{:,I_f}^T A_{:,I_f} x_{I_f} = A_{:,I_f}^T (b - A_{:,I\\I_f}
  x_{I\\I_f})``, which guarantees a non-increasing error norm at the price of
  substantially more communication.

Unlike ESR, the restarted PCG loses the built-up Krylov subspace, so extra
iterations are usually needed after recovery -- this is exactly the trade-off
the ESR papers quantify.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np
import scipy.sparse as sp

from ..cluster.cost_model import Phase
from ..core.block_pcg import BlockPCG
from ..core.reconstruction import charge_reverse_scatter
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..precond.base import Preconditioner
from ..solvers.local_solver import LocalSubsystemSolver
from .recovery_base import BaselineRecoveryMixin

#: Supported interpolation variants.
INTERPOLATION_METHODS = ("li", "lsi")


def local_interpolation(matrix: sp.csr_matrix, rhs: np.ndarray,
                        x_global: np.ndarray, failed_indices: np.ndarray
                        ) -> np.ndarray:
    """Langou-style local interpolation of the lost iterate entries.

    Parameters
    ----------
    matrix, rhs:
        The global system (static data, available from reliable storage).
    x_global:
        The iterate with surviving entries in place; the entries at
        ``failed_indices`` are ignored.
    failed_indices:
        Global indices of the lost entries ``I_f``.
    """
    a = sp.csr_matrix(matrix)
    x_masked = np.array(x_global, copy=True)
    x_masked[failed_indices] = 0.0
    rows = a[failed_indices, :]
    rhs_local = rhs[failed_indices] - rows @ x_masked
    a_sub = rows[:, failed_indices]
    return LocalSubsystemSolver("direct").solve(a_sub, rhs_local)


def least_squares_interpolation(matrix: sp.csr_matrix, rhs: np.ndarray,
                                x_global: np.ndarray,
                                failed_indices: np.ndarray) -> np.ndarray:
    """Agullo-style least-squares interpolation of the lost iterate entries."""
    a = sp.csr_matrix(matrix)
    x_masked = np.array(x_global, copy=True)
    x_masked[failed_indices] = 0.0
    cols = a[:, failed_indices].tocsc()
    residual_without = rhs - a @ x_masked
    normal_matrix = (cols.T @ cols).tocsr()
    normal_rhs = cols.T @ residual_without
    return LocalSubsystemSolver("direct").solve(normal_matrix, normal_rhs)


class InterpolationRecoveryPCG(BaselineRecoveryMixin, BlockPCG):
    """PCG with interpolation/restart recovery (LI or LSI).

    *failures* is the failure schedule, in the ``ResilienceSpec.failures``
    form; each failure interpolates the lost iterate entries and restarts
    the Krylov process, one
    :class:`~repro.core.reconstruction.RecoveryReport` per episode in
    ``result.recoveries``.
    """

    vector_prefix = "interp_pcg"

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 method: str = "li",
                 failures: Iterable = (),
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None):
        if method not in INTERPOLATION_METHODS:
            raise ValueError(
                f"method must be one of {INTERPOLATION_METHODS}, got {method!r}"
            )
        super().__init__(matrix, rhs, preconditioner, rtol=rtol, atol=atol,
                         max_iterations=max_iterations)
        self.method = method
        self._init_failure_handling(failures)

    # -- recovery -------------------------------------------------------------------
    def _restore_state(self, failed_ranks: List[int], iteration: int) -> None:
        """Interpolate the lost iterate entries and restart from them."""
        ledger = self.cluster.ledger
        partition = self.partition
        failed_indices = partition.indices_of_set(failed_ranks)

        x_global = self.x.to_global(allow_missing=True, fill_value=0.0)
        a_global = self.matrix.to_global()
        b_global = self.rhs.to_global()

        interpolate = (local_interpolation if self.method == "li"
                       else least_squares_interpolation)
        # One interpolation per column (each column is its own recurrence).
        x_failed = np.column_stack([
            interpolate(a_global, b_global[:, j], x_global[:, j],
                        failed_indices)
            for j in range(self.n_cols)
        ])
        if self.method == "li":
            # Communication: survivors ship the x entries referenced by the
            # failed rows (reverse SpMV pattern), like the ESR gather.
            charge_reverse_scatter(self.cluster, self.context, failed_ranks,
                                   self.n_cols)
            work = 10.0 * a_global[failed_indices, :][:, failed_indices].nnz
        else:
            # LSI touches every row that references a lost unknown: charge a
            # full residual evaluation plus the normal-equation solve.
            ledger.add_time(Phase.RECOVERY_COMM,
                            ledger.model.message_time(
                                self.cluster.topology.max_latency(),
                                int(partition.n) * self.n_cols))
            ledger.add_traffic(Phase.RECOVERY_COMM, partition.n_parts,
                               int(partition.n) * self.n_cols)
            work = 2.0 * a_global.nnz + 20.0 * float(failed_indices.size) ** 2
        ledger.add_time(Phase.RECOVERY_COMPUTE,
                        work * self.n_cols / ledger.model.spmv_flop_rate)

        # Patch the iterate and restart the Krylov process from it.
        x_global[failed_indices] = x_failed
        for rank in range(partition.n_parts):
            start, stop = partition.range_of(rank)
            self.x.restore_block(rank, x_global[start:stop])
        self._restart_krylov()

    # -- result --------------------------------------------------------------------------
    def solve(self, x0=None):
        result = super().solve(x0)
        result.info["strategy"] = f"interpolation_restart_{self.method}"
        return result
