"""Local subsystem solver used by the ESR reconstruction.

Lines 6 and 8 of the reconstruction (Alg. 2) require solving linear systems
with the submatrices ``P_{I_f, I_f}`` and ``A_{I_f, I_f}``.  These systems are
small compared to the global problem (``|I_f| = psi * n / N``), SPD and full
rank, so the paper solves them either directly or with an inner PCG using an
ILU-preconditioned block Jacobi and a very tight tolerance (residual
reduction by 1e14) so that the reconstruction error stays negligible
(Sec. 6, "Avoiding loss of orthogonality").  The ESR reconstruction
always runs the inner PCG (``"pcg_ilu"``, the default) to
:data:`INNER_RTOL`; its preconditioner is block Jacobi's ILU
(:class:`~repro.precond.block_jacobi.BlockJacobiPreconditioner` with
``block_solver="ilu"``) set up on a one-part partition, so the whole
subsystem is one block, not one block per failed rank.  ``"direct"`` serves
the LI/LSI interpolation baselines and the inner PCG's fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ..distributed.partition import BlockRowPartition
from ..precond.block_jacobi import BlockJacobiPreconditioner
from ..utils.serde import Serializable
from .cg import pcg
from .result import SolveResult

#: Supported methods for the reconstruction subsystems.
LOCAL_SOLVER_METHODS = ("direct", "pcg_ilu")

#: Relative residual reduction of the inner PCG.  The paper uses ``1e-14``
#: so that the reconstructed state is exact to near machine precision.
INNER_RTOL = 1e-14
#: Iteration cap of the inner PCG.  The reconstruction subsystems are small
#: and well preconditioned, so they normally converge in a handful of
#: iterations; if the cap is hit without reaching an acceptable residual the
#: solver falls back to a direct factorisation rather than burning time on a
#: stagnating iteration.
INNER_MAX_ITERATIONS = 200


@dataclass
class LocalSolveStats(Serializable):
    """Statistics of one local subsystem solve (for the cost model/reports)."""

    method: str
    size: int
    nnz: int
    iterations: int
    residual_norm: float
    #: Approximate flop count charged to the recovery-compute phase.
    work_flops: float


class LocalSubsystemSolver:
    """Solver for the small SPD systems arising during reconstruction.

    Parameters
    ----------
    method:
        ``"pcg_ilu"`` (inner PCG to :data:`INNER_RTOL`, at most
        :data:`INNER_MAX_ITERATIONS` iterations, preconditioned by block
        Jacobi's ILU over the whole subsystem as one block; the
        reconstruction's) or ``"direct"`` (sparse LU -- exact; the
        interpolation baselines').
    """

    def __init__(self, method: str = "pcg_ilu"):
        if method not in LOCAL_SOLVER_METHODS:
            raise ValueError(
                f"method must be one of {LOCAL_SOLVER_METHODS}, got {method!r}"
            )
        self.method = method
        self.last_stats: Optional[LocalSolveStats] = None
        #: Per-column statistics of the most recent :meth:`solve_block`.
        self.last_column_stats: list = []

    # -- shared-factorization core ------------------------------------------
    def _lu_of(self, a: sp.csr_matrix, shared: dict):
        """The (shared) sparse LU of *a*; ``True`` iff this call built it."""
        lu = shared.get("lu")
        if lu is not None:
            return lu, False
        lu = splu(a.tocsc())
        shared["lu"] = lu
        return lu, True

    def _solve_one(self, a: sp.csr_matrix, b: np.ndarray, shared: dict
                   ) -> tuple:
        """Solve ``a @ x = b``, reusing the factorizations cached in *shared*.

        *shared* carries the expensive, rhs-independent pieces (the sparse LU
        for ``"direct"`` and the direct fallback, the set-up ILU
        preconditioner of the inner PCG) across the columns of a
        multi-RHS solve.  Factorizations of the same matrix are
        deterministic, so reusing them keeps every column bit-identical to a
        standalone :meth:`solve` of that column; only the factorization work
        is charged once instead of per column.
        """
        n = a.shape[0]
        if self.method == "direct":
            lu, factored = self._lu_of(a, shared)
            x = lu.solve(b)
            residual = float(np.linalg.norm(b - a @ x))
            # LU factorisation work estimate: ~ c * nnz(A) * average
            # bandwidth, charged once per factorization; each triangular
            # solve costs ~ 2 nnz.
            work = (10.0 * a.nnz if factored else 0.0) + 2.0 * a.nnz
            return x, LocalSolveStats(
                self.method, n, int(a.nnz), 1, residual, work
            )

        preconditioner = shared.get("preconditioner")
        if preconditioner is None:
            preconditioner = BlockJacobiPreconditioner(block_solver="ilu")
            preconditioner.setup(a, BlockRowPartition(n, 1))
            shared["preconditioner"] = preconditioner
        result: SolveResult = pcg(
            a, b, preconditioner=preconditioner, rtol=INNER_RTOL,
            max_iterations=INNER_MAX_ITERATIONS,
        )
        work = 2.0 * a.nnz * max(result.iterations, 1) \
            + 2.0 * preconditioner.work_nnz() * max(result.iterations, 1)
        rhs_norm = float(np.linalg.norm(b))
        stagnated = rhs_norm > 0 and \
            result.final_residual_norm > 1e-8 * rhs_norm
        if stagnated:
            # The inexact preconditioner can (rarely) make the inner PCG
            # stagnate; the reconstruction must stay exact, so fall back to a
            # direct solve and account for both attempts.
            lu, factored = self._lu_of(a, shared)
            x = lu.solve(b)
            residual = float(np.linalg.norm(b - a @ x))
            work += (10.0 * a.nnz if factored else 0.0) + 2.0 * a.nnz
            return x, LocalSolveStats(
                f"{self.method}+direct_fallback", n, int(a.nnz),
                result.iterations, residual, work,
            )
        return result.x, LocalSolveStats(
            self.method, n, int(a.nnz), result.iterations,
            result.final_residual_norm, work,
        )

    # -- public entry points -------------------------------------------------
    def solve(self, matrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` and record statistics."""
        a = sp.csr_matrix(matrix).astype(np.float64)
        b = np.asarray(rhs, dtype=np.float64)
        if a.shape[0] == 0:
            self.last_stats = LocalSolveStats(self.method, 0, 0, 0, 0.0, 0.0)
            return np.zeros(0)
        x, self.last_stats = self._solve_one(a, b, {})
        return x

    def solve_block(self, matrix, rhs_block: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ X = B`` for an ``(n, k)`` block of right-hand sides.

        The multi-RHS entry point of the block ESR reconstruction: the
        factorization (sparse LU for ``"direct"``/the direct fallback, the
        ILU set-up of the inner PCG) is computed **once** and
        amortized over all ``k`` column solves, while each column's solution
        stays bit-identical to a standalone :meth:`solve` call on that column
        (the factors of a fixed matrix are deterministic).  ``last_stats``
        aggregates the block -- total work, total inner iterations, worst
        residual -- and :attr:`last_column_stats` keeps the per-column
        records.
        """
        a = sp.csr_matrix(matrix).astype(np.float64)
        b = np.asarray(rhs_block, dtype=np.float64)
        if b.ndim != 2:
            raise ValueError(
                f"solve_block expects an (n, k) right-hand-side block, "
                f"got shape {b.shape}"
            )
        n, k = b.shape
        if n == 0 or k == 0:
            self.last_column_stats = [
                LocalSolveStats(self.method, 0, 0, 0, 0.0, 0.0)
                for _ in range(k)
            ]
            self.last_stats = LocalSolveStats(self.method, 0, 0, 0, 0.0, 0.0)
            return np.zeros((n, k))
        shared: dict = {}
        columns = []
        stats = []
        for j in range(k):
            x, column_stats = self._solve_one(a, b[:, j], shared)
            columns.append(x)
            stats.append(column_stats)
        self.last_column_stats = stats
        methods = {s.method for s in stats}
        self.last_stats = LocalSolveStats(
            method=stats[0].method if len(methods) == 1
            else "+".join(sorted(methods)),
            size=n,
            nnz=int(a.nnz),
            iterations=int(sum(s.iterations for s in stats)),
            residual_norm=float(max(s.residual_norm for s in stats)),
            work_flops=float(sum(s.work_flops for s in stats)),
        )
        return np.column_stack(columns)

    def work_flops(self) -> float:
        """Flops of the most recent solve (0 before any solve)."""
        return self.last_stats.work_flops if self.last_stats else 0.0
