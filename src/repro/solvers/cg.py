"""Sequential reference implementations of CG and PCG (Alg. 1 of the paper).

These run on a single process with plain NumPy/SciPy and serve three
purposes: (i) a ground truth the distributed solver is verified against
iterate-for-iterate, (ii) the reference ``Delta_PCG`` runs of Table 3, and
(iii) building blocks for the reconstruction subsystem solver and the
baselines.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ..precond.base import Preconditioner
from ..precond.identity import IdentityPreconditioner
from .result import SolveResult

ApplyFn = Callable[[np.ndarray], np.ndarray]


def _as_apply(preconditioner) -> ApplyFn:
    """Normalise the preconditioner argument to a callable ``r -> z``."""
    if preconditioner is None:
        return lambda r: r.copy()
    if isinstance(preconditioner, Preconditioner):
        return preconditioner.apply
    if callable(preconditioner):
        return preconditioner
    raise TypeError(
        "preconditioner must be None, a Preconditioner or a callable, "
        f"got {type(preconditioner).__name__}"
    )


def pcg(matrix, rhs: np.ndarray, *, preconditioner=None,
        rtol: float = 1e-8, atol: float = 0.0, max_iterations: Optional[int] = None,
        x0: Optional[np.ndarray] = None,
        callback: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None
        ) -> SolveResult:
    """Preconditioned conjugate gradient method (Alg. 1).

    Parameters
    ----------
    matrix:
        SPD matrix (sparse or dense, anything supporting ``@``).
    rhs:
        Right-hand side ``b``.
    preconditioner:
        ``None``, a :class:`~repro.precond.base.Preconditioner`, or a callable
        applying ``M^{-1}``.
    rtol, atol:
        Stop when ``||r|| <= max(rtol * ||r0||, atol)`` -- the paper uses a
        relative reduction of ``1e-8``.
    max_iterations:
        Iteration cap; defaults to ``10 n``.
    x0:
        Initial guess (zero vector by default).
    callback:
        Called as ``callback(j, x, r)`` after each iteration.
    """
    a = sp.csr_matrix(matrix) if sp.issparse(matrix) or isinstance(
        matrix, np.ndarray) else matrix
    b = np.asarray(rhs, dtype=np.float64)
    n = b.shape[0]
    apply_m = _as_apply(preconditioner)
    max_iterations = max_iterations if max_iterations is not None else 10 * n

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    r = b - a @ x
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    r0_norm = float(np.linalg.norm(r))
    threshold = max(rtol * r0_norm, atol)

    history = [r0_norm]
    converged = r0_norm <= threshold
    iterations = 0

    while not converged and iterations < max_iterations:
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            # Loss of positive definiteness (numerically); stop defensively.
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = apply_m(r)
        rz_next = float(r @ z)
        beta = rz_next / rz
        p = z + beta * p
        rz = rz_next
        iterations += 1
        r_norm = float(np.linalg.norm(r))
        history.append(r_norm)
        if callback is not None:
            callback(iterations, x, r)
        converged = r_norm <= threshold

    true_residual = float(np.linalg.norm(b - a @ x))
    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norms=history,
        final_residual_norm=history[-1],
        true_residual_norm=true_residual,
        solver_residual=r,
        info={"rtol": rtol, "atol": atol, "threshold": threshold},
    )


def cg(matrix, rhs: np.ndarray, **kwargs) -> SolveResult:
    """Unpreconditioned conjugate gradient (PCG with the identity)."""
    kwargs.pop("preconditioner", None)
    return pcg(matrix, rhs, preconditioner=IdentityPreconditioner(), **kwargs)

