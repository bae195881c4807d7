"""Common result container for all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


def relative_residual_difference(solver_residual_norm: float,
                                 true_residual_norm: float) -> float:
    """The paper's Eqn. (7): ``(||r|| - ||b - A x||) / ||b - A x||``.

    ``nan`` unless both norms are finite and ``||b - A x||`` is nonzero.
    """
    if not np.isfinite(solver_residual_norm) or \
            not np.isfinite(true_residual_norm) or true_residual_norm == 0.0:
        return float("nan")
    return (solver_residual_norm - true_residual_norm) / true_residual_norm


def jsonify(value: Any) -> Any:
    """Recursively convert a value into plain JSON-serializable types.

    numpy scalars become Python scalars, numpy arrays become (nested) lists,
    mappings and sequences are converted element-wise, and objects exposing
    their own ``to_dict`` delegate to it.  Anything already JSON-native
    (str/int/float/bool/None) passes through unchanged.
    """
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): jsonify(value[k]) for k in value}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return repr(value)


@dataclass
class SolveResult:
    """Outcome of an iterative linear solve.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        True if the stopping criterion was met within the iteration budget.
    iterations:
        Number of iterations performed.
    residual_norms:
        History of (solver) residual norms, one entry per iteration starting
        with the initial residual.
    final_residual_norm:
        Solver residual norm at termination (``||r^(j)||_2``).
    true_residual_norm:
        Explicitly recomputed ``||b - A x||_2`` at termination -- in exact
        arithmetic equal to ``final_residual_norm``, in floating point
        slightly different (the basis of the paper's Eqn. (7) metric).
    solver_residual:
        The solver's internal residual vector ``r`` at termination (needed to
        evaluate Eqn. (7)); may be ``None`` for solvers that do not carry one.
    info:
        Free-form extra data (timings, recovery statistics, ...).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: List[float] = field(default_factory=list)
    final_residual_norm: float = np.nan
    true_residual_norm: float = np.nan
    solver_residual: Optional[np.ndarray] = None
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def relative_residual_deviation(self) -> float:
        """Eqn. (7) of this result (:func:`relative_residual_difference`)."""
        return relative_residual_difference(self.final_residual_norm,
                                            self.true_residual_norm)

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "converged" if self.converged else "NOT converged"
        return (
            f"{status} in {self.iterations} iterations, "
            f"||r|| = {self.final_residual_norm:.3e}, "
            f"||b - Ax|| = {self.true_residual_norm:.3e}"
        )

    def to_dict(self, *, include_solution: bool = False,
                include_history: bool = True) -> Dict[str, Any]:
        """JSON-serializable dictionary of the result.

        The solution vector and the internal solver residual are large and
        excluded unless ``include_solution`` is set; the per-iteration
        residual history is included unless ``include_history`` is cleared.
        Subclasses extend the dictionary with their extra fields, so service
        responses and campaign outputs can serialize any result uniformly
        instead of hand-picking attributes.
        """
        data: Dict[str, Any] = {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "final_residual_norm": float(self.final_residual_norm),
            "true_residual_norm": float(self.true_residual_norm),
            "relative_residual_deviation": float(
                self.relative_residual_deviation),
            "info": jsonify(self.info),
        }
        if include_history:
            data["residual_norms"] = [float(v) for v in self.residual_norms]
        if include_solution:
            data["x"] = jsonify(self.x)
            if self.solver_residual is not None:
                data["solver_residual"] = jsonify(self.solver_residual)
        return data
