"""Common result container for all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..utils.serde import Serializable, encode


def relative_residual_difference(solver_residual_norm: float,
                                 true_residual_norm: float) -> float:
    """The paper's Eqn. (7): ``(||r|| - ||b - A x||) / ||b - A x||``.

    ``nan`` unless both norms are finite and ``||b - A x||`` is nonzero.
    """
    if not np.isfinite(solver_residual_norm) or \
            not np.isfinite(true_residual_norm) or true_residual_norm == 0.0:
        return float("nan")
    return (solver_residual_norm - true_residual_norm) / true_residual_norm


def left_out_fields(result: Any, *, include_solution: bool,
                    include_history: bool,
                    solution: Tuple[str, ...] = ("x", "solver_residual"),
                    history: str = "residual_norms") -> Set[str]:
    """The fields a result's ``to_dict`` leaves out: its *solution* fields
    unless ``include_solution`` (and any of them that is ``None``), and its
    *history* field unless ``include_history``."""
    left_out = {name for name in solution
                if not include_solution or getattr(result, name) is None}
    if not include_history:
        left_out.add(history)
    return left_out


@dataclass
class SolveResult(Serializable):
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
        Every other field is written, a subclass's own fields too
        (:func:`~repro.utils.serde.encode`), followed by the derived
        Eqn. (7) ``relative_residual_deviation``.
        """
        data = encode(self, leave_out=left_out_fields(
            self, include_solution=include_solution,
            include_history=include_history))
        data["relative_residual_deviation"] = float(
            self.relative_residual_deviation)
        return data
