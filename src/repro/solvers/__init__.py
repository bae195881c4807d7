"""Sequential reference CG and the reconstruction subsystem solver."""

from .cg import cg, pcg, pcg_iteration_count_estimate
from .local_solver import LOCAL_SOLVER_METHODS, LocalSolveStats, LocalSubsystemSolver
from .result import SolveResult

__all__ = [
    "SolveResult",
    "cg",
    "pcg",
    "pcg_iteration_count_estimate",
    "LocalSubsystemSolver",
    "LocalSolveStats",
    "LOCAL_SOLVER_METHODS",
]
