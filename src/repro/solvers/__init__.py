"""Sequential reference CG and the reconstruction subsystem solver."""

from .cg import cg, pcg
from .local_solver import LOCAL_SOLVER_METHODS, LocalSolveStats, LocalSubsystemSolver
from .result import SolveResult

__all__ = [
    "SolveResult",
    "cg",
    "pcg",
    "LocalSubsystemSolver",
    "LocalSolveStats",
    "LOCAL_SOLVER_METHODS",
]
