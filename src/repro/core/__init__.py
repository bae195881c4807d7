"""The paper's core contribution: ESR-resilient PCG for multiple node failures."""

from .api import (
    DistributedProblem,
    build_failure_events,
    distribute_problem,
    solve,
)
from .registry import SOLVERS, register_solver
from .spec import BlockSpec, ResilienceSpec, SolveSpec
from .block_pcg import BlockPCG, BlockSolveResult, DistributedSolveResult
from .esr import ESRProtocol
from .metrics import (
    ConvergenceComparison,
    compare_runs,
    convergence_rate_estimate,
    iterations_to_tolerance,
    max_residual_difference,
    state_difference,
)
from .pcg import DistributedPCG
from .placement import (
    PLACEMENTS,
    RackLayout,
    paper_backup_target,
    register_placement,
)
from .reconstruction import ESRReconstructor, RecoveryReport
from .redundancy import (
    REDUNDANCY_SCHEMES,
    OwnerRedundancy,
    RedundancyScheme,
    RedundancySchemeBase,
    backup_targets,
    build_redundancy_scheme,
    register_redundancy_scheme,
)
from .rs_parity import RSParityScheme
from .resilient_block_pcg import ResilientBlockPCG
from .resilient_pcg import ResilientPCG
from ..solvers.result import relative_residual_difference

__all__ = [
    "BlockPCG",
    "BlockSolveResult",
    "DistributedPCG",
    "DistributedSolveResult",
    "ResilientPCG",
    "ResilientBlockPCG",
    "ESRProtocol",
    "ESRReconstructor",
    "RecoveryReport",
    "RedundancyScheme",
    "RedundancySchemeBase",
    "REDUNDANCY_SCHEMES",
    "RSParityScheme",
    "register_redundancy_scheme",
    "build_redundancy_scheme",
    "OwnerRedundancy",
    "backup_targets",
    "paper_backup_target",
    "PLACEMENTS",
    "RackLayout",
    "register_placement",
    "DistributedProblem",
    "distribute_problem",
    "solve",
    "SolveSpec",
    "ResilienceSpec",
    "BlockSpec",
    "SOLVERS",
    "register_solver",
    "build_failure_events",
    "relative_residual_difference",
    "max_residual_difference",
    "compare_runs",
    "ConvergenceComparison",
    "convergence_rate_estimate",
    "iterations_to_tolerance",
    "state_difference",
]
