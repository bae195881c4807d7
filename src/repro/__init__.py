"""repro -- Resilient preconditioned conjugate gradient solvers.

A reproduction of *"How to Make the Preconditioned Conjugate Gradient Method
Resilient Against Multiple Node Failures"* (Pachajoa, Levonyak, Gansterer,
Träff; ICPP 2019): the exact state reconstruction (ESR) approach extended to
tolerate multiple simultaneous or overlapping node failures, together with
every substrate needed to run and evaluate it on a single machine -- a
simulated distributed-memory cluster with fail-stop node failures and a
latency-bandwidth cost model, block-row distributed sparse linear algebra,
preconditioners, baselines, synthetic analogues of the paper's test matrices,
and a benchmark harness that regenerates each table and figure of the paper's
evaluation.

Quickstart
----------
>>> import repro
>>> a = repro.matrices.poisson_2d(48)              # SPD test matrix
>>> problem = repro.distribute_problem(a, n_nodes=8)
>>> result = repro.solve(
...     problem, phi=3, preconditioner="block_jacobi",
...     failures=[(20, [2, 3, 4])],                # 3 nodes fail at iteration 20
... )
>>> result.converged
True

``repro.solve`` is the single entry point: a :class:`~repro.core.spec.
SolveSpec` (with optional ``ResilienceSpec`` / ``BlockSpec`` extensions)
selects and configures the solver through the solver registry -- plain PCG
or the ESR-protected resilient PCG.  Either solves one right-hand side or
an ``(n, k)`` block of them, and answers in the same shape.  Keyword
arguments like ``phi=3`` above are shorthand overrides routed into the
spec.
"""

from . import analysis  # noqa: F401  (re-exported subpackages)
from . import baselines  # noqa: F401
from . import cluster  # noqa: F401
from . import sanitizer  # noqa: F401
from . import core  # noqa: F401
from . import distributed  # noqa: F401
from . import failures  # noqa: F401
from . import harness  # noqa: F401
from . import matrices  # noqa: F401
from . import precond  # noqa: F401
from . import service  # noqa: F401
from . import solvers  # noqa: F401
from . import utils  # noqa: F401
from .cluster import (
    FailureEvent,
    FailureInjector,
    MachineModel,
    VirtualCluster,
)
from .core import (
    PLACEMENTS,
    REDUNDANCY_SCHEMES,
    SOLVERS,
    BlockPCG,
    BlockSolveResult,
    BlockSpec,
    DistributedPCG,
    DistributedProblem,
    DistributedSolveResult,
    ESRProtocol,
    ESRReconstructor,
    RackLayout,
    RecoveryReport,
    RedundancyScheme,
    RedundancySchemeBase,
    ResilienceSpec,
    ResilientBlockPCG,
    ResilientPCG,
    RSParityScheme,
    SolveSpec,
    build_redundancy_scheme,
    distribute_problem,
    register_placement,
    register_redundancy_scheme,
    register_solver,
    solve,
)
from .failures import (
    FailureLocation,
    FailureScenario,
    FailureTrace,
    LifetimeModel,
    TraceSpec,
    generate_trace,
)
from .harness import CampaignSpec, run_campaign
from .precond import make_preconditioner
from .service import (
    BATCHING_POLICIES,
    JobHandle,
    RequestResult,
    ServiceStats,
    SolverService,
    TrafficSpec,
    generate_traffic,
    register_batching_policy,
)
from .solvers import SolveResult, pcg

__version__ = "1.0.0"

# Opt-in runtime sanitizer: ``REPRO_SANITIZE=1`` (or a comma-separated
# detector list) activates SimSan for the whole process.  See
# :mod:`repro.sanitizer`.
sanitizer.enable_from_env()

__all__ = [
    "__version__",
    # substrates
    "VirtualCluster",
    "MachineModel",
    "FailureEvent",
    "FailureInjector",
    # core API
    "solve",
    "SolveSpec",
    "ResilienceSpec",
    "BlockSpec",
    "SOLVERS",
    "register_solver",
    "DistributedPCG",
    "ResilientPCG",
    "ResilientBlockPCG",
    "BlockPCG",
    "BlockSolveResult",
    "DistributedSolveResult",
    "DistributedProblem",
    "ESRProtocol",
    "ESRReconstructor",
    "RecoveryReport",
    "RedundancyScheme",
    "RedundancySchemeBase",
    "REDUNDANCY_SCHEMES",
    "RSParityScheme",
    "register_redundancy_scheme",
    "build_redundancy_scheme",
    "PLACEMENTS",
    "RackLayout",
    "register_placement",
    "distribute_problem",
    # scenarios / traces / campaigns
    "FailureScenario",
    "FailureLocation",
    "FailureTrace",
    "LifetimeModel",
    "TraceSpec",
    "generate_trace",
    "CampaignSpec",
    "run_campaign",
    "make_preconditioner",
    "SolveResult",
    "pcg",
    # serving layer
    "SolverService",
    "JobHandle",
    "RequestResult",
    "ServiceStats",
    "BATCHING_POLICIES",
    "register_batching_policy",
    "TrafficSpec",
    "generate_traffic",
]
