"""Solver-as-a-service: job queue, coalescing scheduler, cost attribution.

The serving layer of the repository (ROADMAP item "solver-as-a-service"):
:class:`SolverService` accepts many independent ``(matrix_id, rhs, spec)``
requests, a pluggable batching policy coalesces compatible requests into
``(n, k)`` block solves through :func:`repro.solve`, and the accounting
module attributes the batch's cost-ledger charges back to the tenants --
exactly, bit for bit.  See :mod:`repro.service.service` for the execution
model and guarantees.
"""

from .accounting import (
    ServiceStats,
    TenantUsage,
    exact_shares,
    percentile,
    split_charges,
)
from .jobs import (
    JobHandle,
    RequestResult,
    ServiceClosedError,
    ServiceError,
    ServiceRequest,
    UnknownMatrixError,
)
from .policies import BATCHING_POLICIES, register_batching_policy
from .service import DEFAULT_K_MAX, DEFAULT_WINDOW_S, SolverService
from .traffic import SyntheticRequest, TrafficSpec, generate_traffic

__all__ = [
    "BATCHING_POLICIES",
    "DEFAULT_K_MAX",
    "DEFAULT_WINDOW_S",
    "JobHandle",
    "RequestResult",
    "ServiceClosedError",
    "ServiceError",
    "ServiceRequest",
    "ServiceStats",
    "SolverService",
    "SyntheticRequest",
    "TenantUsage",
    "TrafficSpec",
    "UnknownMatrixError",
    "exact_shares",
    "generate_traffic",
    "percentile",
    "register_batching_policy",
    "split_charges",
]
