"""Failure scenarios, stochastic traces and schedules for the resilience experiments."""

from .scenarios import (
    PAPER_FAILURE_COUNTS,
    PAPER_PROGRESS_FRACTIONS,
    FailureLocation,
    FailureScenario,
    resolve_events,
)
from .traces import (
    FailureTrace,
    LifetimeModel,
    TraceEvent,
    TraceSpec,
    generate_trace,
)

__all__ = [
    "FailureScenario",
    "FailureLocation",
    "resolve_events",
    "PAPER_FAILURE_COUNTS",
    "PAPER_PROGRESS_FRACTIONS",
    "FailureTrace",
    "LifetimeModel",
    "TraceEvent",
    "TraceSpec",
    "generate_trace",
]
