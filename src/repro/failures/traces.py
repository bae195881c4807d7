"""Stochastic failure-trace generation (event-driven, seeded).

The deterministic scenarios of :mod:`repro.failures.scenarios` answer "what
happens when psi ranks fail at 50 % progress"; production-grade resilience
statements need distributions instead -- survival probability, overhead
percentiles, time to unrecoverable loss.  This module generates those
inputs CR-SIM style: an event-driven simulation with

* per-node lifetimes drawn from an exponential distribution
  (:class:`LifetimeModel`), and
* correlated rack-level bursts -- a Poisson process whose arrivals take out
  every rank of one rack at once (the racks are those of
  :meth:`RackLayout.default <repro.core.placement.RackLayout.default>`,
  the layout the rack-aware placements and the parity stripes use).

A failed node is replaced at once, as the solver's ULFM runtime swaps in
replacement nodes: its next lifetime starts at the failure.

All randomness flows through :mod:`repro.utils.rng` from a single integer
seed: the same ``(spec, seed)`` pair reproduces the trace bit-for-bit.  A
generated :class:`FailureTrace` resolves into a ``failures`` schedule of
:class:`~repro.cluster.failure.FailureEvent` objects
(:meth:`FailureTrace.to_failure_events`), the form every recovering solver
-- resilient PCG, on one right-hand side or a block, and the baselines --
takes unmodified (``ResilienceSpec.failures``, or the baselines'
``failures`` argument).

Time is measured in solver iterations: an event at continuous time ``t``
strikes before iteration ``int(t)`` (clamped to ``[1, horizon]``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cluster.failure import FailureEvent
from ..core.placement import RackLayout
from ..utils.rng import RandomState, as_rng
from ..utils.serde import RoundTrip

__all__ = [
    "LifetimeModel",
    "TraceSpec",
    "TraceEvent",
    "FailureTrace",
    "generate_trace",
]


@dataclass(frozen=True)
class LifetimeModel(RoundTrip):
    """Distribution of a node's time-to-failure (in solver iterations):
    exponential, the memoryless baseline, with mean ``scale``."""

    scale: float = 500.0

    def __post_init__(self) -> None:
        if float(self.scale) <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def sample(self, rng: RandomState) -> float:
        """One lifetime draw from *rng*."""
        return float(rng.exponential(self.scale))


@dataclass(frozen=True)
class TraceSpec(RoundTrip):
    """Configuration of one stochastic failure trace.

    ``horizon`` bounds the generated schedule, *not* the solve: events past
    the solver's actual iteration count simply never trigger.  A
    ``burst_rate`` of ``0.05`` means one correlated rack burst every 20
    iterations in expectation.
    """

    #: Cluster size the trace is generated for.
    n_nodes: int = 8
    #: Events are generated for iterations ``1 .. horizon``.
    horizon: int = 200
    #: Per-node time-to-failure distribution.
    lifetime: LifetimeModel = field(default_factory=LifetimeModel)
    #: Poisson rate (bursts per iteration) of correlated rack bursts;
    #: ``0`` disables bursts.
    burst_rate: float = 0.0
    #: Label prefix stamped on the resolved ``FailureEvent`` objects.
    label: str = "trace"

    def __post_init__(self) -> None:
        if int(self.n_nodes) < 2:
            raise ValueError(
                f"a failure trace needs >= 2 nodes, got {self.n_nodes}")
        if int(self.horizon) < 1:
            raise ValueError(
                f"horizon must be positive, got {self.horizon}")
        if float(self.burst_rate) < 0.0:
            raise ValueError(
                f"burst_rate must be non-negative, got {self.burst_rate}")

    @property
    def racks(self) -> RackLayout:
        """The racks a burst strikes: the default layout of ``n_nodes``."""
        return RackLayout.default(int(self.n_nodes))


@dataclass(frozen=True)
class TraceEvent:
    """One raw generator event: *ranks* fail at continuous time *time*."""

    time: float
    ranks: Tuple[int, ...]
    #: ``"lifetime"`` (independent node failure) or ``"burst"``.
    cause: str


@dataclass(frozen=True)
class FailureTrace:
    """A generated trace: the spec, the seed, and the raw event stream."""

    spec: TraceSpec
    seed: int
    events: Tuple[TraceEvent, ...]

    @property
    def n_failures(self) -> int:
        """Total node-failure count across all events."""
        return sum(len(ev.ranks) for ev in self.events)

    def to_failure_events(self) -> List[FailureEvent]:
        """Resolve into the injector's :class:`FailureEvent` schedule.

        Events mapping to the same iteration merge into one simultaneous
        event (the injector triggers per iteration anyway); ranks repeating
        within an iteration are deduplicated in time order, and the merged
        rank set is capped at ``n_nodes - 1`` (at least one survivor) by
        deterministically dropping the latest-listed ranks.
        """
        n_nodes = int(self.spec.n_nodes)
        horizon = int(self.spec.horizon)
        cap = n_nodes - 1
        ranks_by_iter: Dict[int, List[int]] = {}
        causes_by_iter: Dict[int, List[str]] = {}
        for ev in self.events:
            iteration = min(max(int(ev.time), 1), horizon)
            ranks = ranks_by_iter.setdefault(iteration, [])
            causes = causes_by_iter.setdefault(iteration, [])
            for rank in ev.ranks:
                if rank not in ranks and len(ranks) < cap:
                    ranks.append(rank)
            if ev.cause not in causes:
                causes.append(ev.cause)
        events: List[FailureEvent] = []
        for iteration in sorted(ranks_by_iter):
            ranks = ranks_by_iter[iteration]
            if not ranks:
                continue
            label = f"{self.spec.label}:{'+'.join(sorted(causes_by_iter[iteration]))}"
            events.append(FailureEvent(iteration=iteration,
                                       ranks=tuple(ranks), label=label))
        return events


def generate_trace(spec: TraceSpec, seed: int) -> FailureTrace:
    """Generate one failure trace for ``(spec, seed)`` (bit-reproducible).

    Event-driven: a heap of pending ``(time, sequence, kind, rank)`` entries
    is drained in time order.  Each rank carries a pending lifetime-failure
    time and draws a fresh lifetime when it fails; burst arrivals form a
    Poisson process and kill every rank of one uniformly-chosen rack (a
    burst leaves the pending lifetimes of its victims as they are).
    """
    rng = as_rng(int(seed))
    n_nodes = int(spec.n_nodes)
    horizon = float(int(spec.horizon))
    racks = spec.racks

    heap: List[Tuple[float, int, str, int]] = []
    seq = 0
    for rank in range(n_nodes):
        heapq.heappush(heap, (spec.lifetime.sample(rng), seq, "fail", rank))
        seq += 1
    if spec.burst_rate > 0.0:
        heapq.heappush(
            heap, (float(rng.exponential(1.0 / spec.burst_rate)), seq,
                   "burst", -1))
        seq += 1

    events: List[TraceEvent] = []
    while heap:
        time, _, kind, rank = heapq.heappop(heap)
        if time > horizon:
            # The heap is time-ordered and only in-range times are pushed:
            # everything left is out of range too.
            break
        if kind == "fail":
            events.append(TraceEvent(time=time, ranks=(rank,),
                                     cause="lifetime"))
            nxt = time + spec.lifetime.sample(rng)
            if nxt <= horizon:
                heapq.heappush(heap, (nxt, seq, "fail", rank))
                seq += 1
        else:  # burst
            rack = int(rng.integers(racks.n_racks))
            events.append(TraceEvent(time=time,
                                     ranks=tuple(racks.ranks_in(rack)),
                                     cause="burst"))
            nxt = time + float(rng.exponential(1.0 / spec.burst_rate))
            if nxt <= horizon:
                heapq.heappush(heap, (nxt, seq, "burst", -1))
                seq += 1

    return FailureTrace(spec=spec, seed=int(seed), events=tuple(events))
