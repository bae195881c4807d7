"""Stochastic failure-trace generation (event-driven, seeded).

The deterministic scenarios of :mod:`repro.failures.scenarios` answer "what
happens when psi ranks fail at 50 % progress"; production-grade resilience
statements need distributions instead -- survival probability, overhead
percentiles, time to unrecoverable loss.  This module generates those
inputs CR-SIM style: an event-driven simulation with

* per-node lifetimes drawn from an exponential or Weibull distribution
  (:class:`LifetimeModel`),
* correlated rack-level bursts -- a Poisson process whose arrivals take out
  every currently-alive rank of one rack at once (racks are
  ``rack_size``-contiguous rank groups, the
  :class:`~repro.core.placement.RackLayout` model shared with the placement
  strategies), and
* an optional repair delay: a failed node stays down for ``repair_delay``
  iterations (a burst cannot re-kill it, and its next lifetime starts after
  the repair), matching how the solver's ULFM runtime swaps in replacement
  nodes.

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
import math
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
    """Distribution of a node's time-to-failure (in solver iterations).

    ``"exponential"`` is the memoryless baseline (``scale`` = mean
    lifetime); ``"weibull"`` adds an ageing ``shape`` parameter (``shape <
    1``: infant mortality, ``> 1``: wear-out), with the CR-SIM
    parametrisation ``lifetime = scale * W(shape)``.
    """

    distribution: str = "exponential"
    scale: float = 500.0
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.distribution not in ("exponential", "weibull"):
            raise ValueError(
                f"unknown lifetime distribution {self.distribution!r}; "
                "known: ('exponential', 'weibull')")
        if float(self.scale) <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if float(self.shape) <= 0.0:
            raise ValueError(f"shape must be positive, got {self.shape}")

    def sample(self, rng: RandomState) -> float:
        """One lifetime draw from *rng*."""
        if self.distribution == "exponential":
            return float(rng.exponential(self.scale))
        return float(self.scale * rng.weibull(self.shape))

    def mean(self) -> float:
        """The distribution mean (used by the statistical sanity tests)."""
        if self.distribution == "exponential":
            return float(self.scale)
        return float(self.scale * math.gamma(1.0 + 1.0 / self.shape))


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
    #: Rack (failure-domain) size; racks are contiguous rank groups.
    rack_size: int = 4
    #: Iterations a failed node stays down before its next lifetime starts.
    repair_delay: float = 0.0
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
        if int(self.rack_size) < 1:
            raise ValueError(
                f"rack_size must be positive, got {self.rack_size}")
        if float(self.repair_delay) < 0.0:
            raise ValueError(
                f"repair_delay must be non-negative, got {self.repair_delay}")

    @property
    def racks(self) -> RackLayout:
        return RackLayout(int(self.n_nodes), int(self.rack_size))


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
    time; burst arrivals form a Poisson process and kill every currently-up
    rank of one uniformly-chosen rack.  A failed rank is down for
    ``repair_delay`` iterations and draws a fresh lifetime from the repair
    point; a pending lifetime event overtaken by a burst is rescheduled
    instead of double-killing the node.
    """
    rng = as_rng(int(seed))
    n_nodes = int(spec.n_nodes)
    horizon = float(int(spec.horizon))
    racks = spec.racks
    # Time until which each rank is down (failed and not yet repaired).
    down_until = [0.0] * n_nodes

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
            # The heap is time-ordered: everything left is out of range too,
            # but burst/fail reschedules could still land inside, so only
            # this entry is dropped.
            continue
        if kind == "fail":
            if time < down_until[rank]:
                # A burst killed this rank first; restart its clock after
                # the repair instead of double-killing it.
                retry = down_until[rank] + spec.lifetime.sample(rng)
                if retry <= horizon:
                    heapq.heappush(heap, (retry, seq, "fail", rank))
                    seq += 1
                continue
            events.append(TraceEvent(time=time, ranks=(rank,),
                                     cause="lifetime"))
            down_until[rank] = time + float(spec.repair_delay)
            nxt = down_until[rank] + spec.lifetime.sample(rng)
            if nxt <= horizon:
                heapq.heappush(heap, (nxt, seq, "fail", rank))
                seq += 1
        else:  # burst
            rack = int(rng.integers(racks.n_racks))
            victims = [r for r in racks.ranks_in(rack) if down_until[r] <= time]
            if victims:
                events.append(TraceEvent(time=time, ranks=tuple(victims),
                                         cause="burst"))
                for victim in victims:
                    down_until[victim] = time + float(spec.repair_delay)
            nxt = time + float(rng.exponential(1.0 / spec.burst_rate))
            if nxt <= horizon:
                heapq.heappush(heap, (nxt, seq, "burst", -1))
                seq += 1

    return FailureTrace(spec=spec, seed=int(seed), events=tuple(events))
