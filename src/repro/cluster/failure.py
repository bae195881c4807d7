"""Fail-stop node failures and the ULFM-like recovery runtime.

Two pieces live here:

* :class:`FailureInjector` -- turns a declarative schedule of
  :class:`FailureEvent` objects ("at iteration 120, ranks {4, 5, 6} fail")
  into actual node failures on the virtual cluster; every recovering solver
  builds one from its ``failures`` schedule and fires it at the right point
  of its progress.  Overlapping failures (a second event that strikes while
  reconstruction of a first one is still running, Sec. 4.1) are expressed by
  events carrying ``during_recovery_of`` references.
* :class:`UlfmRuntime` -- models the fault-tolerance features the paper
  assumes from the MPI runtime (Sec. 1.1.1): detection of failures and
  provisioning of replacement nodes that take over the failed ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..utils.serde import RoundTrip
from ..utils.validation import ValidationError, check_rank_list
from .node import Node, NodeStatus


@dataclass(frozen=True)
class FailureEvent(RoundTrip):
    """A single (possibly multi-node) failure event.

    Parameters
    ----------
    iteration:
        Solver iteration *before* which the event strikes.  All ranks listed
        in ``ranks`` fail simultaneously at that point.
    ranks:
        The node ranks that fail together.
    during_recovery_of:
        If not ``None``, the event does not strike at an iteration boundary
        but *while the recovery from the referenced event index is running*
        (overlapping failures, Sec. 4.1).  The reconstruction must then be
        restarted including the newly failed ranks.
    label:
        Optional human-readable tag used in reports.
    """

    iteration: int
    ranks: Tuple[int, ...]
    during_recovery_of: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "iteration", int(self.iteration))
        if self.iteration < 0:
            raise ValidationError(
                f"failure iteration must be >= 0, got {self.iteration}"
            )
        if not self.ranks:
            raise ValidationError("a failure event needs at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValidationError(f"duplicate ranks in failure event: {self.ranks}")
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    @property
    def n_failures(self) -> int:
        return len(self.ranks)


class FailureInjector:
    """Executes a failure schedule against the nodes of a cluster."""

    def __init__(self, events: Sequence[FailureEvent] = ()):
        self._events: List[FailureEvent] = sorted(
            events, key=lambda e: (e.iteration, e.during_recovery_of is not None)
        )
        self._triggered: Set[int] = set()

    @property
    def events(self) -> List[FailureEvent]:
        return list(self._events)

    def pending_events(self) -> List[FailureEvent]:
        """Events that have not been triggered yet."""
        return [e for i, e in enumerate(self._events) if i not in self._triggered]

    def events_due(self, iteration: int, *, overlapping: bool = False
                   ) -> List[Tuple[int, FailureEvent]]:
        """Events that should strike at (or before) *iteration*.

        ``overlapping`` selects the events flagged with ``during_recovery_of``
        (queried by the recovery driver), the default selects iteration-boundary
        events (queried by the solver loop).
        """
        due = []
        for idx, event in enumerate(self._events):
            if idx in self._triggered:
                continue
            is_overlap = event.during_recovery_of is not None
            if is_overlap != overlapping:
                continue
            if event.iteration <= iteration:
                due.append((idx, event))
        return due

    def trigger(self, idx: int, nodes: Sequence[Node]) -> FailureEvent:
        """Fire event *idx*: fail the listed nodes and mark the event done.

        Ranks that are already failed when the event strikes (possible with
        stochastic schedules: two generated events can name the same rank
        before a recovery replaced it) are skipped deterministically -- a
        node only fails once per episode, so ``failure_count`` and the
        cleared memory reflect real transitions, never double-kills.  The
        event is marked triggered either way.
        """
        if idx in self._triggered:
            raise ValidationError(f"failure event {idx} already triggered")
        event = self._events[idx]
        check_rank_list(event.ranks, len(nodes), "failure ranks")
        for rank in event.ranks:
            if not nodes[rank].is_failed:
                nodes[rank].fail()
        self._triggered.add(idx)
        return event

    def check_ranks(self, n_nodes: int) -> None:
        """Raise, before anything runs, the error :meth:`trigger` would raise
        for a scheduled rank outside ``[0, n_nodes)``."""
        for event in self._events:
            check_rank_list(event.ranks, n_nodes, "failure ranks")

    def max_simultaneous_failures(self) -> int:
        """Largest number of distinct ranks failing at one iteration (lower
        bound for phi): every event due at an iteration, overlapping ones
        included, fails before the same recovery ends."""
        ranks: Dict[int, Set[int]] = {}
        for event in self._events:
            ranks.setdefault(event.iteration, set()).update(event.ranks)
        return max(map(len, ranks.values()), default=0)


class UlfmRuntime:
    """Failure detection and node replacement.

    The real counterpart is the MPI ULFM extension: failures are detected,
    and the application obtains replacement processes.  Here detection is
    exact and immediate (the paper does not study detection latency), and
    replacements reuse the failed rank's slot with a wiped memory, matching
    the simulation methodology of Sec. 6 of the paper.
    """

    def __init__(self, nodes: Sequence[Node]):
        self._nodes = list(nodes)
        self._known_failed: Set[int] = set()

    def detect_failures(self) -> List[int]:
        """Return newly failed ranks since the last call (and remember them)."""
        current = {n.rank for n in self._nodes if n.is_failed}
        new = sorted(current - self._known_failed)
        self._known_failed |= set(new)
        return new

    def provide_replacements(self, failed_ranks: Iterable[int]) -> List[int]:
        """Install replacement nodes for *failed_ranks*; return their ranks."""
        replaced = []
        for rank in sorted(set(failed_ranks)):
            node = self._nodes[rank]
            if node.status is not NodeStatus.FAILED:
                raise ValidationError(
                    f"rank {rank} is not failed; nothing to replace"
                )
            node.replace()
            self._known_failed.discard(rank)
            replaced.append(rank)
        return replaced
