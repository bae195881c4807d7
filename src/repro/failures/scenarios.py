"""Failure scenarios matching the paper's experimental design (Sec. 7.1).

The experiments introduce node failures once per run, with

* ``psi`` in {1, 3, 8} simultaneous failures,
* at 20 %, 50 % or 80 % of the solver's progress (measured in iterations of
  the corresponding reference run), and
* clustered in contiguous ranks starting either at rank 0 ("start": the
  beginning of the vector) or at rank N/2 ("center": the middle of the
  vector), since simultaneous failures are typically caused by a shared
  switch.

:class:`FailureScenario` is the declarative description of one such
configuration; :func:`resolve_events` turns it into concrete
:class:`~repro.cluster.failure.FailureEvent` objects once the reference
iteration count is known.  A failure that strikes while a recovery is
running is a :class:`~repro.cluster.failure.FailureEvent` with
``during_recovery_of`` set, placed in the schedule directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from ..cluster.failure import FailureEvent
from ..utils.validation import check_in_range


class FailureLocation(enum.Enum):
    """Where the cluster's failed ranks sit relative to the vector layout."""

    #: Contiguous ranks starting at rank 0 (low vector indices).
    START = "start"
    #: Contiguous ranks starting at rank N/2 (middle vector indices).
    CENTER = "center"


#: The progress fractions used throughout the paper's evaluation.
PAPER_PROGRESS_FRACTIONS: Tuple[float, ...] = (0.2, 0.5, 0.8)
#: The failure counts used throughout the paper's evaluation.
PAPER_FAILURE_COUNTS: Tuple[int, ...] = (1, 3, 8)


@dataclass(frozen=True)
class FailureScenario:
    """Declarative description of one failure configuration."""

    #: Number of simultaneously failing nodes (``psi``).
    n_failures: int
    #: Fraction of the reference run's iterations after which the failure hits.
    progress_fraction: float = 0.5
    #: Placement of the failed ranks.
    location: FailureLocation = FailureLocation.START

    def __post_init__(self) -> None:
        if self.n_failures < 1:
            raise ValueError(
                f"a failure scenario needs at least one failing node, "
                f"got {self.n_failures}"
            )
        check_in_range(self.progress_fraction, 0.0, 1.0, "progress_fraction")
        if not isinstance(self.location, FailureLocation):
            # failed_ranks would silently fail the center ranks.
            raise TypeError(
                f"location must be a FailureLocation, got {self.location!r}")

    # -- resolution ----------------------------------------------------------
    def failure_iteration(self, reference_iterations: int) -> int:
        """Concrete iteration index at which the event strikes."""
        if reference_iterations < 1:
            return 0
        iteration = int(round(self.progress_fraction * reference_iterations))
        return min(max(iteration, 0), max(reference_iterations - 1, 0))

    def failed_ranks(self, n_nodes: int) -> List[int]:
        """The ranks that fail, given the cluster size."""
        if self.n_failures >= n_nodes:
            raise ValueError(
                f"cannot fail {self.n_failures} of {n_nodes} nodes "
                "(at least one node must survive)"
            )
        base = 0 if self.location is FailureLocation.START else n_nodes // 2
        return [(base + k) % n_nodes for k in range(self.n_failures)]

    def describe(self) -> str:
        return (f"psi={self.n_failures}, "
                f"at {int(round(self.progress_fraction * 100))}% progress, "
                f"location={self.location.value}")


def resolve_events(scenario: FailureScenario, *, n_nodes: int,
                   reference_iterations: int) -> List[FailureEvent]:
    """Turn a scenario into its one concrete failure event for a given run:
    the simultaneous failures at the scenario's progress point."""
    return [FailureEvent(
        iteration=scenario.failure_iteration(reference_iterations),
        ranks=tuple(scenario.failed_ranks(n_nodes)),
        label=scenario.describe())]
