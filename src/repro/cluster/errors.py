"""Exceptions raised by the virtual-cluster substrate."""

from __future__ import annotations

from typing import Iterable, Optional


class ClusterError(RuntimeError):
    """Base class for all virtual-cluster errors."""


class NodeFailedError(ClusterError):
    """Raised when code touches the memory of a failed node.

    This is the mechanism that makes the failure simulation honest: any
    algorithm that tries to read data that was lost in a node failure gets
    this exception instead of stale values, so recovery procedures can only
    rely on redundant copies held by surviving nodes or on reliable storage.
    """

    def __init__(self, rank: int, detail: str = ""):
        self.rank = rank
        message = f"node {rank} has failed and its memory is unavailable"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class CommunicationError(ClusterError):
    """Raised when the allreduce cannot complete (a failed node, or partials
    without exactly one row per rank)."""

    def __init__(self, message: str, failed_ranks: Optional[Iterable[int]] = None):
        self.failed_ranks = sorted(set(failed_ranks)) if failed_ranks else []
        if self.failed_ranks:
            message = f"{message} [failed ranks: {self.failed_ranks}]"
        super().__init__(message)


class UnrecoverableStateError(ClusterError):
    """Raised when recovery is impossible (e.g. more failures than redundancy).

    The resilient solvers translate this into an explicit, reportable outcome
    rather than silently producing wrong results.
    """
