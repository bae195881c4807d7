"""Request, handle and per-request result types of the solver service.

A client hands the service a ``(matrix_id, rhs, spec)`` triple and gets a
:class:`JobHandle` back immediately; the coalescing scheduler later resolves
the handle with a :class:`RequestResult` -- the per-request slice of whatever
batched solve the request rode in, including the attributed share of the
batch's :class:`~repro.cluster.cost_model.CostLedger` charges and the
request's latency decomposition.  Handles are awaitable (``await handle``
inside a coroutine) and blockable (``handle.result(timeout)``), so the same
service serves async and plain-threaded callers.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from ..core.spec import SolveSpec
from ..solvers.result import left_out_fields
from ..utils.serde import Serializable, encode


class ServiceError(RuntimeError):
    """Base class of solver-service errors."""


class ServiceClosedError(ServiceError):
    """Submitting to a service that has been shut down."""


class UnknownMatrixError(ServiceError, KeyError):
    """Submitting against a ``matrix_id`` that was never registered."""


@dataclass
class RequestResult(Serializable):
    """Per-request outcome of one service solve.

    The solver-side fields (``x``, ``converged``, ``iterations``,
    ``residual_norms``, the residual norms at termination) are the request's
    column of the batched solve and are **bit-identical** to a direct
    ``repro.solve`` dispatch of the same ``(problem, rhs, spec)`` -- the
    block solver's per-column equivalence contract carries over to the
    service.  On top of those the service adds batch bookkeeping, the
    request's attributed share of the batch's ledger charges (see
    :func:`repro.service.accounting.split_charges`), and host-wallclock
    latency accounting.
    """

    #: Monotone per-service request sequence number.
    request_id: int
    tenant: str
    matrix_id: str
    #: The request's solution vector (column of the batch solution block).
    x: np.ndarray
    converged: bool
    iterations: int
    #: Per-iteration recurrence residual norms of this request's column.
    residual_norms: List[float] = field(default_factory=list)
    final_residual_norm: float = float("nan")
    true_residual_norm: float = float("nan")
    #: Registered solver name the batch dispatched to.
    solver: str = ""
    #: Batch bookkeeping: which batch, how wide, which column was ours.
    batch_id: int = -1
    batch_width: int = 1
    batch_column: int = 0
    #: Attributed share of the batch's simulated time (sums exactly to the
    #: batch total over all coalesced requests).
    simulated_time: float = 0.0
    #: Attributed per-phase ledger charges (same exact-sum contract).
    charges: Dict[str, float] = field(default_factory=dict)
    #: Host-wallclock latency decomposition (seconds): time from submission
    #: to batch dispatch, the part of that spent waiting for later co-batched
    #: arrivals, and the batched solve itself.
    queue_wait_s: float = 0.0
    batch_wait_s: float = 0.0
    solve_s: float = 0.0

    @property
    def latency_s(self) -> float:
        """End-to-end host latency: queue wait plus the batched solve."""
        return float(self.queue_wait_s + self.solve_s)

    def to_dict(self, *, include_solution: bool = True,
                include_history: bool = True) -> Dict[str, Any]:
        """Plain JSON-serializable dictionary (the service response body):
        every field, without ``x`` unless ``include_solution`` and without
        ``residual_norms`` unless ``include_history``, then ``latency_s``."""
        data = encode(self, leave_out=left_out_fields(
            self, include_solution=include_solution,
            include_history=include_history, solution=("x",)))
        data["latency_s"] = self.latency_s
        return data


class JobHandle:
    """Awaitable handle of one submitted request.

    Wraps a :class:`concurrent.futures.Future` so the handle works from
    plain threads (:meth:`result` blocks) and from coroutines (``await
    handle`` suspends until the scheduler resolves the request).
    """

    def __init__(self, request_id: int, matrix_id: str, tenant: str) -> None:
        self.request_id = int(request_id)
        self.matrix_id = str(matrix_id)
        self.tenant = str(tenant)
        self._future: "concurrent.futures.Future[RequestResult]" = \
            concurrent.futures.Future()

    # -- completion API ------------------------------------------------------
    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> RequestResult:
        """Block until the request resolves; raises what the solve raised."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        return self._future.exception(timeout)

    def __await__(self) -> Generator[Any, None, RequestResult]:
        import asyncio

        return asyncio.wrap_future(self._future).__await__()

    # -- service-side resolution (not for clients) ---------------------------
    def _resolve(self, result: RequestResult) -> None:
        self._future.set_result(result)

    def _fail(self, exc: BaseException) -> None:
        self._future.set_exception(exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "done" if self.done() else "pending"
        return (f"JobHandle(id={self.request_id}, matrix={self.matrix_id!r}, "
                f"tenant={self.tenant!r}, {state})")


@dataclass
class ServiceRequest:
    """One pending request inside the service queue (internal).

    ``seq`` doubles as the request id and the FIFO arrival order; ``key`` is
    the coalescing key -- requests sharing a key may merge into one block
    solve, requests with ``coalescable=False`` (non-serializable or
    explicitly pinned single-RHS specs) always dispatch alone.
    """

    seq: int
    matrix_id: str
    rhs: np.ndarray
    spec: SolveSpec
    key: str
    coalescable: bool
    tenant: str
    handle: JobHandle
    #: Host-monotonic enqueue instant (set by the service clock).
    enqueued_at: float = 0.0
