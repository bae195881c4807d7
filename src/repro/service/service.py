"""The solver service: an async job queue coalescing requests into block solves.

:class:`SolverService` is the serving layer of the ROADMAP's
"production-scale" story.  Clients register each matrix once, as the
:class:`~repro.core.api.DistributedProblem` :func:`repro.distribute_problem`
built for it (:meth:`~SolverService.register_matrix` caches it under a
matrix id, so the operator gather and the preconditioner factorization are
paid once, not per request) and then submit
many independent ``(matrix_id, rhs, spec)`` solve requests.  A batching
policy, picked by its registered name (:mod:`repro.service.policies`),
groups pending requests that share a compatible ``(matrix_id, SolveSpec)``
key into one ``(n, k)`` block solve through :func:`repro.solve` --
continuous batching, exactly as inference servers do it: a block solve's
allreduce *message* count is independent of ``k``, so ``k`` coalesced
requests pay the latency-bound reductions once.

**Bit-exactness.**  A batch of width 1 dispatches the raw 1-D right-hand
side through the identical ``repro.solve`` path a direct call would take; a
batch of width ``k > 1`` column-stacks the right-hand sides and hands the
block to the same solver, whose per-column equivalence contract
(:mod:`repro.core.block_pcg`) makes column ``j`` bit-identical to the
sequential solve of request ``j``.  Either way the service returns exactly
what one-at-a-time dispatch would have.

**Coalescing key.**  Requests may merge only when they target the same
``matrix_id`` with identical, JSON-serializable specs.  A pinned solver
name is part of the spec like any other field: the solver takes one
right-hand side or a block under the same name, so a batch runs the
solver its requests asked for, and so is a ``BlockSpec`` that fixes no
column count.  A ``BlockSpec`` whose ``n_cols`` fixes the column count, or
a live preconditioner instance, makes the request non-coalescable, and it
dispatches alone.

**Execution modes.**  With ``autostart=True`` a background scheduler thread
dispatches batches as windows fill or expire (host wallclock drives the
windows -- this module is on the R002/R007 allowlists for exactly that).
With ``autostart=False`` the service is a deterministic pull-based pump:
:meth:`~SolverService.pump`/:meth:`~SolverService.drain` run the policy and
execute the selected batches inline on the calling thread, so batching
depends only on queue order and the :meth:`ServiceStats.aggregate` view is
byte-identical across runs of a seeded trace.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.api import DistributedProblem, solve
from ..core.block_pcg import BlockSolveResult
from ..core.spec import SolveSpec
from ..utils.logging import get_logger
from ..utils.validation import check_finite
from .accounting import ServiceStats, exact_shares, split_charges
from .jobs import (
    JobHandle,
    RequestResult,
    ServiceClosedError,
    ServiceRequest,
    UnknownMatrixError,
)
from .policies import BATCHING_POLICIES

logger = get_logger("service")

#: Default batching window (seconds of host wallclock).
DEFAULT_WINDOW_S = 0.01
#: Default maximum batch width.
DEFAULT_K_MAX = 8


@dataclass
class _MatrixEntry:
    """One registered matrix: the cached problem plus its default spec."""

    matrix_id: str
    problem: DistributedProblem
    default_spec: SolveSpec


class SolverService:
    """Solver-as-a-service front end with request coalescing.

    Parameters
    ----------
    policy:
        Batching policy: a name registered in
        :data:`~repro.service.policies.BATCHING_POLICIES`
        (``"fifo_window"``, ``"greedy_width"``, ...).
    window_s:
        Maximum time a request may wait for co-batchable arrivals before its
        batch dispatches anyway.
    k_max:
        Maximum batch width (columns of one block solve).
    autostart:
        Start the background scheduler thread.  ``False`` leaves the service
        in deterministic pull mode: nothing dispatches until
        :meth:`pump`/:meth:`drain`/:meth:`solve_sync` is called.
    """

    def __init__(self, *, policy: str = "fifo_window",
                 window_s: float = DEFAULT_WINDOW_S,
                 k_max: int = DEFAULT_K_MAX,
                 autostart: bool = False) -> None:
        if window_s < 0.0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        #: The registered policy function (an unknown name raises
        #: ``ValueError``) and its name, for error messages.
        self.policy = BATCHING_POLICIES.get(policy)
        self._policy_name = policy.lower()
        self.window_s = float(window_s)
        self.k_max = int(k_max)
        self._matrices: Dict[str, _MatrixEntry] = {}
        self._pending: List[ServiceRequest] = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Serializes batch execution (the ledger and the per-problem caches
        #: are shared mutable state; one batch runs at a time).
        self._exec_lock = threading.Lock()
        self._seq = 0
        self._batch_seq = 0
        self._closed = False
        self._stop = False
        self.stats = ServiceStats()
        self._thread: Optional[threading.Thread] = None
        if autostart:
            self.start()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start the background scheduler thread (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service is shut down")
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop = False
        self._thread = threading.Thread(target=self._scheduler_loop,
                                        name="solver-service-scheduler",
                                        daemon=True)
        self._thread.start()

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop the service.

        With ``drain=True`` (default) every pending request is still
        executed -- in-flight batches finish, then the remaining queue is
        flushed through the policy with ``drain=True`` -- so all handles
        resolve.  With ``drain=False`` pending handles fail with
        :class:`ServiceClosedError` (in-flight batches still finish; they
        cannot be recalled).  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if drain:
            self._pump(drain=True)
        else:
            with self._lock:
                abandoned, self._pending = self._pending, []
            for req in abandoned:
                req.handle._fail(ServiceClosedError(
                    f"service shut down with request {req.seq} pending"))
                self.stats.record_failure()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=exc_info[0] is None)

    # -- matrix registry -----------------------------------------------------
    def register_matrix(self, matrix_id: str, problem: DistributedProblem, *,
                        default_spec: Optional[SolveSpec] = None
                        ) -> DistributedProblem:
        """Register *problem* under *matrix_id* and cache it.

        *problem* is a :class:`DistributedProblem` built by
        :func:`repro.distribute_problem`, which owns its cluster; anything
        else raises ``TypeError``.  Re-registering an id raises.
        """
        if not isinstance(problem, DistributedProblem):
            raise TypeError(
                f"register_matrix takes a DistributedProblem, not "
                f"{type(problem).__name__}; build one with "
                "repro.distribute_problem")
        matrix_id = str(matrix_id)
        entry = _MatrixEntry(matrix_id, problem,
                             default_spec if default_spec is not None
                             else SolveSpec())
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            if matrix_id in self._matrices:
                raise ValueError(f"matrix id {matrix_id!r} already registered")
            self._matrices[matrix_id] = entry
        return problem

    def matrix_ids(self) -> Tuple[str, ...]:
        """The registered matrix ids, sorted."""
        with self._lock:
            return tuple(sorted(self._matrices))

    def problem(self, matrix_id: str) -> DistributedProblem:
        """The cached problem of *matrix_id* (KeyError-compatible raise)."""
        with self._lock:
            entry = self._matrices.get(str(matrix_id))
        if entry is None:
            raise UnknownMatrixError(
                f"unknown matrix id {matrix_id!r}; registered: "
                f"{self.matrix_ids()}")
        return entry.problem

    # -- submission ----------------------------------------------------------
    @staticmethod
    def _coalescing_key(matrix_id: str, spec: SolveSpec
                        ) -> Tuple[str, bool]:
        """The coalescing key of ``(matrix_id, spec)`` and whether requests
        carrying it may merge at all."""
        if spec.block is not None and spec.block.n_cols is not None:
            # A fixed column count holds only for the request's own
            # one-column solve; a batch of it would be a wider block.
            return f"block:{matrix_id}", False
        try:
            payload = spec.to_dict()
        except ValueError:
            # Live preconditioner instance etc.: not serializable, no key.
            return f"opaque:{matrix_id}", False
        return f"{matrix_id}|{json.dumps(payload, sort_keys=True)}", True

    def submit(self, matrix_id: str, rhs: Any, spec: Optional[SolveSpec] = None,
               *, tenant: str = "default") -> JobHandle:
        """Enqueue one solve request; returns an awaitable :class:`JobHandle`.

        The right-hand side is captured as a 1-D float64 copy of length
        ``n`` and must be finite (``ValueError`` otherwise); *spec* defaults
        to the matrix's registered ``default_spec``.
        """
        matrix_id = str(matrix_id)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            entry = self._matrices.get(matrix_id)
        if entry is None:
            raise UnknownMatrixError(
                f"unknown matrix id {matrix_id!r}; registered: "
                f"{self.matrix_ids()}")
        if spec is None:
            spec = entry.default_spec
        values = np.array(rhs, dtype=np.float64, copy=True)
        if values.ndim != 1 or values.shape[0] != entry.problem.n:
            raise ValueError(
                f"rhs must be a 1-D vector of length {entry.problem.n}, "
                f"got shape {values.shape}")
        # Rejected here, a non-finite request never joins (and spoils) a batch.
        check_finite(values, "rhs")
        key, coalescable = self._coalescing_key(matrix_id, spec)
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            seq = self._seq
            self._seq += 1
            handle = JobHandle(seq, matrix_id, tenant)
            self._pending.append(ServiceRequest(
                seq=seq, matrix_id=matrix_id, rhs=values, spec=spec,
                key=key, coalescable=coalescable, tenant=str(tenant),
                handle=handle, enqueued_at=time.monotonic()))
            self._cond.notify_all()
        return handle

    def solve_sync(self, matrix_id: str, rhs: Any,
                   spec: Optional[SolveSpec] = None, *,
                   tenant: str = "default",
                   timeout: Optional[float] = None) -> RequestResult:
        """Submit and block until the request resolves (sync convenience).

        Without a running scheduler thread the whole queue is drained inline
        first (other pending requests dispatch too, possibly coalescing with
        this one); with the thread running this simply waits for the
        request's window.
        """
        handle = self.submit(matrix_id, rhs, spec, tenant=tenant)
        if self._thread is None or not self._thread.is_alive():
            self.drain()
        return handle.result(timeout)

    # -- dispatching ---------------------------------------------------------
    def pump(self, *, drain: bool = False) -> int:
        """Run one policy pass inline; returns the number of batches run."""
        return self._pump_once(drain=drain)

    def drain(self) -> int:
        """Dispatch until the queue is empty; returns the batches run."""
        return self._pump(drain=True)

    def _select_batches(self, *, drain: bool) -> List[List[ServiceRequest]]:
        """Run the policy under the lock and remove the selected requests."""
        with self._lock:
            if not self._pending:
                return []
            batches = self.policy(
                self._pending, now=time.monotonic(), window_s=self.window_s,
                k_max=self.k_max, drain=drain)
            taken = {req.seq for batch in batches for req in batch}
            if len(taken) != sum(len(batch) for batch in batches):
                raise RuntimeError(
                    f"batching policy {self._policy_name!r} returned "
                    "overlapping batches")
            self._pending = [req for req in self._pending
                             if req.seq not in taken]
        return batches

    def _pump_once(self, *, drain: bool) -> int:
        batches = self._select_batches(drain=drain)
        for batch in batches:
            self._execute_batch(batch)
        return len(batches)

    def _pump(self, *, drain: bool) -> int:
        total = 0
        while True:
            ran = self._pump_once(drain=drain)
            total += ran
            if ran == 0:
                return total

    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stop and not self._pending:
                    self._cond.wait()
                if self._stop:
                    # Leave whatever is still queued to shutdown(), which
                    # either drains it or fails the handles.
                    return
            # The policy decides readiness (full batches dispatch before
            # their window expires); zero batches means wait.
            ran = self._pump_once(drain=False)
            if ran == 0:
                with self._cond:
                    if self._stop:
                        return
                    if not self._pending:
                        continue
                    now = time.monotonic()
                    oldest = min(req.enqueued_at for req in self._pending)
                    wait_s = max(self.window_s - (now - oldest), 0.0)
                    # Sleep until the oldest window expires or a submission
                    # arrives.
                    self._cond.wait(timeout=max(wait_s, 1e-4))

    # -- batch execution -----------------------------------------------------
    def _execute_batch(self, batch: List[ServiceRequest]) -> None:
        with self._exec_lock:
            batch_id = self._batch_seq
            self._batch_seq += 1
            dispatched_at = time.monotonic()
            try:
                results = self._run_batch(batch, batch_id, dispatched_at)
            except Exception as exc:  # noqa: BLE001 - fail the whole batch
                logger.warning("batch %d failed: %s", batch_id, exc)
                for req in batch:
                    req.handle._fail(exc)
                    self.stats.record_failure()
                return
            for req, res in zip(batch, results):
                self.stats.record_request(res)
                req.handle._resolve(res)

    def _run_batch(self, batch: List[ServiceRequest], batch_id: int,
                   dispatched_at: float) -> List[RequestResult]:
        width = len(batch)
        spec = batch[0].spec
        with self._lock:
            entry = self._matrices[batch[0].matrix_id]
        solver_name = spec.resolved_solver()
        if width == 1:
            # Identical dispatch path to a direct ``repro.solve`` call.
            rhs: np.ndarray = batch[0].rhs
        else:
            rhs = np.column_stack([req.rhs for req in batch])
        result = solve(entry.problem, rhs, spec=spec)
        solved_at = time.monotonic()
        self.stats.record_batch(width)

        solve_s = solved_at - dispatched_at
        last_enqueued = max(req.enqueued_at for req in batch)
        if width == 1:
            columns = [result]
        else:
            assert isinstance(result, BlockSolveResult)
            columns = [result.column(j) for j in range(width)]
        weights = [float(col.iterations + 1) for col in columns]
        charges = split_charges(result.time_breakdown, weights)
        sim_shares = exact_shares(result.simulated_time, weights)

        out: List[RequestResult] = []
        for j, req in enumerate(batch):
            col = columns[j]
            out.append(RequestResult(
                request_id=req.seq,
                tenant=req.tenant,
                matrix_id=req.matrix_id,
                x=col.x,
                converged=bool(col.converged),
                iterations=int(col.iterations),
                residual_norms=[float(v) for v in col.residual_norms],
                final_residual_norm=float(col.final_residual_norm),
                true_residual_norm=float(col.true_residual_norm),
                solver=solver_name,
                batch_id=batch_id,
                batch_width=width,
                batch_column=j,
                simulated_time=sim_shares[j],
                charges=charges[j],
                queue_wait_s=dispatched_at - req.enqueued_at,
                batch_wait_s=max(0.0, last_enqueued - req.enqueued_at),
                solve_s=solve_s,
            ))
        return out
