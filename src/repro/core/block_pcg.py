"""Distributed preconditioned conjugate gradients (Alg. 1), one or many RHS.

:class:`BlockPCG` is the library's only PCG iteration.  It solves
``A X = B`` for ``k`` right-hand sides by running ``k`` *independent* PCG
recurrences in lock-step on block-row distributed ``(n_i, k)`` blocks; a
single right-hand side is the ``k = 1`` case.  Every operation is charged to
the latency-bandwidth cost model, so the accumulated simulated time of a run
is the ``t0`` (reference time) of the paper's Table 2.

**One vector in, one vector out.**  A 1-D
:class:`~repro.distributed.dvector.DistributedVector` right-hand side *is*
a ``k = 1`` block: the solver runs on the plain multi-vector view of its
storage (no copy), so a recovery that restores the solver's rhs blocks
restores the caller's vector, and the run comes back as a
:class:`DistributedSolveResult` (:meth:`BlockSolveResult.column`).  The
result type is the one place the solver distinguishes the two.
``DistributedPCG`` is the same class under the single-vector name.

Per iteration the solver performs exactly the Alg. 1 steps on whole blocks:

* one batched SpMV ``AP = A P`` -- one halo exchange, message count
  independent of ``k``, ``k``-fold volume (optionally split-phase with
  comm/compute overlap via ``overlap_spmv=True``);
* one block-local preconditioner application per rank on its residual
  block (:meth:`Preconditioner.apply_block`, 1-D for ``k = 1``);
* three batched reductions (``P^T AP``, ``R^T Z``, ``R^T R``) through
  :meth:`DistributedMultiVector.dots` -- each sums one ``(N, k)`` array of
  per-rank partial dots in **one** allreduce instead of ``k`` scalar
  allreduces, so the allreduce *message* count per iteration is independent
  of ``k`` while the volume scales with ``k`` (see
  :meth:`Communicator.allreduce_sum` / :meth:`MachineModel.allreduce_time`).
  With ``fuse_reductions=True`` the adjacent trailing pair ``R^T Z`` /
  ``R^T R`` additionally ships as **one** ``2k``-wide collective (3 -> 2
  reductions per iteration, bit-identical iterates; off by default, which
  keeps the paper's per-iteration charges).

**Equivalence contract.**  The recurrences are independent (per-column
``alpha_j`` / ``beta_j``, no Gram coupling), every block operation is
per-column bit-identical to the ``k = 1`` run of that column, and the partial
sums of the batched reductions accumulate in the same rank order -- so
column ``j``'s iterates and residual history are **bit-identical** to a
sequential solve of ``A x = b_j`` on the same execution path.  Columns that
converge (or break down) are *frozen*: their coefficients are forced to zero
so the lock-step block updates leave them untouched bit-for-bit, their
history stops growing -- exactly where the sequential solve stopped -- and
the remaining columns continue.

**Non-finite columns.**  A column whose ``r^T z``, ``p^T A p`` or residual
norm comes out NaN or infinite (a non-finite rhs or ``x0`` entry, an
overflow) is frozen the same way, with ``converged=False``, and listed in
``info["nonfinite_columns"]``.  The check reads the scalars the reductions
already delivered to every rank: no extra collective, no charge.  A frozen
non-finite column's own iterate is not meaningful; the other columns are
unaffected.

The class exposes protected hooks (``_on_setup``, ``_after_spmv``,
``_handle_failures``, ``_after_iteration``) that the resilient variant and
the baseline recovery strategies override to add redundancy and failure
recovery without duplicating the iteration loop.

``benchmarks/bench_block_pcg.py`` measures the amortization at
``k in {1, 4, 8}`` and pins the equivalence contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from .. import sanitizer as _sanitizer
from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import Phase
from ..distributed.comm_context import CommunicationContext
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import (
    DistributedMultiVector,
    fused_dots,
    norms_from_dots,
)
from ..distributed.dvector import DistributedVector
from ..distributed.partition import BlockRowPartition
from ..distributed.spmv import distributed_spmv
from ..precond.base import Preconditioner
from ..precond.identity import IdentityPreconditioner
from ..solvers.result import SolveResult, jsonify
from ..utils.logging import get_logger
from ..utils.validation import check_finite

logger = get_logger("core.block_pcg")


@dataclass
class DistributedSolveResult(SolveResult):
    """Solve result of a single-RHS run, including simulated-time accounting."""

    #: Total simulated time of the run (seconds in the cost model).
    simulated_time: float = 0.0
    #: Simulated time spent in failure-free iteration phases.
    simulated_iteration_time: float = 0.0
    #: Simulated time spent recovering from failures.
    simulated_recovery_time: float = 0.0
    #: Per-phase simulated time breakdown.
    time_breakdown: Dict[str, float] = field(default_factory=dict)
    #: One entry per recovery episode (empty for failure-free runs).
    recoveries: List[object] = field(default_factory=list)

    @property
    def n_failures_recovered(self) -> int:
        return int(sum(len(getattr(r, "failed_ranks", [])) for r in self.recoveries))

    def to_dict(self, *, include_solution: bool = False,
                include_history: bool = True) -> Dict[str, object]:
        """Extend :meth:`SolveResult.to_dict` with simulated-time accounting."""
        data = super().to_dict(include_solution=include_solution,
                               include_history=include_history)
        data["simulated_time"] = float(self.simulated_time)
        data["simulated_iteration_time"] = float(self.simulated_iteration_time)
        data["simulated_recovery_time"] = float(self.simulated_recovery_time)
        data["time_breakdown"] = {k: float(self.time_breakdown[k])
                                  for k in sorted(self.time_breakdown)}
        data["n_failures_recovered"] = self.n_failures_recovered
        data["recoveries"] = [jsonify(r) for r in self.recoveries]
        return data


@dataclass
class BlockSolveResult:
    """Per-column results of one :class:`BlockPCG` run, plus time accounting.

    All per-column sequences are indexed by the column ``j`` of the
    right-hand-side block; ``residual_histories[j]`` matches the
    ``residual_norms`` a sequential solve of column ``j`` records
    (bit-for-bit on the same execution path).
    """

    #: Global ``(n, k)`` solution block.
    x: np.ndarray = None
    #: Per-column convergence flags.
    converged: List[bool] = field(default_factory=list)
    #: Per-column completed-iteration counts.
    iterations: List[int] = field(default_factory=list)
    #: Per-column preconditioned-CG residual-norm histories.
    residual_histories: List[List[float]] = field(default_factory=list)
    #: Last recurrence residual norm of each column.
    final_residual_norms: List[float] = field(default_factory=list)
    #: ``||b_j - A x_j||`` recomputed from the assembled solution.
    true_residual_norms: List[float] = field(default_factory=list)
    #: Solver metadata (preconditioner, k, thresholds, breakdown columns...).
    info: Dict[str, object] = field(default_factory=dict)
    #: Lock-step outer iterations executed (``max(iterations)`` unless every
    #: column broke down early).
    global_iterations: int = 0
    #: Total simulated time of the run (seconds in the cost model).
    simulated_time: float = 0.0
    #: Simulated time spent in failure-free iteration phases.
    simulated_iteration_time: float = 0.0
    #: Simulated time spent recovering from failures (resilient runs only).
    simulated_recovery_time: float = 0.0
    #: Per-phase simulated time breakdown.
    time_breakdown: Dict[str, float] = field(default_factory=dict)
    #: One entry per recovery episode (empty for failure-free/plain runs).
    recoveries: List[object] = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return bool(self.converged) and all(self.converged)

    @property
    def n_failures_recovered(self) -> int:
        return int(sum(len(getattr(r, "failed_ranks", []))
                       for r in self.recoveries))

    def column(self, j: int) -> DistributedSolveResult:
        """Column *j* as a single-RHS result.

        Solution, history, convergence and threshold are column *j*'s; the
        time accounting and recovery episodes are the whole run's (for a
        ``k = 1`` run that is exactly the single-vector solve's).
        """
        info = dict(self.info)
        info["threshold"] = info.pop("thresholds")[j]
        return DistributedSolveResult(
            x=np.array(self.x[:, j], copy=True),
            converged=bool(self.converged[j]),
            iterations=int(self.iterations[j]),
            residual_norms=list(self.residual_histories[j]),
            final_residual_norm=float(self.final_residual_norms[j]),
            true_residual_norm=float(self.true_residual_norms[j]),
            info=info,
            simulated_time=self.simulated_time,
            simulated_iteration_time=self.simulated_iteration_time,
            simulated_recovery_time=self.simulated_recovery_time,
            time_breakdown=dict(self.time_breakdown),
            recoveries=list(self.recoveries),
        )

    def summary(self) -> str:
        """One-line human-readable summary (the block counterpart of
        :meth:`SolveResult.summary`, reporting the worst column)."""
        status = ("all converged" if self.all_converged
                  else "NOT all converged")
        worst = max(self.true_residual_norms) if self.true_residual_norms \
            else float("nan")
        return (
            f"{status}: k={len(self.converged)}, iterations="
            f"{list(self.iterations)}, max ||b_j - A x_j|| = {worst:.3e}"
        )

    def to_dict(self, *, include_solution: bool = False,
                include_history: bool = True) -> Dict[str, object]:
        """JSON-serializable dictionary (block counterpart of
        :meth:`SolveResult.to_dict`: per-column lists instead of scalars,
        plus the simulated-time accounting and recovery episodes)."""
        data: Dict[str, object] = {
            "converged": [bool(c) for c in self.converged],
            "all_converged": self.all_converged,
            "iterations": [int(i) for i in self.iterations],
            "global_iterations": int(self.global_iterations),
            "final_residual_norms": [float(v)
                                     for v in self.final_residual_norms],
            "true_residual_norms": [float(v)
                                    for v in self.true_residual_norms],
            "info": jsonify(self.info),
            "simulated_time": float(self.simulated_time),
            "simulated_iteration_time": float(self.simulated_iteration_time),
            "simulated_recovery_time": float(self.simulated_recovery_time),
            "time_breakdown": {k: float(self.time_breakdown[k])
                               for k in sorted(self.time_breakdown)},
            "n_failures_recovered": self.n_failures_recovered,
            "recoveries": [jsonify(r) for r in self.recoveries],
        }
        if include_history:
            data["residual_histories"] = [[float(v) for v in history]
                                          for history in
                                          self.residual_histories]
        if include_solution and self.x is not None:
            data["x"] = jsonify(self.x)
        return data


class BlockPCG:
    """Lock-step (multi-RHS) PCG on a :class:`VirtualCluster`.

    See the module docstring for the batching/equivalence contract.  This
    base class has no failure handling of its own -- a node failure raises
    out of :meth:`solve`; the resilient variant
    (:class:`~repro.core.resilient_block_pcg.ResilientBlockPCG`) and the
    baselines (:mod:`repro.baselines`) override the protected hooks.
    """

    #: Prefix for the names of the solver's distributed work blocks.
    vector_prefix = "bpcg"

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None,
                 context: Optional[CommunicationContext] = None,
                 overlap_spmv: bool = False,
                 fuse_reductions: bool = False):
        self.matrix = matrix
        self.cluster: VirtualCluster = matrix.cluster
        self.partition: BlockRowPartition = matrix.partition
        if not self.partition.is_compatible_with(rhs.partition):
            raise ValueError("matrix and right-hand sides have incompatible partitions")
        #: A 1-D right-hand side: :meth:`solve` returns a single-RHS result.
        self.single_rhs = isinstance(rhs, DistributedVector)
        #: The rhs blocks -- for a vector, the ``k = 1`` view of its storage.
        self.rhs = rhs.as_multivector()
        self.n_cols = rhs.n_cols
        #: Execute the batched SpMVs split-phase (halo exchange overlapped
        #: with the diagonal-block product) and charge the overlap-aware
        #: cost.  Off by default: the serialized kernel is bit-exact, while
        #: split execution rounds like PETSc's overlapped MatMult (last-bits
        #: differences; see repro.distributed.spmv_engine).
        self.overlap_spmv = bool(overlap_spmv)
        #: Ship the trailing ``R^T Z`` and ``R^T R`` reductions of each
        #: iteration as **one** ``2k``-wide allreduce (3 -> 2 reductions per
        #: iteration; see :func:`~repro.distributed.dmultivector.fused_dots`).
        #: Off by default: fusing keeps per-column iterates and histories
        #: bit-identical but lowers the latency charge below the paper's
        #: three reductions per iteration.
        self.fuse_reductions = bool(fuse_reductions)
        self.preconditioner = (
            preconditioner if preconditioner is not None else IdentityPreconditioner()
        )
        if not self.preconditioner.is_block_diagonal:
            raise ValueError(
                "the distributed PCG solver requires a block-diagonal "
                f"preconditioner; {self.preconditioner.name} is not"
            )
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_iterations = (
            int(max_iterations) if max_iterations is not None else 10 * self.partition.n
        )
        self.context = context if context is not None else \
            CommunicationContext.from_matrix(matrix)
        if not self.preconditioner.is_set_up:
            self.preconditioner.setup(matrix.to_global(), self.partition)

        # Work blocks (created lazily in solve()).
        self.x: Optional[DistributedMultiVector] = None
        self.r: Optional[DistributedMultiVector] = None
        self.z: Optional[DistributedMultiVector] = None
        self.p: Optional[DistributedMultiVector] = None
        self.ap: Optional[DistributedMultiVector] = None
        #: Per-column r^T z of the current iterates (an attribute so that
        #: roll-back recovery strategies can reset it).
        self.rz: Optional[np.ndarray] = None
        #: Per-column ``beta^(j-1)`` of the recurrences (frozen columns carry
        #: an exact ``0.0``).  The resilient variant replicates and recovers
        #: this coefficient vector.
        self.beta_prev: Optional[np.ndarray] = None
        #: Per-column completed-iteration counts.
        self.iterations: Optional[np.ndarray] = None
        #: Lock-step iterations executed so far (checkpoint roll-back
        #: rewinds it).
        self.global_iterations: int = 0
        #: Columns still iterating (not yet converged / broken down).
        self.active: Optional[np.ndarray] = None
        #: Columns frozen by a ``p^T A p <= 0`` breakdown.
        self.breakdown: Optional[np.ndarray] = None
        #: Columns frozen by a non-finite ``r^T z``, ``p^T A p`` or
        #: residual norm.
        self.nonfinite: Optional[np.ndarray] = None
        self.residual_histories: List[List[float]] = []

    # -- hooks overridden by the resilient variant and the baselines -------
    def _on_setup(self) -> None:
        """Called once after the work blocks have been initialised."""

    def _after_spmv(self, iteration: int) -> None:
        """Called right after the batched SpMV of *iteration* (halo data just
        moved -- the ESR redundancy exchange piggybacks here)."""

    def _handle_failures(self, iteration: int) -> bool:
        """Check for and recover from node failures.

        Returns true if a recovery took place; the lock-step iteration is
        then restarted from the top of the loop (the batched SpMV is redone
        on the recovered -- and, for roll-back strategies, possibly rewound
        -- state).
        """
        return False

    def _after_iteration(self, iteration: int) -> None:
        """Called at the end of every completed lock-step iteration."""

    # -- building blocks ----------------------------------------------------
    def _mvec(self, suffix: str) -> DistributedMultiVector:
        return DistributedMultiVector.zeros(
            self.cluster, self.partition, f"{self.vector_prefix}:{suffix}",
            self.n_cols,
        )

    def _apply_preconditioner(self, residual: DistributedMultiVector,
                              out: DistributedMultiVector
                              ) -> DistributedMultiVector:
        """Block-local application, one :meth:`Preconditioner.apply_block`
        call per rank, charged once.

        A single right-hand side takes the 1-D path: each rank's block is
        the storage's contiguous ``(n_i,)`` view
        (:meth:`DistributedMultiVector.vector_blocks`) and the result is
        written into the target's view.  ``k`` right-hand sides take the
        2-D path on the ``(n_i, k)`` views.  The bulk-synchronous charge is
        the worst rank's block work (static, so it comes from the cached
        :meth:`Preconditioner.max_block_work_nnz`) scaled by the column
        count -- ``k`` independent applications back to back.
        """
        model = self.cluster.ledger.model
        apply_block = self.preconditioner.apply_block
        if self.n_cols == 1:
            blocks = residual.vector_blocks()
            targets = out.vector_blocks(overwrite=True)
        else:
            blocks = residual.blocks()
            targets = out.blocks(overwrite=True)
        for rank, block in enumerate(blocks):
            targets[rank][...] = apply_block(rank, block)
        self.cluster.ledger.add_time(
            Phase.PRECOND_COMPUTE,
            model.precond_apply_time(
                self.preconditioner.max_block_work_nnz() * self.n_cols
            ),
        )
        return out

    def _initial_guess_block(self, x0) -> DistributedMultiVector:
        """The iterate block ``X(0)``, validated: finite values, and the
        shape of the right-hand side -- ``(n,)`` for a 1-D rhs, ``(n, k)``
        for a block (a distributed ``x0`` must have ``k`` columns)."""
        name = f"{self.vector_prefix}:x"
        if x0 is None:
            return self._mvec("x")
        if isinstance(x0, DistributedMultiVector):
            if x0.n_cols != self.n_cols:
                raise ValueError(
                    f"x0 has {x0.n_cols} columns but the right-hand side "
                    f"has {self.n_cols}"
                )
            if x0.cluster is not self.cluster or \
                    not self.partition.is_compatible_with(x0.partition):
                raise ValueError(
                    "x0 lives on another cluster or partition than the "
                    "right-hand side"
                )
            x = x0.as_multivector().copy(name)
            check_finite(x.stacked(), "x0")
            return x
        values = check_finite(x0, "x0")
        n, k = self.partition.n, self.n_cols
        shape = (n,) if self.single_rhs else (n, k)
        if values.shape != shape:
            raise ValueError(f"x0 must have shape {shape}, got {values.shape}")
        return DistributedMultiVector.from_global(
            self.cluster, self.partition, name, values.reshape(n, k))

    def _spmv(self, x: DistributedMultiVector,
              out: DistributedMultiVector) -> None:
        """``out = A x`` through the batched kernel (one halo exchange)."""
        distributed_spmv(self.matrix, x, out, self.context,
                         overlap=self.overlap_spmv)

    def _spmv_p(self) -> None:
        """``AP = A P`` -- split out so recovery can repeat it."""
        self._spmv(self.p, self.ap)

    def _reset_krylov(self) -> None:
        """Recompute ``R = B - A X``, ``Z = M^{-1} R`` and ``P = Z`` from the
        current iterate -- the set-up, and the baselines' restarts."""
        self._spmv(self.x, self.ap)
        self.r.assign(self.rhs)
        self.r.axpy(-1.0, self.ap)
        self._apply_preconditioner(self.r, self.z)
        self.p.assign(self.z)

    @staticmethod
    def _masked_ratio(numer: np.ndarray, denom: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
        """``numer / denom`` where *mask*, exact ``0.0`` elsewhere.

        Frozen columns get coefficient zero so the lock-step block updates
        leave their (finite) iterates bit-identical; the guarded divide also
        keeps a frozen column's ``0/0`` from manufacturing NaNs that the
        block updates would then spread.
        """
        out = np.zeros_like(numer)
        np.divide(numer, denom, out=out, where=mask)
        return out

    def _freeze_nonfinite(self, columns: np.ndarray, iteration: int) -> None:
        """Freeze the *columns* (a mask) whose reductions came out non-finite.

        Like a breakdown, the column stops iterating with
        ``converged=False``; it is listed in ``info["nonfinite_columns"]``.
        """
        for col in np.nonzero(columns)[0]:
            logger.warning(
                "non-finite reduction for column %d at iteration %d; "
                "freezing the column", col, iteration
            )
        self.nonfinite |= columns
        self.active &= ~columns

    # -- main loop -----------------------------------------------------------
    def solve(self, x0: Union[None, np.ndarray, DistributedMultiVector] = None
              ) -> Union[BlockSolveResult, DistributedSolveResult]:
        """Run the lock-step PCG until every column converged, froze, or the
        iteration cap was reached.

        Returns a :class:`BlockSolveResult`, or -- for a 1-D right-hand side
        -- its single column as a :class:`DistributedSolveResult`.
        """
        k = self.n_cols
        ledger = self.cluster.ledger
        start_snapshot = ledger.snapshot()

        self.x = self._initial_guess_block(x0)
        self.r = self._mvec("r")
        self.z = self._mvec("z")
        self.p = self._mvec("p")
        self.ap = self._mvec("ap")

        # R(0) = B - A X(0); Z(0) = M^{-1} R(0); P(0) = Z(0)
        self._reset_krylov()

        if self.fuse_reductions:
            # The setup pair R^T Z / R^T R fuses exactly like the trailing
            # pair of each iteration.
            rz0, rr0 = fused_dots([(self.r, self.z), (self.r, self.r)])
            self.rz = rz0
            r_norms = norms_from_dots(rr0)
            n_reductions = 1
        else:
            self.rz = self.r.dots(self.z)
            r_norms = self.r.norms2()
            # Batched reductions performed so far (2 at setup: rz and ||r0||).
            n_reductions = 2
        thresholds = np.maximum(self.rtol * r_norms, self.atol)
        self.residual_histories = [[float(r_norms[j])] for j in range(k)]
        self.iterations = np.zeros(k, dtype=np.int64)
        self.breakdown = np.zeros(k, dtype=bool)
        self.nonfinite = np.zeros(k, dtype=bool)
        self.active = ~(r_norms <= thresholds)
        # A non-finite rhs (or preconditioned residual) never iterates: an
        # inf norm would otherwise meet its own inf threshold.
        self._freeze_nonfinite(~(np.isfinite(self.rz) & np.isfinite(r_norms)),
                               0)
        self.beta_prev = np.zeros(k)
        self.global_iterations = 0
        self._on_setup()
        # ``n_reductions`` counts the batched collectives so far; it is
        # exposed via the result so harnesses can verify the one-collective-
        # per-reduction contract without reconstructing the loop's control
        # flow (an all-columns breakdown aborts an iteration after its first
        # reduction).

        while np.any(self.active) and self.global_iterations < self.max_iterations:
            j = self.global_iterations
            if _sanitizer._ACTIVE is not None:
                _sanitizer._ACTIVE.note_iteration(j, solver=self)
            # --- Alg. 1 line 3 first half: the batched SpMV (and, in the
            #     resilient variant, the ESR redundancy exchange)
            self._spmv_p()
            self._after_spmv(j)
            # Node failures strike here (after the halo data of this
            # iteration has moved, as assumed by the ESR recovery).  If a
            # recovery ran, restart the lock-step iteration from the top:
            # the batched SpMV is repeated on the recovered (or, for
            # roll-back strategies, rewound) state.
            if self._handle_failures(j):
                continue

            pap = self.p.dots(self.ap)
            n_reductions += 1

            # Breakdown (p^T A p <= 0) and non-finite columns freeze
            # *before* the update, exactly where the sequential solve stops.
            finite = np.isfinite(pap)
            stop = self.active & ~(finite & (pap > 0.0))
            if stop.any():
                broken = stop & finite
                for col in np.nonzero(broken)[0]:
                    logger.warning(
                        "p^T A p = %.3e <= 0 for column %d at iteration %d; "
                        "freezing the column", pap[col], col, j
                    )
                self.breakdown |= broken
                self.active &= ~broken
                self._freeze_nonfinite(stop & ~finite, j)
                if not self.active.any():
                    break
            alpha = self._masked_ratio(self.rz, pap, self.active)
            # --- lines 4-5: iterate and residual updates (frozen columns get
            #     alpha_j = 0, i.e. exact no-ops on their blocks)
            self.x.axpy(alpha, self.p)
            self.r.axpy(-alpha, self.ap)
            # --- line 6: preconditioned residual block
            self._apply_preconditioner(self.r, self.z)
            # --- line 7: per-column beta through one batched allreduce.
            # With fuse_reductions the convergence check's R^T R rides the
            # same collective (R is not touched again before it is needed),
            # one 2k-wide payload instead of two k-wide ones -- component-
            # wise bit-identical either way (see fused_dots).
            if self.fuse_reductions:
                rz_next, rr = fused_dots([(self.r, self.z), (self.r, self.r)])
            else:
                rz_next = self.r.dots(self.z)
            n_reductions += 1
            beta = self._masked_ratio(rz_next, self.rz, self.active)
            # --- line 8: new search directions P = Z + P diag(beta)
            self.p.aypx(beta, self.z)
            self.rz = rz_next
            self.beta_prev = beta
            self.iterations[self.active] += 1
            self.global_iterations = j + 1

            if self.fuse_reductions:
                r_norms = norms_from_dots(rr)
            else:
                r_norms = self.r.norms2()
                n_reductions += 1
            for col in np.nonzero(self.active)[0]:
                self.residual_histories[col].append(float(r_norms[col]))
            finite = np.isfinite(rz_next) & np.isfinite(r_norms)
            if not finite.all():
                self._freeze_nonfinite(self.active & ~finite, j)
            self.active &= ~(r_norms <= thresholds)
            self._after_iteration(self.global_iterations)

        result = self._build_result(start_snapshot, thresholds, n_reductions)
        return result.column(0) if self.single_rhs else result

    # -- result assembly -----------------------------------------------------
    def _build_result(self, start_snapshot: Dict[str, float],
                      thresholds: np.ndarray,
                      n_reductions: int) -> BlockSolveResult:
        ledger = self.cluster.ledger
        x_global = self.x.to_global()
        b_global = self.rhs.to_global()
        a_global = self.matrix.to_global()
        true_residuals = np.linalg.norm(b_global - a_global @ x_global, axis=0)
        converged = ~(self.active | self.breakdown | self.nonfinite)

        # Only phases actually charged during THIS solve: a second solve on
        # the same cluster must not report stale zero-delta phases left on
        # the ledger by an earlier run.
        breakdown_phases = {
            phase: ledger.since(start_snapshot, [phase])
            for phase in sorted(ledger.times)
            if phase not in start_snapshot
            or ledger.times[phase] != start_snapshot[phase]
        }
        return BlockSolveResult(
            x=x_global,
            converged=[bool(c) for c in converged],
            iterations=[int(i) for i in self.iterations],
            residual_histories=[list(h) for h in self.residual_histories],
            final_residual_norms=[h[-1] for h in self.residual_histories],
            true_residual_norms=[float(t) for t in true_residuals],
            info={
                "thresholds": [float(t) for t in thresholds],
                "rtol": self.rtol,
                "atol": self.atol,
                "preconditioner": self.preconditioner.name,
                "n_nodes": self.partition.n_parts,
                "n_cols": self.n_cols,
                "overlap_spmv": self.overlap_spmv,
                "fuse_reductions": self.fuse_reductions,
                "breakdown_columns": [int(j) for j in
                                      np.nonzero(self.breakdown)[0]],
                "nonfinite_columns": [int(j) for j in
                                      np.nonzero(self.nonfinite)[0]],
                "n_reductions": int(n_reductions),
            },
            global_iterations=int(self.global_iterations),
            simulated_time=ledger.since(start_snapshot),
            simulated_iteration_time=ledger.since(start_snapshot,
                                                  Phase.ITERATION_PHASES),
            simulated_recovery_time=ledger.since(start_snapshot,
                                                 Phase.RECOVERY_PHASES),
            time_breakdown=breakdown_phases,
            recoveries=list(getattr(self, "recovery_reports", [])),
        )
