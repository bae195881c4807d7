"""Exact state reconstruction after node failures (Alg. 2, generalised).

Given ``psi <= phi`` failed nodes, the reconstruction restores the full PCG
state ``(x^(j), r^(j), z^(j), p^(j))`` on the replacement nodes:

1. retrieve the static data (``A_{I_f,I}``, preconditioner rows, ``b_{I_f}``)
   from reliable storage,
2. recover the replicated scalar ``beta^(j-1)`` from any survivor,
3. recover ``p^(j)_{I_f}`` and ``p^(j-1)_{I_f}`` from whatever redundancy the
   protocol's scheme keeps on surviving nodes -- full off-node copies for the
   default ``"copies"`` scheme, or Reed--Solomon parity decoding for
   ``"rs_parity"``; either way the recovered block is bit-identical to the
   lost one, so the reconstruction below is scheme-agnostic,
4. compute ``z^(j)_{I_f} = p^(j)_{I_f} - beta^(j-1) p^(j-1)_{I_f}``,
5. reconstruct ``r^(j)_{I_f}`` through the representation the
   preconditioner makes available, its :attr:`~Preconditioner.form`
   (``P = M^{-1}``: solve ``P_{I_f,I_f} r = z - P_{I_f,I\\I_f} r``; ``M``:
   multiply ``r_{I_f} = M_{I_f,I} z``; identity: ``r = z``); a
   preconditioner whose form needs rows it does not expose is rejected
   when the reconstructor is built,
6. compute ``w = b_{I_f} - r^(j)_{I_f} - A_{I_f,I\\I_f} x^(j)`` and solve
   ``A_{I_f,I_f} x^(j)_{I_f} = w`` with a tightly-converged local solver.

Overlapping failures (new nodes dying while the reconstruction runs,
Sec. 4.1) are handled by restarting the procedure with the enlarged failed
set, exactly as the paper prescribes.

**Column count.**  The state operands are ``(n, k)`` multi-vectors (a single
right-hand side is ``k = 1``) and every step runs on whole ``(|I_f|, k)`` row
blocks: the replicated recurrence coefficient is a ``(k,)`` vector, the
recovered search-direction generations are ``(n_i, k)`` blocks, every sparse
product is one CSR x dense-block kernel, and the two local subsystem solves
run through :meth:`LocalSubsystemSolver.solve_block` -- **one factorization
per failed set, amortized over all k columns**, with each column's solution
bit-identical to a standalone solve.  Column ``j`` of the reconstructed
state is therefore bit-identical to the ``k = 1`` reconstruction of column
``j`` alone.

**One failure path.**  The ESR solver and the baselines of
:mod:`repro.baselines` handle failures through :class:`FailureHandlingMixin`:
a ``failures`` schedule in the ``ResilienceSpec.failures`` form, due events
fired and detected each iteration, one :class:`RecoveryReport` per episode.
The right-hand side is static data: the mixin deposits it in reliable
storage (:func:`store_rhs`), :func:`restore_rhs` brings a lost block back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .. import sanitizer as _sanitizer
from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import Phase
from ..cluster.errors import UnrecoverableStateError
from ..cluster.failure import FailureInjector
from ..distributed.comm_context import CommunicationContext
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..distributed.partition import BlockRowPartition
from ..precond.base import Preconditioner, PreconditionerForm
from ..solvers.local_solver import LocalSolveStats, LocalSubsystemSolver
from ..utils.logging import get_logger
from ..utils.serde import Serializable
from .esr import ESRProtocol
from .spec import build_failure_events

logger = get_logger("core.reconstruction")

#: Maximum number of reconstruction restarts caused by overlapping failures
#: before giving up (prevents infinite loops on pathological schedules).
MAX_RECONSTRUCTION_RESTARTS = 64


def _rhs_key(rhs, rank: int) -> tuple:
    return (f"rhs:{rhs.name}", rank)


def store_rhs(cluster: VirtualCluster, rhs) -> None:
    """Deposit *rhs*'s blocks in reliable storage (solver set-up, free).

    Every call replaces what an earlier solve stored under the same name, so
    a recovery always restores the right-hand side of the solve it runs in.
    """
    for rank in range(rhs.partition.n_parts):
        cluster.storage.put(_rhs_key(rhs, rank), rhs.get_block(rank).copy())


def restore_rhs(cluster: VirtualCluster, rhs, rank: int) -> None:
    """Retrieve *rank*'s block of *rhs* from reliable storage (charged to
    the recovery) onto the replacement node."""
    rhs.restore_block(rank, cluster.storage.retrieve(_rhs_key(rhs, rank),
                                                     charge=True))


def charge_reverse_scatter(cluster: VirtualCluster,
                           context: CommunicationContext,
                           failed: Sequence[int], n_cols: int) -> None:
    """Charge the survivors' messages of a reverse scatter to *failed*.

    The SpMV scatter reversed (Sec. 6): for each failed rank in order,
    every surviving sender ``i`` (ascending) ships the ``|S_ik|`` elements
    the failed rows reference, all *n_cols* columns in one message.
    """
    ledger = cluster.ledger
    for dst in failed:
        for src in context.senders_to(dst):
            if src in failed:
                continue
            count = context.send_count(src, dst) * n_cols
            latency = cluster.topology.latency(src, dst)
            ledger.add_time(Phase.RECOVERY_COMM,
                            ledger.model.message_time(latency, count))
            ledger.add_traffic(Phase.RECOVERY_COMM, 1, count)


@dataclass
class RecoveryReport(Serializable):
    """Outcome and cost of one recovery episode (of any strategy)."""

    iteration: int
    failed_ranks: List[int]
    #: Reconstruction restarts caused by overlapping failures (ESR only:
    #: the baselines fold an overlapping failure into the failed set).
    restarts: int = 0
    simulated_time: float = 0.0
    wallclock_time: float = 0.0
    reconstruction_form: str = ""
    local_solve_stats: List[LocalSolveStats] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return len(self.failed_ranks)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dictionary of the episode, then ``n_failures``
        (wallclock is reported as-is and is the only non-deterministic
        field)."""
        data = super().to_dict()
        data["n_failures"] = self.n_failures
        return data


class FailureHandlingMixin:
    """The one failure path of every recovering solver.

    Mixed in before :class:`~repro.core.block_pcg.BlockPCG`, whose
    ``failure_injector`` and ``recovery_reports`` it fills.  The subclass
    implements ``_recover(failed, iteration)``: restore the solver state
    after the failure of the sorted ranks *failed*, return the episode's
    :class:`RecoveryReport`.
    """

    def _init_failure_handling(self, failures: Iterable) -> None:
        """Build the injector of *failures* (normalised like
        ``ResilienceSpec.failures``), reject a rank outside the cluster
        before anything runs, and store the right-hand side."""
        events = build_failure_events(failures)
        if events:
            self.failure_injector = FailureInjector(events)
            self.failure_injector.check_ranks(self.partition.n_parts)
        store_rhs(self.cluster, self.rhs)

    def _fire_due_failures(self, iteration: int, *,
                           overlapping: bool = False) -> List[int]:
        """Fire the events due at *iteration* (with *overlapping*, those
        striking during a recovery) in schedule order; return the failed
        ranks ULFM detects, sorted."""
        injector = self.failure_injector
        failed: List[int] = []
        for idx, event in injector.events_due(iteration,
                                              overlapping=overlapping):
            injector.trigger(idx, self.cluster.nodes)
            failed.extend(event.ranks)
        if not failed:
            return failed
        failed = sorted(set(failed) | set(self.cluster.ulfm.detect_failures()))
        logger.info("iteration %d: %sfailure of ranks %s", iteration,
                    "overlapping " if overlapping else "", failed)
        return failed

    def _handle_failures(self, iteration: int) -> bool:
        """Fire the failures due at *iteration* and recover from them: one
        episode, timed on both clocks, appended to ``recovery_reports``.  A
        loss the strategy cannot recover from raises
        :class:`~repro.cluster.errors.UnrecoverableStateError` with
        ``.iteration`` set to *iteration*."""
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_resilience_hook(self, "handle_failures")
        if self.failure_injector is None:
            return super()._handle_failures(iteration)
        failed = self._fire_due_failures(iteration)
        if not failed:
            return super()._handle_failures(iteration)
        ledger = self.cluster.ledger
        start_snapshot = ledger.snapshot()
        wall_start = time.perf_counter()
        try:
            report = self._recover(failed, iteration)
        except UnrecoverableStateError as exc:
            # Tag the loss point so campaign-style consumers can report a
            # time-to-unrecoverable-loss distribution from the typed error.
            exc.iteration = iteration
            raise
        report.simulated_time = ledger.since(start_snapshot,
                                             Phase.RECOVERY_PHASES)
        report.wallclock_time = time.perf_counter() - wall_start
        self.recovery_reports.append(report)
        return True


class ESRReconstructor:
    """Implements the (multi-node) ESR reconstruction phase.

    Its local subsystem solves are the paper's (Sec. 6): a
    :class:`LocalSubsystemSolver` with its defaults, an ILU-preconditioned
    inner PCG run to a ``1e-14`` residual reduction.
    """

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector, preconditioner: Preconditioner,
                 esr: ESRProtocol):
        form = preconditioner.form
        accessor = {PreconditionerForm.FORWARD: "forward_rows",
                    PreconditionerForm.INVERSE: "inverse_rows"}.get(form)
        if accessor is not None and getattr(type(preconditioner), accessor) \
                is getattr(Preconditioner, accessor):
            # Checked here: the recovery would otherwise replace the failed
            # nodes and only then find the rows it needs missing.
            raise TypeError(
                f"{type(preconditioner).__name__} has the {form.value} "
                f"reconstruction form but does not implement {accessor}")
        self.cluster: VirtualCluster = esr.cluster
        self.matrix = matrix
        self.rhs = rhs
        self.preconditioner = preconditioner
        self.context: CommunicationContext = esr.context
        self.esr = esr
        self.partition: BlockRowPartition = matrix.partition
        #: The column count ``k`` of the state (that of the ESR protocol,
        #: the component that stores the copies being recovered).
        self.n_cols = esr.n_cols
        rhs_cols = getattr(rhs, "n_cols", None)
        if rhs_cols != self.n_cols:
            raise ValueError(
                f"right-hand side has n_cols={rhs_cols} but the ESR protocol "
                f"protects n_cols={self.n_cols} operands"
            )

    # -- main entry point ----------------------------------------------------------------
    def reconstruct(self, failed_ranks: Iterable[int], *, iteration: int,
                    x: DistributedMultiVector, r: DistributedMultiVector,
                    z: DistributedMultiVector, p: DistributedMultiVector,
                    overlap_provider: Optional[Callable[[], List[int]]] = None
                    ) -> RecoveryReport:
        """Recover the solver state after the failure of *failed_ranks*.

        Parameters
        ----------
        failed_ranks:
            Ranks that have failed (their nodes must currently be failed).
        iteration:
            The iteration ``j`` whose state is being restored (the SpMV of
            iteration ``j`` has already distributed copies of ``p^(j)``).
        x, r, z, p:
            The solver's ``(n, k)`` state multi-vectors; blocks of the
            failed ranks are rewritten in place on the replacement nodes.
        overlap_provider:
            Callable returning ranks that failed *while this reconstruction
            was running*; when it returns a non-empty list the reconstruction
            is restarted with the enlarged failed set.

        Raises :class:`UnrecoverableStateError` when a copy it needs (of a
        search-direction element or of ``beta``) survives on no node.
        """
        pending = sorted(set(int(f) for f in failed_ranks))
        report = RecoveryReport(iteration=iteration, failed_ranks=list(pending))
        report.reconstruction_form = self.preconditioner.form.value

        restarts = 0
        while True:
            self._reconstruct_once(pending, iteration, x, r, z, p, report)
            new_failures = list(overlap_provider()) if overlap_provider else []
            if not new_failures:
                break
            restarts += 1
            if restarts > MAX_RECONSTRUCTION_RESTARTS:
                raise UnrecoverableStateError(
                    "reconstruction restarted too many times due to "
                    f"overlapping failures (> {MAX_RECONSTRUCTION_RESTARTS})"
                )
            pending = sorted(set(pending) | set(int(f) for f in new_failures))
            report.notes.append(
                f"overlapping failure of ranks {sorted(new_failures)}; "
                f"reconstruction restarted with failed set {pending}"
            )

        report.failed_ranks = list(pending)
        report.restarts = restarts
        return report

    # -- single reconstruction pass -----------------------------------------------------------
    def _reconstruct_once(self, failed_ranks: Sequence[int], iteration: int,
                          x: DistributedMultiVector, r: DistributedMultiVector,
                          z: DistributedMultiVector, p: DistributedMultiVector,
                          report: RecoveryReport) -> None:
        cluster = self.cluster
        ledger = cluster.ledger
        partition = self.partition

        # Step 0: install replacement nodes for every rank that is still failed.
        still_failed = [f for f in failed_ranks if cluster.node(f).is_failed]
        if still_failed:
            cluster.ulfm.detect_failures()
            cluster.replace_nodes(still_failed)

        failed = sorted(set(int(f) for f in failed_ranks))
        failed_indices = partition.indices_of_set(failed)

        # Step 1: static data from reliable storage (charged to recovery.storage).
        a_rows = self.matrix.recovery_rows(failed, charge=True)
        for rank in failed:
            self.matrix.restore_block_to_node(rank, charge=False)
            restore_rhs(cluster, self.rhs, rank)

        # Step 2/3: the replicated per-column ``(k,)`` coefficient vector and
        # the two most recent ``(n_i, k)`` search-direction generations; the
        # recurrence below broadcasts per column.
        beta_prev = self.esr.recover_replicated_vector("beta")

        p_cur_blocks: Dict[int, np.ndarray] = {}
        p_prev_blocks: Dict[int, np.ndarray] = {}
        for rank in failed:
            p_cur_blocks[rank] = self.esr.recover_block(rank, iteration)
            if iteration > 0:
                p_prev_blocks[rank] = self.esr.recover_block(rank, iteration - 1)
            else:
                p_prev_blocks[rank] = np.zeros((partition.size_of(rank),
                                                self.n_cols))

        # Step 4: z_{I_f} = p^(j)_{I_f} - beta^(j-1) p^(j-1)_{I_f}
        z_blocks = {
            rank: p_cur_blocks[rank] - beta_prev * p_prev_blocks[rank]
            for rank in failed
        }
        ledger.add_time(
            Phase.RECOVERY_COMPUTE,
            ledger.model.vector_op_time(
                int(failed_indices.size) * self.n_cols, 2.0
            ),
        )

        # Steps 5-6: reconstruct the residual r_{I_f}.
        r_blocks, local_stats_r = self._reconstruct_residual(
            failed, failed_indices, z_blocks, r, z
        )
        if local_stats_r is not None:
            report.local_solve_stats.append(local_stats_r)

        # Steps 7-8: reconstruct the iterate x_{I_f}.
        x_blocks, local_stats_x = self._reconstruct_iterate(
            failed, failed_indices, a_rows, r_blocks, x
        )
        if local_stats_x is not None:
            report.local_solve_stats.append(local_stats_x)

        # Write everything back onto the replacement nodes (the shared
        # restore path of the distributed containers: defensive copies).
        for rank in failed:
            p.restore_block(rank, p_cur_blocks[rank])
            z.restore_block(rank, z_blocks[rank])
            r.restore_block(rank, r_blocks[rank])
            x.restore_block(rank, x_blocks[rank])
        # Replicate the recovered coefficients on the replacement nodes too.
        self.esr.store_replicated_scalars(iteration, beta=beta_prev)

    # -- residual reconstruction (preconditioner-form dependent) --------------------------------
    def _reconstruct_residual(self, failed: List[int], failed_indices: np.ndarray,
                              z_blocks: Dict[int, np.ndarray],
                              r: DistributedMultiVector,
                              z: DistributedMultiVector):
        form = self.preconditioner.form
        z_failed = self._concat(failed, z_blocks)

        if form is PreconditionerForm.IDENTITY:
            r_failed = z_failed.copy()
            return self._split_to_blocks(failed, r_failed), None

        if form is PreconditionerForm.INVERSE:
            # v = z_{I_f} - P_{I_f, I\I_f} r_{I\I_f};  P_{I_f,I_f} r_{I_f} = v
            p_rows = self.preconditioner.inverse_rows(failed_indices)
            surv_cols = _referenced_columns(p_rows, failed_indices,
                                            survivors_only=True)
            off_diag = p_rows[:, surv_cols].tocsr()
            off_diag.eliminate_zeros()
            r_values = self._gather_survivor_values(r, failed, surv_cols,
                                                    purpose="r")
            v = z_failed - off_diag @ r_values
            p_sub = p_rows[:, failed_indices]
            solver = LocalSubsystemSolver()
            r_failed = solver.solve_block(p_sub, v)
            self._charge_local_solve(solver)
            return self._split_to_blocks(failed, r_failed), solver.last_stats

        # FORWARD: r_{I_f} = M_{I_f, I} z.
        # One compressed matvec over all referenced columns: survivor values
        # are gathered through the index maps, the failed part comes from the
        # freshly reconstructed z_{I_f}.  The operand is a (cols, k) slab
        # and the product one CSR x dense-block kernel.
        m_rows = self.preconditioner.forward_rows(failed_indices)
        cols = _referenced_columns(m_rows, failed_indices)
        is_failed_col = np.isin(cols, failed_indices)
        z_values = np.zeros((cols.size, self.n_cols))
        z_values[~is_failed_col] = self._gather_survivor_values(
            z, failed, cols[~is_failed_col], purpose="z"
        )
        z_values[is_failed_col] = z_failed[
            np.searchsorted(failed_indices, cols[is_failed_col])
        ]
        r_failed = m_rows[:, cols].tocsr() @ z_values
        self.cluster.ledger.add_time(
            Phase.RECOVERY_COMPUTE,
            self.cluster.ledger.model.spmv_time(
                int(m_rows.nnz) * self.n_cols
            ),
        )
        return self._split_to_blocks(failed, r_failed), None

    # -- iterate reconstruction -------------------------------------------------------------------
    def _reconstruct_iterate(self, failed: List[int], failed_indices: np.ndarray,
                             a_rows: sp.csr_matrix,
                             r_blocks: Dict[int, np.ndarray],
                             x: DistributedMultiVector):
        b_failed = self._concat(failed, {rank: self.rhs.get_block(rank)
                                         for rank in failed})
        r_failed = self._concat(failed, r_blocks)

        surv_cols = _referenced_columns(a_rows, failed_indices,
                                        survivors_only=True)
        off_diag = a_rows[:, surv_cols].tocsr()
        off_diag.eliminate_zeros()
        x_values = self._gather_survivor_values(x, failed, surv_cols,
                                                purpose="x")
        w = b_failed - r_failed - off_diag @ x_values
        self.cluster.ledger.add_time(
            Phase.RECOVERY_COMPUTE,
            self.cluster.ledger.model.spmv_time(
                int(off_diag.nnz) * self.n_cols
            ),
        )

        a_sub = a_rows[:, failed_indices]
        solver = LocalSubsystemSolver()
        x_failed = solver.solve_block(a_sub, w)
        self._charge_local_solve(solver)
        return self._split_to_blocks(failed, x_failed), solver.last_stats

    # -- helpers ----------------------------------------------------------------------------------------
    def _concat(self, failed: List[int],
                blocks: Dict[int, np.ndarray]) -> np.ndarray:
        """Stack the ``(n_i, k)`` blocks of *failed* (rank order) over ``I_f``."""
        if not failed:
            return np.zeros((0, self.n_cols))
        return np.concatenate([blocks[rank] for rank in failed])

    def _split_to_blocks(self, failed: List[int], concatenated: np.ndarray
                         ) -> Dict[int, np.ndarray]:
        """Split a vector over ``I_f`` (sorted rank order) into per-rank blocks."""
        blocks: Dict[int, np.ndarray] = {}
        offset = 0
        for rank in failed:
            size = self.partition.size_of(rank)
            blocks[rank] = np.array(concatenated[offset:offset + size], copy=True)
            offset += size
        return blocks

    def _gather_survivor_values(self, vector: DistributedMultiVector,
                                failed: List[int], columns: np.ndarray,
                                purpose: str) -> np.ndarray:
        """Survivor-owned entries of *vector* at the global indices *columns*.

        This is the vectorized reverse scatter: instead of assembling a dense
        global zero vector per recovery, only the entries the reconstruction
        actually references (*columns*, sorted and survivor-owned) are
        gathered block-by-block from the survivors' blocks.  The
        communication of the surviving entries to the replacement nodes is
        charged per (survivor -> replacement) message, with message sizes
        given by the SpMV scatter pattern (exactly as in the paper's
        reverse-scatter implementation, Sec. 6).
        """
        partition = self.partition
        out = np.empty((columns.size, self.n_cols))
        if columns.size:
            owners = partition.owner_of(columns)
            uniq, starts = np.unique(owners, return_index=True)
            bounds = np.append(starts, columns.size)
            for j, rank in enumerate(uniq):
                rank = int(rank)
                lo, hi = int(bounds[j]), int(bounds[j + 1])
                start, _ = partition.range_of(rank)
                out[lo:hi] = vector.get_block(rank)[columns[lo:hi] - start]
        charge_reverse_scatter(self.cluster, self.context, failed, self.n_cols)
        return out

    def _charge_local_solve(self, solver: LocalSubsystemSolver) -> None:
        ledger = self.cluster.ledger
        ledger.add_time(
            Phase.RECOVERY_COMPUTE,
            solver.work_flops() / ledger.model.spmv_flop_rate,
        )


def _referenced_columns(rows: sp.csr_matrix, failed_indices: np.ndarray,
                        *, survivors_only: bool = False) -> np.ndarray:
    """Sorted global column indices with stored entries in *rows*.

    With ``survivors_only`` the (sorted) ``failed_indices`` are excluded, so
    the result is exactly the compressed index set a reverse scatter has to
    gather from surviving nodes.
    """
    cols = np.unique(rows.indices.astype(np.int64))
    if not survivors_only or failed_indices.size == 0 or cols.size == 0:
        return cols
    return cols[~np.isin(cols, failed_indices)]
