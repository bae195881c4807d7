"""Local-view SpMV execution engine (a PETSc-style ``MatMult``).

The dense-gather reference implementation of :func:`repro.distributed.spmv.
distributed_spmv` assembles a fresh global vector on every call and multiplies
each rank's full ``(n_i, n)`` row block against it, recomputing the static
halo-exchange charge from the scatter edges each time -- ``O(n + |edges|)``
bookkeeping per matvec on top of the unavoidable ``O(nnz)`` numeric work.
:class:`SpmvEngine` precomputes, once per ``(matrix, context)`` pair, a
*local view* of the product so the per-call work drops to
``O(nnz + ghosts)``:

**Ghost-column compression.**  For each rank ``k`` the engine takes the ghost
index set ``G_k`` (the sorted union of the scatter plan's ``S_ik`` over all
senders ``i``) and renumbers the columns of ``k``'s row block into the
compressed space ``[0, n_k + |G_k|)``: owned columns map to ``[0, n_k)`` by
their local offset, ghost columns map to ``n_k + position in G_k``.  Only the
CSR ``indices`` array is rewritten -- ``data`` and ``indptr`` are *shared*
with the stored block (so in-place edits of block values stay live, exactly
as on the reference path) and the stored entry order is preserved, so the
compressed matvec performs the *identical* sequence of floating-point
operations as the dense-gather reference and the results are bit-for-bit
equal.

**Send-pool staging.**  Ghost buffers are filled in two vectorized steps
instead of one Python-level operation per scatter edge (of which there can be
``O(N^2)``): first every rank stages the entries it sends to *anybody*
(``R_i``, one fancy-index per rank) into a shared send pool; then each
receiver gathers its ghost values from the pool through a precomputed
position map (one fancy-index per rank).  This mirrors what the pack/unpack
loops of a real halo exchange do, driven by exactly the ``send_indices`` sets
of the :class:`~repro.distributed.comm_context.CommunicationContext`.

**Split-phase execution (comm/compute overlap).**  At build time each rank's
compressed block is additionally partitioned into a *diagonal* part (owned
columns, ``(n_k, n_k)``) and an *off-diagonal* part (ghost columns,
``(n_k, |G_k|)``).  ``split=True`` models the classical non-blocking
halo exchange: post the sends, compute ``A_diag @ X_own`` while the ghosts
are "in flight", then accumulate ``A_offdiag @ X_ghost`` once they "arrive".
The matching overlap-aware charge (see :meth:`overlap_charge`) is the
per-rank max reduction ``max_i(max(halo_i, diag_i) + offdiag_i)`` of
:meth:`~repro.cluster.cost_model.MachineModel.split_spmv_time` -- never more
than the serialized ``halo + compute`` charge.  Because the two-kernel
execution accumulates each row's diagonal terms before its off-diagonal
terms (exactly as PETSc's overlapped ``MatMult`` does), its results may
differ from the fused kernel in the last floating-point bits; the fused
path (``overlap=False``, the default everywhere) remains bit-identical to
the dense-gather reference.  The split matrices copy the block's ``data``
array, so -- unlike the fused path -- silent in-place edits of stored block
values are only picked up after a ``set_block``-style write bumps the
structure version and the engine is rebuilt.

**One batched kernel.**  :meth:`apply_block` is the engine's only kernel:
it computes ``Y = A X`` for the ``(n_i, k)`` blocks of a
:class:`~repro.distributed.dmultivector.DistributedMultiVector` with *one*
ghost gather amortized over all ``k`` columns -- the send pool is staged as
a ``(pool, k)`` matrix with one 2-D fancy-index per rank, and each rank's
product is a single CSR x dense-block kernel.  A single vector is the
``k = 1`` case (a :class:`~repro.distributed.dvector.DistributedVector` is
read and written through its ``(n_i, 1)`` storage); column ``j`` of a batched
product is bit-identical to the ``k = 1`` product of column ``j`` (the CSR
kernel accumulates each column in the same entry order).

**Charge caching.**  The bulk-synchronous halo and compute charges depend
only on static data (scatter counts, topology latencies, per-rank nnz), so
the engine computes them once with the same helper functions the reference
path calls per matvec.  The charged values -- and, with cost jitter enabled,
the RNG draw sequence -- are identical to the reference path's.  Multi-RHS
and overlap charges are cached per column count ``k``.

**Cache invalidation contract.**  Engines are cached on
:class:`~repro.distributed.dmatrix.DistributedMatrix` keyed by the context
object (see :meth:`DistributedMatrix.spmv_engine`).  Every row-block write
(``_set_row_block``, and therefore ``restore_block_to_node`` on the recovery
path) bumps the matrix's ``structure_version``; a cached engine whose
``version`` is stale is discarded and rebuilt from the current blocks on the
next use, so recovery that re-installs matrix blocks on replacement nodes
stays correct without any explicit notification.

Failure semantics are preserved: every execution path touches every rank's
matrix block and input-vector block through the node memories, so an SpMV
involving a failed owner still raises
:class:`~repro.cluster.errors.NodeFailedError` exactly like the reference
path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

try:  # Fast path: accumulate the CSR product directly into the output block.
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _csr_matvecs = _scipy_sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - old/odd SciPy
    _csr_matvecs = None

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .comm_context import CommunicationContext
    from .dmatrix import DistributedMatrix
    from .dmultivector import DistributedMultiVector


class ContextMismatchError(ValueError):
    """The scatter plan does not cover the matrix's off-diagonal columns.

    Raised while building an engine when the supplied
    :class:`CommunicationContext` was derived from a different sparsity
    pattern (e.g. a stale plan, or a plan for another matrix on the same
    partition).  The caller is expected to fall back to the dense-gather
    reference path, whose numerics never depend on the context.
    """


@dataclass(frozen=True)
class OverlapCharge:
    """Overlap-aware cost of one split-phase SpMV (or multi-RHS SpMV).

    ``total_time`` is the bulk-synchronous wall time
    ``max_i(max(halo_i, diag_i) + offdiag_i)``; ``compute_time`` its pure
    compute part ``max_i(diag_i + offdiag_i)``; ``exposed_comm_time`` the
    halo remainder that diagonal compute could not hide; and
    ``hidden_halo_fraction`` the fraction of the *serialized* halo charge
    hidden by the overlap (``0`` when there is no halo traffic at all).
    """

    total_time: float
    compute_time: float
    exposed_comm_time: float
    serialized_time: float
    hidden_halo_fraction: float
    n_messages: int
    n_elements: int


@dataclass
class _RankPlan:
    """Precomputed local view of one rank's row block."""

    #: Number of locally owned rows/columns (``n_k``).
    n_local: int
    #: ``(n_k, n_k + |G_k|)`` CSR block with compressed column indices.  The
    #: stored entry order equals the original row block's, which keeps the
    #: matvec bit-identical to the dense-gather reference.
    local: sp.csr_matrix
    #: Sorted global ghost indices ``G_k`` (diagnostics / tests).
    ghost_indices: np.ndarray
    #: Position of each ghost value inside the staged send pool.
    ghost_pool_pos: np.ndarray
    #: Per column count k: the ``(n_k + |G_k|, k)`` input buffer
    #: ``[X_own | X_ghost]``.
    block_xbufs: Dict[int, np.ndarray] = field(default_factory=dict,
                                               repr=False)
    #: Non-zeros in owned columns (the diagonal block ``A_{I_k, I_k}``).
    diag_nnz: int = 0
    #: Non-zeros in ghost columns (``nnz - diag_nnz``).
    offdiag_nnz: int = 0
    #: ``(n_k, n_k)`` diagonal part, built lazily on first split-phase use.
    diag: Optional[sp.csr_matrix] = field(default=None, repr=False)
    #: ``(n_k, |G_k|)`` off-diagonal part (ghost-column space), lazy.
    offdiag: Optional[sp.csr_matrix] = field(default=None, repr=False)


class SpmvEngine:
    """Executes ``out = A x`` (and ``Y = A X``) through precomputed local views.

    Parameters
    ----------
    matrix:
        The block-row distributed matrix.  All row blocks must currently be
        readable (building from a failed node raises ``NodeFailedError``).
    context:
        The SpMV scatter plan.  Its edges must cover every off-diagonal
        column of every row block; otherwise :class:`ContextMismatchError`
        is raised.
    """

    def __init__(self, matrix: "DistributedMatrix",
                 context: "CommunicationContext"):
        partition = matrix.partition
        if not partition.is_compatible_with(context.partition):
            raise ContextMismatchError(
                "communication context and matrix have incompatible partitions"
            )
        self.matrix = matrix
        self.context = context
        self.partition = partition
        #: Matrix structure version this engine was built against; compared
        #: by :meth:`DistributedMatrix.spmv_engine` to invalidate the cache.
        self.version = matrix.structure_version

        n_parts = partition.n_parts
        # -- send-pool layout: per rank, the locally-owned entries it sends
        #    to at least one other node (the paper's R_i), in sorted order.
        #    The layout comes from the context's canonical helper so the
        #    fused ESR staging (which reuses the staged pool by position)
        #    derives positions from the exact same ordering.
        sent_global, pool_offsets = context.send_pool_layout()
        self._sent_local: List[np.ndarray] = []
        for rank in range(n_parts):
            start, stop = partition.range_of(rank)
            sent = sent_global[rank]
            if sent.size and (sent[0] < start or sent[-1] >= stop):
                raise ContextMismatchError(
                    f"scatter plan sends indices not owned by rank {rank}; "
                    "cannot build a local view"
                )
            self._sent_local.append(sent - start)
        self._pool_offsets = pool_offsets
        self._pool_size = int(pool_offsets[-1])
        #: Per column count k: staged ``(pool, k)`` send-pool buffers.
        self._block_pools: Dict[int, np.ndarray] = {}
        #: Weak reference to the multi-vector the block pool was last staged
        #: from, plus its column count (see :meth:`block_pool_staged_from`).
        self._block_pool_source: Optional[Tuple[weakref.ReferenceType, int]] = None

        # -- per-rank compressed local views
        self._plans: List[_RankPlan] = []
        column_map = np.full(partition.n, -1, dtype=np.int64)
        for rank in range(n_parts):
            self._plans.append(self._build_rank_plan(rank, column_map))
        self._nnz = [int(plan.local.nnz) for plan in self._plans]

        # -- cached static charges (identical values to the per-call
        #    recomputation of the reference path).
        from .spmv import halo_exchange_cost, spmv_compute_cost

        cluster = matrix.cluster
        self.halo_cost = halo_exchange_cost(
            context, cluster.topology, cluster.ledger.model
        )
        self.compute_cost = spmv_compute_cost(matrix, cluster.ledger.model)
        #: Per column count k > 1: cached (time, msgs, elements) halo charge.
        self._halo_cost_k: Dict[int, Tuple[float, int, int]] = {}
        #: Per column count k > 1: cached bulk-synchronous compute charge.
        self._compute_cost_k: Dict[int, float] = {}
        #: Per column count k: cached overlap-aware charge.
        self._overlap_charges: Dict[int, OverlapCharge] = {}

    # -- construction -------------------------------------------------------
    def _build_rank_plan(self, rank: int, column_map: np.ndarray) -> _RankPlan:
        partition = self.partition
        context = self.context
        start, stop = partition.range_of(rank)
        n_local = stop - start

        senders = context.senders_to(rank)
        ghost = (np.unique(np.concatenate(
            [context.send_indices(src, rank) for src in senders]
        )) if senders else np.empty(0, dtype=np.int64))
        if ghost.size and np.any((ghost >= start) & (ghost < stop)):
            raise ContextMismatchError(
                f"scatter plan ships rank {rank} elements it already owns; "
                "cannot build a local view"
            )

        block = self.matrix.row_block(rank)

        # Compress columns: owned -> [0, n_local), ghost g -> n_local + pos(g).
        # column_map is a scratch array shared across ranks; only the entries
        # written here are read back, and they are reset before returning.
        column_map[start:stop] = np.arange(n_local, dtype=np.int64)
        column_map[ghost] = n_local + np.arange(ghost.size, dtype=np.int64)
        compressed = column_map[block.indices]
        if compressed.size and compressed.min() < 0:
            column_map[start:stop] = -1
            column_map[ghost] = -1
            raise ContextMismatchError(
                f"scatter plan does not cover all off-diagonal columns of "
                f"rank {rank}'s row block; cannot build a local view"
            )
        column_map[start:stop] = -1
        column_map[ghost] = -1

        # Share data/indptr with the stored block (only the column indices
        # genuinely differ): in-place edits of block values stay live in the
        # engine -- matching the reference path -- and the cached engine
        # costs O(nnz) index memory instead of a full matrix copy.
        local = sp.csr_matrix(
            (block.data, compressed.astype(block.indices.dtype),
             block.indptr),
            shape=(n_local, n_local + ghost.size),
        )
        diag_nnz = int(np.count_nonzero(compressed < n_local))

        # Pool positions of the ghost values: ghost g owned by src sits at
        # pool_offsets[src] + (position of g within src's sent set).
        ghost_pool_pos = np.empty(ghost.size, dtype=np.int64)
        if ghost.size:
            owners = partition.owner_of(ghost)
            for src in np.unique(owners):
                src = int(src)
                mask = owners == src
                src_start, _ = partition.range_of(src)
                ghost_pool_pos[mask] = self._pool_offsets[src] + np.searchsorted(
                    self._sent_local[src], ghost[mask] - src_start
                )

        return _RankPlan(
            n_local=n_local,
            local=local,
            ghost_indices=ghost,
            ghost_pool_pos=ghost_pool_pos,
            diag_nnz=diag_nnz,
            offdiag_nnz=int(local.nnz) - diag_nnz,
        )

    def _ensure_split(self, rank: int) -> _RankPlan:
        """Build the diag/offdiag partition of *rank*'s block on first use.

        The split matrices preserve the stored entry order within each part
        (they are order-preserving subsets of the compressed block), so the
        two-kernel execution accumulates the same per-part sequences as the
        fused kernel -- only the diag/offdiag interleaving differs.
        """
        plan = self._plans[rank]
        if plan.diag is not None:
            return plan
        local = plan.local
        n_local = plan.n_local
        n_ghost = int(plan.ghost_indices.size)
        mask = local.indices < n_local
        running = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
        diag_indptr = running[local.indptr]
        plan.diag = sp.csr_matrix(
            (local.data[mask], local.indices[mask], diag_indptr),
            shape=(n_local, n_local),
        )
        off_mask = ~mask
        running = np.concatenate(([0], np.cumsum(off_mask, dtype=np.int64)))
        off_indptr = running[local.indptr]
        plan.offdiag = sp.csr_matrix(
            (local.data[off_mask], local.indices[off_mask] - n_local,
             off_indptr),
            shape=(n_local, n_ghost),
        )
        return plan

    # -- queries ------------------------------------------------------------
    def ghost_indices(self, rank: int) -> np.ndarray:
        """Sorted global ghost (halo) indices of *rank* (``G_k``)."""
        return self._plans[rank].ghost_indices

    def local_block(self, rank: int) -> sp.csr_matrix:
        """The compressed ``(n_k, n_k + |G_k|)`` local view of *rank*."""
        return self._plans[rank].local

    def diag_block(self, rank: int) -> sp.csr_matrix:
        """The ``(n_k, n_k)`` diagonal part of *rank*'s compressed block."""
        return self._ensure_split(rank).diag

    def offdiag_block(self, rank: int) -> sp.csr_matrix:
        """The ``(n_k, |G_k|)`` off-diagonal (ghost-column) part of *rank*."""
        return self._ensure_split(rank).offdiag

    def diag_nnz(self, rank: int) -> int:
        """Non-zeros of *rank*'s rows in owned columns."""
        return self._plans[rank].diag_nnz

    def offdiag_nnz(self, rank: int) -> int:
        """Non-zeros of *rank*'s rows in ghost columns."""
        return self._plans[rank].offdiag_nnz

    # -- cost charges --------------------------------------------------------
    def halo_cost_for(self, n_rhs: int) -> Tuple[float, int, int]:
        """``(time, messages, elements)`` of one halo exchange of *n_rhs* columns.

        ``n_rhs == 1`` returns the cached single-vector charge (bit-identical
        to the reference path's per-call recomputation).  For batched
        multi-RHS exchanges every scatter edge ships ``|S_ik| * n_rhs``
        values in one message, so the message count is unchanged while the
        per-message volume scales with the column count.
        """
        if n_rhs == 1:
            return self.halo_cost
        if n_rhs not in self._halo_cost_k:
            from .spmv import halo_exchange_cost

            cluster = self.matrix.cluster
            self._halo_cost_k[n_rhs] = halo_exchange_cost(
                self.context, cluster.topology, cluster.ledger.model,
                n_rhs=n_rhs,
            )
        return self._halo_cost_k[n_rhs]

    def compute_cost_for(self, n_rhs: int) -> float:
        """Bulk-synchronous compute charge of ``Y = A X`` with *n_rhs* columns."""
        if n_rhs == 1:
            return self.compute_cost
        if n_rhs not in self._compute_cost_k:
            model = self.matrix.cluster.ledger.model
            self._compute_cost_k[n_rhs] = max(
                model.spmv_time(nnz * n_rhs) for nnz in self._nnz
            )
        return self._compute_cost_k[n_rhs]

    def _receiver_halo_times(self, n_rhs: int) -> np.ndarray:
        """Per-rank serialized halo time (sum of incoming-message costs)."""
        cluster = self.matrix.cluster
        model = cluster.ledger.model
        times = np.zeros(self.partition.n_parts)
        for edge in self.context.edges():
            times[edge.dst] += model.message_time(
                cluster.topology.latency(edge.src, edge.dst),
                edge.count * n_rhs,
            )
        return times

    def overlap_charge(self, n_rhs: int = 1) -> OverlapCharge:
        """The overlap-aware charge of one split-phase SpMV (cached per k).

        Per rank ``i`` the split-phase time is ``max(halo_i, diag_i) +
        offdiag_i`` (:meth:`MachineModel.split_spmv_time`); the
        bulk-synchronous charge is the max reduction over ranks.  The ledger
        books the pure compute part ``max_i(diag_i + offdiag_i)`` under
        ``compute.spmv`` and only the exposed remainder under ``comm.halo``
        (see :meth:`CostLedger.add_overlapped`).
        """
        if n_rhs not in self._overlap_charges:
            model = self.matrix.cluster.ledger.model
            halo = self._receiver_halo_times(n_rhs)
            total = 0.0
            compute = 0.0
            for rank, plan in enumerate(self._plans):
                diag_t = model.spmv_time(plan.diag_nnz * n_rhs)
                offdiag_t = model.spmv_time(plan.offdiag_nnz * n_rhs)
                total = max(total, max(float(halo[rank]), diag_t) + offdiag_t)
                compute = max(compute, diag_t + offdiag_t)
            halo_serial, n_msg, n_elem = self.halo_cost_for(n_rhs)
            exposed = total - compute
            serialized = halo_serial + self.compute_cost_for(n_rhs)
            hidden = ((halo_serial - exposed) / halo_serial
                      if halo_serial > 0.0 else 0.0)
            self._overlap_charges[n_rhs] = OverlapCharge(
                total_time=total,
                compute_time=compute,
                exposed_comm_time=exposed,
                serialized_time=serialized,
                hidden_halo_fraction=hidden,
                n_messages=n_msg,
                n_elements=n_elem,
            )
        return self._overlap_charges[n_rhs]

    # -- execution ----------------------------------------------------------
    def _stage_pool_into(self, x, pool: np.ndarray) -> np.ndarray:
        """Stage *x*'s sent entries into the ``(pool, k)`` *pool* (one
        fancy-index per rank).  Also reads every rank's matrix block through the node memories,
        enforcing failure semantics exactly as the reference path's per-call
        block reads do.
        """
        pool_offsets = self._pool_offsets
        for rank in range(self.partition.n_parts):
            self.matrix.row_block(rank)
            sent_local = self._sent_local[rank]
            if sent_local.size:
                pool[pool_offsets[rank]:pool_offsets[rank + 1]] = \
                    x.get_block(rank)[sent_local]
        return pool

    def block_send_pool(self, n_rhs: int) -> Optional[np.ndarray]:
        """The staged ``(pool, k)`` multi-RHS send pool for *n_rhs* columns.

        ``None`` until a batched SpMV of that column count ran; consumers
        (the fused block ESR staging) must first confirm via
        :meth:`block_pool_staged_from` that it holds the block they expect.
        """
        return self._block_pools.get(int(n_rhs))

    def block_pool_staged_from(self, x: "DistributedMultiVector") -> bool:
        """True if the block send pool holds the staged values of block *x*.

        Lets the fused ESR staging reuse the pool only when the SpMV that
        immediately preceded it staged this exact block (a stale pool -- one
        staged from a different multi-vector, or from an earlier iteration's
        operand object -- would otherwise ship outdated copies).
        """
        if self._block_pool_source is None:
            return False
        source, n_rhs = self._block_pool_source
        return source() is x and n_rhs == getattr(x, "n_cols", None)

    # ``apply``/``apply_split`` are the single-vector entry points of the
    # engine's public surface (callers and host-time tracers name them);
    # ``apply_block`` is the one kernel, and a vector is its k = 1 case.
    def apply(self, x: "DistributedMultiVector",
              out: "DistributedMultiVector") -> "DistributedMultiVector":
        """Numeric ``out = A x``: :meth:`apply_block` (no cost charging)."""
        return self.apply_block(x, out)

    def apply_split(self, x: "DistributedMultiVector",
                    out: "DistributedMultiVector") -> "DistributedMultiVector":
        """Numeric ``out = A x`` split-phase: :meth:`apply_block` with
        ``split=True``."""
        return self.apply_block(x, out, split=True)

    def apply_block(self, x: "DistributedMultiVector",
                    y: "DistributedMultiVector", *,
                    split: bool = False) -> "DistributedMultiVector":
        """Numeric ``Y = A X`` for ``(n_i, k)`` blocks (batched multi-RHS).

        One ghost gather is amortized over all ``k`` columns: the send pool
        is staged as a ``(pool, k)`` matrix (one 2-D fancy-index per rank)
        and each rank's product is a single CSR x dense-block kernel
        accumulated into ``y``'s existing block (a fresh block is set when
        ``y`` has none yet, or when it aliases the input).  Column ``j`` of
        the result is bit-identical to the ``k = 1`` product of column ``j``
        (the CSR kernel accumulates each column in the same entry order).
        ``y`` may alias ``x``; either may be a 1-D
        :class:`~repro.distributed.dvector.DistributedVector`, whose
        ``(n_i, 1)`` storage is read and written in place.
        """
        xs, ys = x.as_multivector(), y.as_multivector()
        n_rhs = xs.n_cols
        pool = self._block_pools.get(n_rhs)
        if pool is None or pool.shape[0] != self._pool_size:
            pool = np.empty((self._pool_size, n_rhs))
            self._block_pools[n_rhs] = pool
        self._block_pool_source = None
        self._stage_pool_into(xs, pool)
        self._block_pool_source = (weakref.ref(x), n_rhs)

        for rank in range(self.partition.n_parts):
            plan = (self._ensure_split(rank) if split else self._plans[rank])
            own = xs.get_block(rank)
            try:
                target = ys.get_block(rank)
            except KeyError:
                target = None
            # The kernel writes raw memory: only a C-contiguous block that
            # does not alias the input is written in place.
            fresh = (target is None or not target.flags.c_contiguous
                     or np.may_share_memory(target, own))
            if fresh:
                out = np.zeros(own.shape)
            else:
                out = target
                out[:] = 0.0
            if split:
                self._matmat_accumulate(plan.diag, own, out)
                if plan.ghost_pool_pos.size:
                    self._matmat_accumulate(
                        plan.offdiag, pool[plan.ghost_pool_pos], out
                    )
            else:
                xbuf = plan.block_xbufs.get(n_rhs)
                if xbuf is None:
                    xbuf = np.empty((plan.n_local + plan.ghost_indices.size,
                                     n_rhs))
                    plan.block_xbufs[n_rhs] = xbuf
                xbuf[:plan.n_local] = own
                if plan.ghost_pool_pos.size:
                    xbuf[plan.n_local:] = pool[plan.ghost_pool_pos]
                self._matmat_accumulate(plan.local, xbuf, out)
            if fresh:
                ys.set_block(rank, out)
        return y

    @staticmethod
    def _matmat_accumulate(mat: sp.csr_matrix, x: np.ndarray,
                           out: np.ndarray) -> np.ndarray:
        """``out += mat @ x`` accumulated in place, column by column."""
        if _csr_matvecs is None:  # pragma: no cover - SciPy without _sparsetools
            out += mat @ x
            return out
        x = np.ascontiguousarray(x)
        _csr_matvecs(mat.shape[0], mat.shape[1], x.shape[1], mat.indptr,
                     mat.indices, mat.data, x, out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        ghosts = sum(p.ghost_indices.size for p in self._plans)
        return (
            f"SpmvEngine(matrix={self.matrix.name!r}, "
            f"N={self.partition.n_parts}, ghosts={ghosts}, "
            f"version={self.version})"
        )
