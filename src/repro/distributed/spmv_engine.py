"""SpMV execution engine (a PETSc-style ``MatMult``).

:class:`SpmvEngine` is the one SpMV of :func:`repro.distributed.spmv.
distributed_spmv`.  It does the static work -- checking the scatter plan,
pricing the halo exchange and the local products -- once per
``(matrix, context)`` pair, so a call costs one liveness check and one
sparse kernel:

**One kernel over all ranks.**  A
:class:`~repro.distributed.dmatrix.DistributedMatrix` is one CSR matrix
whose row blocks are the ranks' blocks, and a
:class:`~repro.distributed.dmultivector.DistributedMultiVector` one C-order
``(n, k)`` array (see :mod:`repro.distributed.blockstore`).  On a real
machine rank ``i`` computes its rows from its own block and the ghost
values the halo exchange brought in; here those values already sit in the
operand's array, so :meth:`apply_block` computes every rank's rows with one
``csr_matvecs`` call on the two arrays.  Each row accumulates its stored
entries in their stored order against the same operand values a rank-local
kernel would read, so the result is bit-identical to multiplying each
rank's ``(n_i, n)`` row block by the gathered operand, and column ``j`` of a
batched product is bit-identical to the ``k = 1`` product of column ``j``.
The kernel shares the matrix's arrays, so in-place edits of block values
stay live.

**Scatter-plan check.**  The plan checks ownership when it is built
(:class:`~repro.distributed.comm_context.CommunicationContext` rejects an
``S_ik`` holding an index that rank ``i`` does not own); the engine checks
coverage.  At build time it reads each rank's ghost set ``G_k`` (the union
of the plan's ``S_ik`` over the senders ``i`` of rank ``k``) and checks that
it covers every off-diagonal column of the rank's rows; a plan derived from
a different sparsity pattern raises :class:`ContextMismatchError`, which
reaches the SpMV's caller.

**Split-phase execution (comm/compute overlap).**  ``split=True`` models the
classical non-blocking halo exchange: post the sends, compute
``A_diag @ X_own`` while the ghosts are "in flight", then accumulate
``A_offdiag @ X_ghost`` once they "arrive".  The engine builds (on first
use) the *diagonal* part of the matrix (each row's entries in its owner's
columns) and the *off-diagonal* part (its ghost columns) as two CSR
matrices and runs one kernel on each.  The matching overlap-aware charge
(see :meth:`overlap_charge`) is the per-rank max reduction
``max_i(max(halo_i, diag_i) + offdiag_i)`` of
:meth:`~repro.cluster.cost_model.MachineModel.split_spmv_time` -- never more
than the serialized ``halo + compute`` charge.  Because the two-kernel
execution accumulates each row's diagonal terms before its off-diagonal
terms (exactly as PETSc's overlapped ``MatMult`` does), its results may
differ from the fused kernel in the last floating-point bits; the fused
path (``overlap=False``, the default everywhere) is the bit-exact one.  The
split matrices copy the matrix's ``data`` array, so -- unlike the fused
path -- silent in-place edits of stored block values are only picked up
after a restore that changes values bumps the structure version and the
engine is rebuilt.

**Charge caching.**  The bulk-synchronous halo and compute charges depend
only on static data (scatter counts, topology latencies, per-rank nnz), so
the engine computes them once per column count ``k``, and likewise the
overlap-aware charge.  Both halo charges come from one per-receiver pass,
:func:`~repro.distributed.spmv.receiver_halo_times`.

**Cache invalidation contract.**  Engines are cached on
:class:`~repro.distributed.dmatrix.DistributedMatrix` keyed by the context
object (see :meth:`DistributedMatrix.spmv_engine`) and by the matrix's
``structure_version``, which ``restore_block_to_node`` bumps only when it
changes a stored value; a cached engine whose ``version`` is stale is
discarded and rebuilt on the next use.  A recovery re-installs the ranks'
own views on the replacement nodes, so it changes no value and keeps the
engine: the engine reads the matrix through the same arrays, and its next
liveness check sees the views back.

Failure semantics: every call checks that every rank holds its matrix
block and its input block (and can hold its output block), so an SpMV
involving a failed owner raises
:class:`~repro.cluster.errors.NodeFailedError`, and one involving a
replacement node whose block was not restored ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """The scatter plan does not fit the partition or the matrix.

    Raised when a :class:`CommunicationContext` is built with an edge that
    ships an index its sender does not own (or names a rank outside the
    partition), and while building an engine when the plan does not cover
    the matrix's off-diagonal columns because it was derived from a
    different sparsity pattern (e.g. a plan for another matrix on the same
    partition).  The SpMV cannot run on such a plan, so
    :func:`~repro.distributed.spmv.distributed_spmv` raises it before
    charging anything.
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


class SpmvEngine:
    """Executes ``out = A x`` (and ``Y = A X``) as one kernel over all ranks.

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

        a = matrix.stacked()
        #: Per rank, the sorted global ghost indices ``G_k``.
        self._ghosts = self._ghost_sets(a)
        # Per-rank non-zeros in owned columns (the diagonal block
        # A_{I_k, I_k}) and in ghost columns.
        bounds = a.indptr[partition.offsets]
        in_diag = np.concatenate(([0], np.cumsum(self._diag_mask(a))))
        self._nnz = np.diff(bounds).tolist()
        self._diag_nnz = np.diff(in_diag[bounds]).tolist()
        self._offdiag_nnz = [nnz - diag for nnz, diag
                             in zip(self._nnz, self._diag_nnz)]
        #: ``(diag, offdiag)`` CSR parts, built on first split-phase use.
        self._split: Optional[Tuple[sp.csr_matrix, sp.csr_matrix]] = None

        #: Per column count k: cached (time, msgs, elements) halo charge,
        #: bulk-synchronous compute charge and overlap-aware charge.
        self._halo_costs: Dict[int, Tuple[float, int, int]] = {}
        self._compute_costs: Dict[int, float] = {}
        self._overlap_charges: Dict[int, OverlapCharge] = {}
        #: The single-vector (k = 1) halo and compute charges.
        self.halo_cost = self.halo_cost_for(1)
        self.compute_cost = self.compute_cost_for(1)

    # -- construction -------------------------------------------------------
    def _ghost_sets(self, a: sp.csr_matrix) -> List[np.ndarray]:
        """Each rank's ghost set, checked against the matrix pattern."""
        context = self.context
        ghosts = []
        # Scratch mask of the columns rank k may read (owned or ghost);
        # only the entries set for a rank are read back, then reset.
        readable = np.zeros(self.partition.n, dtype=bool)
        for rank, (start, stop) in enumerate(self.partition.ranges):
            # Senders ascend and each ships sorted indices of its own
            # range, so the concatenation is sorted and unique.
            chunks = [context.send_indices(src, rank)
                      for src in context.senders_to(rank)]
            ghost = (np.concatenate(chunks) if chunks
                     else np.empty(0, dtype=np.int64))
            readable[start:stop] = True
            readable[ghost] = True
            covered = readable[a.indices[a.indptr[start]:a.indptr[stop]]].all()
            readable[start:stop] = False
            readable[ghost] = False
            if not covered:
                raise ContextMismatchError(
                    f"scatter plan does not cover all off-diagonal columns "
                    f"of rank {rank}'s row block; cannot build the engine"
                )
            ghosts.append(ghost)
        return ghosts

    def _diag_mask(self, a: sp.csr_matrix) -> np.ndarray:
        """Per stored entry: does its column lie in its row owner's range?"""
        sizes = self.partition.sizes()
        starts = np.repeat(self.partition.offsets[:-1], sizes)
        row_nnz = np.diff(a.indptr)
        lo = np.repeat(starts, row_nnz)
        hi = np.repeat(starts + np.repeat(sizes, sizes), row_nnz)
        return (a.indices >= lo) & (a.indices < hi)

    def _split_parts(self) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
        """The diagonal and off-diagonal parts, built on first use.

        Both keep every row's entries in stored order (they are
        order-preserving subsets of the matrix), so the two-kernel execution
        accumulates the same per-part sequences as the fused kernel -- only
        the diag/offdiag interleaving differs.
        """
        if self._split is None:
            a = self.matrix.stacked()
            mask = self._diag_mask(a)
            parts = []
            for keep in (mask, ~mask):
                running = np.concatenate(([0], np.cumsum(keep,
                                                         dtype=np.int64)))
                parts.append(sp.csr_matrix(
                    (a.data[keep], a.indices[keep], running[a.indptr]),
                    shape=a.shape,
                ))
            self._split = (parts[0], parts[1])
        return self._split

    # -- queries ------------------------------------------------------------
    def ghost_indices(self, rank: int) -> np.ndarray:
        """Sorted global ghost (halo) indices of *rank* (``G_k``)."""
        return self._ghosts[rank]

    def diag_block(self, rank: int) -> sp.csr_matrix:
        """The ``(n_k, n_k)`` diagonal part of *rank*'s rows."""
        start, stop = self.partition.range_of(rank)
        return self._split_parts()[0][start:stop, start:stop]

    def offdiag_block(self, rank: int) -> sp.csr_matrix:
        """The ``(n_k, |G_k|)`` off-diagonal part of *rank*'s rows, with the
        ghost columns in ``G_k`` order."""
        start, stop = self.partition.range_of(rank)
        return self._split_parts()[1][start:stop][:, self._ghosts[rank]]

    def diag_nnz(self, rank: int) -> int:
        """Non-zeros of *rank*'s rows in owned columns."""
        return self._diag_nnz[rank]

    def offdiag_nnz(self, rank: int) -> int:
        """Non-zeros of *rank*'s rows in ghost columns."""
        return self._offdiag_nnz[rank]

    # -- cost charges --------------------------------------------------------
    def halo_cost_for(self, n_rhs: int) -> Tuple[float, int, int]:
        """``(time, messages, elements)`` of one halo exchange of *n_rhs* columns.

        Priced by :func:`~repro.distributed.spmv.halo_exchange_cost` and
        cached per column count.  For batched multi-RHS exchanges every
        scatter edge ships ``|S_ik| * n_rhs`` values in one message, so the
        message count is unchanged while the per-message volume scales with
        the column count.
        """
        if n_rhs not in self._halo_costs:
            from .spmv import halo_exchange_cost

            cluster = self.matrix.cluster
            self._halo_costs[n_rhs] = halo_exchange_cost(
                self.context, cluster.topology, cluster.ledger.model,
                n_rhs=n_rhs,
            )
        return self._halo_costs[n_rhs]

    def compute_cost_for(self, n_rhs: int) -> float:
        """Bulk-synchronous compute charge of ``Y = A X`` with *n_rhs* columns:
        the slowest rank's local product (cached per column count)."""
        if n_rhs not in self._compute_costs:
            model = self.matrix.cluster.ledger.model
            self._compute_costs[n_rhs] = max(
                model.spmv_time(nnz * n_rhs) for nnz in self._nnz
            )
        return self._compute_costs[n_rhs]

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
            from .spmv import receiver_halo_times

            cluster = self.matrix.cluster
            model = cluster.ledger.model
            halo = receiver_halo_times(self.context, cluster.topology, model,
                                       n_rhs=n_rhs)
            total = 0.0
            compute = 0.0
            for halo_t, diag_nnz, offdiag_nnz in zip(
                    halo, self._diag_nnz, self._offdiag_nnz):
                diag_t = model.spmv_time(diag_nnz * n_rhs)
                offdiag_t = model.spmv_time(offdiag_nnz * n_rhs)
                total = max(total, max(halo_t, diag_t) + offdiag_t)
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

        One CSR x dense-block kernel over all ranks' rows (two with
        ``split``), accumulated into ``y``'s storage in place; a replacement
        node without a ``y`` block gets it back.  ``y`` may alias ``x``;
        either may be a 1-D
        :class:`~repro.distributed.dvector.DistributedVector`, whose
        ``(n_i, 1)`` storage is read and written in place.
        """
        a = self.matrix.stacked()
        xs = x.stacked()
        ys = y.stacked(overwrite=True)
        out = np.zeros(ys.shape) if np.may_share_memory(ys, xs) else ys
        if out is ys:
            out.fill(0.0)
        if split:
            for part in self._split_parts():
                self._matmat_accumulate(part, xs, out)
        else:
            self._matmat_accumulate(a, xs, out)
        if out is not ys:
            ys[...] = out
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
        ghosts = sum(g.size for g in self._ghosts)
        return (
            f"SpmvEngine(matrix={self.matrix.name!r}, "
            f"N={self.partition.n_parts}, ghosts={ghosts}, "
            f"version={self.version})"
        )
