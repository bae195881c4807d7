"""SpMV execution engine (a PETSc-style ``MatMult``).

:class:`SpmvEngine` is the one SpMV of :func:`repro.distributed.spmv.
distributed_spmv`.  It does the static work -- pricing the halo exchange
from the matrix's scatter plan and the local products from each rank's
nonzeros -- once per matrix and ``structure_version``, so a call costs one
liveness check and one sparse kernel:

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

**Ghost sets.**  Rank ``k``'s ghost set ``G_k`` is the union of the
plan's ``S_ik`` over the senders ``i`` of rank ``k``.  The plan is the
matrix's own, :attr:`DistributedMatrix.context`, derived from the same
sparsity pattern, so it covers every off-diagonal column by construction.

**Split-phase execution (comm/compute overlap).**  ``split=True`` models the
classical non-blocking halo exchange: post the sends, compute
``A_diag @ X_own`` while the ghosts are "in flight", then accumulate
``A_offdiag @ X_ghost`` once they "arrive".  The engine builds (on first
use) the *diagonal* part of the matrix (each row's entries in its owner's
columns) and the *off-diagonal* part (its ghost columns) as two CSR
matrices and runs one kernel on each.  The matching overlap-aware charge,
:meth:`overlap_charge`, is the per-rank max reduction
``max_i(max(halo_i, diag_i) + offdiag_i)`` -- never more than the
serialized ``halo + compute`` charge.  Because the two-kernel
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

**Invalidation contract.**  The matrix keeps one engine
(:meth:`DistributedMatrix.spmv_engine`) tagged with the
``structure_version`` it was built at; ``restore_block_to_node`` bumps the
version only when it changes a stored value, and a stale engine is rebuilt
on its next use.  A recovery re-installs the ranks' own views on the
replacement nodes, so it changes no value and keeps the engine: the engine
reads the matrix through the same arrays, and its next liveness check sees
the views back.

Failure semantics: every call checks that every rank holds its matrix
block and its input block (and can hold its output block), so an SpMV
involving a failed owner raises
:class:`~repro.cluster.errors.NodeFailedError`, and one involving a
replacement node whose block was not restored ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

try:  # Fast path: accumulate the CSR product directly into the output block.
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _csr_matvecs = _scipy_sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - old/odd SciPy
    _csr_matvecs = None

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .dmatrix import DistributedMatrix
    from .dmultivector import DistributedMultiVector


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

    *matrix* is the block-row distributed matrix; its row blocks must
    currently be readable (building from a failed node raises
    ``NodeFailedError``).  The halo exchange follows the matrix's own plan,
    :attr:`~repro.distributed.dmatrix.DistributedMatrix.context`.
    """

    def __init__(self, matrix: "DistributedMatrix"):
        self.matrix = matrix
        self.context = matrix.context
        self.partition = partition = matrix.partition
        #: Matrix structure version this engine was built against; compared
        #: by :meth:`DistributedMatrix.spmv_engine` to rebuild a stale one.
        self.version = matrix.structure_version

        a = matrix.stacked()
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
        offdiag_i``: the PETSc-style ``VecScatterBegin -> A_diag @ x_own ->
        VecScatterEnd -> += A_offdiag @ x_ghost`` execution, whose halo
        exchange proceeds concurrently with the diagonal-block product.  The
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
        return (
            f"SpmvEngine(matrix={self.matrix.name!r}, "
            f"N={self.partition.n_parts}, "
            f"ghosts={self.context.total_exchanged_elements()}, "
            f"version={self.version})"
        )
