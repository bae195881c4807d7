"""Distributed sparse matrix-vector products.

``distributed_spmv`` performs ``Y = A X`` for a block-row distributed matrix
and the ``(n_i, k)`` blocks of a
:class:`~repro.distributed.dmultivector.DistributedMultiVector` -- a single
:class:`~repro.distributed.dvector.DistributedVector` is the ``k = 1`` case.
The halo exchange defined by the :class:`CommunicationContext` ships all
``k`` columns in one message per scatter edge (same message count, ``k``-fold
volume) and is charged to the latency-bandwidth cost model (Phase
``comm.halo``); the local row-block products are charged as memory-bound
compute (Phase ``compute.spmv``), and the numeric result is stored
block-by-block into the output.

Every product runs through the matrix's cached
:class:`~repro.distributed.spmv_engine.SpmvEngine`, which computes every
rank's rows with one CSR kernel over the matrix's and the operand's
contiguous storage, after one liveness check.  The engine is looked up (and
on a cold cache built) before anything is charged, so a scatter plan that
does not cover the matrix raises
:class:`~repro.distributed.spmv_engine.ContextMismatchError`, and a cold
lookup with a failed owner ``NodeFailedError``, with nothing booked.

With ``overlap=True`` the SpMV executes split-phase -- ``A_diag @ X_own``
while the ghosts are in flight, then the off-diagonal accumulation -- and
the ledger is charged the overlap-aware
``max_i(max(halo_i, diag_i) + offdiag_i)`` instead of the serialized
``halo + compute``.  See :mod:`repro.distributed.spmv_engine` for the
execution model and the (last-bits) rounding caveat of split execution.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import sanitizer as _sanitizer
from ..cluster.cost_model import Phase
from .comm_context import CommunicationContext
from .dmatrix import DistributedMatrix
from .dmultivector import DistributedMultiVector


def halo_exchange_cost(context: CommunicationContext, topology, model,
                       n_rhs: int = 1) -> Tuple[float, int, int]:
    """Bulk-synchronous cost of one halo exchange of *n_rhs* columns.

    Returns ``(time, n_messages, n_elements)`` where *time* is the maximum
    over receiving nodes of the summed cost of their incoming messages (each
    ``lambda_ik + |S_ik| * n_rhs * mu``), matching the model of Sec. 4.2.
    Batched multi-RHS exchanges (``n_rhs > 1``) ship all columns of an edge
    in one message: the message count is unchanged, the volume scales.
    """
    per_receiver: Dict[int, float] = {}
    n_messages = 0
    n_elements = 0
    for edge in context.edges():
        cost = model.message_time(
            topology.latency(edge.src, edge.dst), edge.count * n_rhs
        )
        per_receiver[edge.dst] = per_receiver.get(edge.dst, 0.0) + cost
        n_messages += 1
        n_elements += edge.count * n_rhs
    max_time = max(per_receiver.values()) if per_receiver else 0.0
    return max_time, n_messages, n_elements


def spmv_compute_cost(matrix: DistributedMatrix, model,
                      n_rhs: int = 1) -> float:
    """Bulk-synchronous compute cost of the local row-block products."""
    return max(
        model.spmv_time(matrix.nnz_of(rank) * n_rhs)
        for rank in range(matrix.partition.n_parts)
    )


def distributed_spmv(matrix: DistributedMatrix, x: DistributedMultiVector,
                     out: DistributedMultiVector,
                     context: Optional[CommunicationContext] = None,
                     *, charge: bool = True,
                     overlap: bool = False) -> DistributedMultiVector:
    """Compute ``out = matrix @ x`` on the virtual cluster.

    Parameters
    ----------
    matrix, x, out:
        Distributed operands sharing one partition and cluster; *x* and
        *out* have the same column count ``k`` (``1`` for vectors).
    context:
        The SpMV scatter plan.  If ``None`` the matrix's cached default plan
        is used (derived from the sparsity pattern on first use; solvers
        pass a prebuilt plan).  A plan that does not cover the matrix's
        off-diagonal columns raises :class:`ContextMismatchError`.
    charge:
        Charge communication and compute to the cost ledger (solvers always
        do; some verification helpers pass ``False``).
    overlap:
        Execute split-phase (diagonal compute overlapped with the halo
        exchange) and charge the overlap-aware cost.  Split execution rounds
        like PETSc's overlapped ``MatMult`` -- results can differ from the
        fused kernel in the last bits (see ``spmv_engine``).

    :class:`~repro.core.block_pcg.BlockPCG` drives this kernel once per
    iteration and pairs it with batched ``k``-scalar allreduces
    (:meth:`~repro.distributed.dmultivector.DistributedMultiVector.dots`), so
    both latency-bound legs of the PCG iteration -- halo exchange and
    reductions -- ship message counts independent of ``k``.

    Every charged SpMV runs inside a sanitizer op window: a charging call
    that books nothing to the ledger is the ``uncharged_op`` bug class
    SimSan exists to catch.
    """
    partition = matrix.partition
    if not partition.is_compatible_with(x.partition):
        raise ValueError("matrix and input vector have incompatible partitions")
    if not partition.is_compatible_with(out.partition):
        raise ValueError("matrix and output vector have incompatible partitions")
    if x.n_cols != out.n_cols:
        raise ValueError(
            f"input has {x.n_cols} columns but output has {out.n_cols}"
        )
    ledger = matrix.cluster.ledger
    n_rhs = x.n_cols
    with _sanitizer.op_window("spmv", ledger, required=charge):
        # Looked up before anything is charged: a mismatched plan, or a
        # cold cache with a failed owner, raises with nothing booked.
        engine = matrix.spmv_engine(
            context if context is not None else matrix.default_context())
        if overlap:
            if charge:
                ch = engine.overlap_charge(n_rhs)
                ledger.add_overlapped(Phase.HALO_COMM, Phase.SPMV_COMPUTE,
                                      ch.compute_time, ch.total_time)
                ledger.add_traffic(Phase.HALO_COMM, ch.n_messages,
                                   ch.n_elements)
            engine.apply_block(x, out, split=True)
            return out
        if charge:
            halo_time, n_msg, n_elem = engine.halo_cost_for(n_rhs)
            ledger.add_time(Phase.HALO_COMM, halo_time)
            ledger.add_traffic(Phase.HALO_COMM, n_msg, n_elem)
        engine.apply_block(x, out)
        if charge:
            ledger.add_time(Phase.SPMV_COMPUTE, engine.compute_cost_for(n_rhs))
    return out
