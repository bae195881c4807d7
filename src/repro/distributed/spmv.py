"""Distributed sparse matrix-vector products.

``distributed_spmv`` performs ``Y = A X`` for a block-row distributed matrix
and the ``(n_i, k)`` blocks of a
:class:`~repro.distributed.dmultivector.DistributedMultiVector` -- a single
:class:`~repro.distributed.dvector.DistributedVector` is the ``k = 1`` case.
The halo exchange defined by the matrix's scatter plan (its
:class:`CommunicationContext`, :attr:`DistributedMatrix.context`) ships all
``k`` columns in one message per scatter edge (same message count, ``k``-fold
volume) and is charged to the latency-bandwidth cost model (Phase
``comm.halo``); the local row-block products are charged as memory-bound
compute (Phase ``compute.spmv``), and the numeric result is stored
block-by-block into the output.

Every product runs through the matrix's one
:class:`~repro.distributed.spmv_engine.SpmvEngine`
(:meth:`DistributedMatrix.spmv_engine`), which computes every rank's rows
with one CSR kernel over the matrix's and the operand's contiguous storage,
after one liveness check.  The engine is looked up (and, when it is missing
or stale, built) before anything is charged, so a build with a failed owner
raises ``NodeFailedError`` with nothing booked.

With ``overlap=True`` the SpMV executes split-phase -- ``A_diag @ X_own``
while the ghosts are in flight, then the off-diagonal accumulation -- and
the ledger is charged the overlap-aware
``max_i(max(halo_i, diag_i) + offdiag_i)`` instead of the serialized
``halo + compute``.  See :mod:`repro.distributed.spmv_engine` for the
execution model and the (last-bits) rounding caveat of split execution.

Both halo charges read one per-receiver pass over the plan,
:func:`receiver_halo_times`: rank ``k``'s incoming message costs summed
over its senders in ascending order.  The serialized charge is its maximum
(:func:`halo_exchange_cost`); the overlap-aware charge pairs each entry
with that rank's diagonal and off-diagonal compute.
"""

from __future__ import annotations

from typing import List, Tuple

from .. import sanitizer as _sanitizer
from ..cluster.cost_model import Phase
from .comm_context import CommunicationContext
from .dmatrix import DistributedMatrix
from .dmultivector import DistributedMultiVector


def receiver_halo_times(context: CommunicationContext, topology, model,
                        n_rhs: int = 1) -> List[float]:
    """Per receiving rank, the summed cost of its incoming halo messages.

    Entry ``k`` is ``sum_i (lambda_ik + |S_ik| * n_rhs * mu)`` over the
    senders ``i`` of rank ``k`` in ascending order (``0.0`` for a rank
    that receives nothing).  This one pass feeds both the serialized halo
    charge (:func:`halo_exchange_cost`) and the overlap-aware charge of
    :meth:`~repro.distributed.spmv_engine.SpmvEngine.overlap_charge`.
    """
    times = []
    for dst in range(context.partition.n_parts):
        total = 0.0
        for src in context.senders_to(dst):
            total += model.message_time(topology.latency(src, dst),
                                        context.send_count(src, dst) * n_rhs)
        times.append(total)
    return times


def halo_exchange_cost(context: CommunicationContext, topology, model,
                       n_rhs: int = 1) -> Tuple[float, int, int]:
    """Bulk-synchronous cost of one halo exchange of *n_rhs* columns.

    Returns ``(time, n_messages, n_elements)`` where *time* is the maximum
    over receiving nodes of the summed cost of their incoming messages (each
    ``lambda_ik + |S_ik| * n_rhs * mu``), matching the model of Sec. 4.2.
    Batched multi-RHS exchanges (``n_rhs > 1``) ship all columns of an edge
    in one message: the message count is unchanged, the volume scales.
    """
    return (max(receiver_halo_times(context, topology, model, n_rhs)),
            context.total_messages(),
            context.total_exchanged_elements() * n_rhs)


def spmv_compute_cost(matrix: DistributedMatrix, model,
                      n_rhs: int = 1) -> float:
    """Bulk-synchronous compute cost of the local row-block products."""
    return max(
        model.spmv_time(matrix.nnz_of(rank) * n_rhs)
        for rank in range(matrix.partition.n_parts)
    )


def distributed_spmv(matrix: DistributedMatrix, x: DistributedMultiVector,
                     out: DistributedMultiVector, *, charge: bool = True,
                     overlap: bool = False) -> DistributedMultiVector:
    """Compute ``out = matrix @ x`` on the virtual cluster.

    Parameters
    ----------
    matrix, x, out:
        Distributed operands sharing one partition and cluster; *x* and
        *out* have the same column count ``k`` (``1`` for vectors).  The
        halo exchange follows the matrix's own scatter plan.
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
        # Looked up before anything is charged: a build with a failed owner
        # raises with nothing booked.
        engine = matrix.spmv_engine()
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
