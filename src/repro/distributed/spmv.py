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

Two numeric execution paths produce bit-identical results and charges:

* the **engine** (default) -- a cached
  :class:`~repro.distributed.spmv_engine.SpmvEngine` that computes every
  rank's rows with one CSR kernel over the matrix's and the operand's
  contiguous storage, after one liveness check;
* the **dense-gather reference** (``engine=False``, or automatic fallback
  when the context does not match the matrix) -- assembles a fresh global
  operand and multiplies each rank's full ``(n_i, n)`` row block against it.
  It is kept as the independent oracle for equivalence tests and the
  ``bench_spmv_engine`` benchmark.

With ``overlap=True`` (and an engine), the SpMV executes split-phase --
``A_diag @ X_own`` while the ghosts are in flight, then the off-diagonal
accumulation -- and the ledger is charged the overlap-aware
``max_i(max(halo_i, diag_i) + offdiag_i)`` instead of the serialized
``halo + compute``.  See :mod:`repro.distributed.spmv_engine` for the
execution model and the (last-bits) rounding caveat of split execution;
``overlap=False`` reproduces the serialized charges bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

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
                     engine: bool = True,
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
        pass a prebuilt plan).
    charge:
        Charge communication and compute to the cost ledger (solvers always
        do; some verification helpers pass ``False``).
    engine:
        Execute through the cached :class:`SpmvEngine` (default).
        ``False`` forces the dense-gather reference path; the two paths are
        bit-identical in results and charges.
    overlap:
        Execute split-phase (diagonal compute overlapped with the halo
        exchange) and charge the overlap-aware cost.  Requires the engine;
        when the engine is unavailable (``engine=False`` or a mismatched
        context) the serialized path runs instead.  Split execution rounds
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
    with _sanitizer.op_window("spmv", matrix.cluster.ledger,
                              required=charge):
        _execute_spmv(matrix, x, out, context, charge=charge, engine=engine,
                      overlap=overlap)
    return out


def _execute_spmv(matrix: DistributedMatrix, x: DistributedMultiVector,
                  out: DistributedMultiVector,
                  context: Optional[CommunicationContext],
                  *, charge: bool, engine: bool, overlap: bool) -> None:
    """The charge-then-compute body of :func:`distributed_spmv`.

    The halo charge must land *before* any node-memory read that may raise
    on failed nodes (matching the dense-gather reference's charge order on
    the serialized path), and the overlap branch falls through to the
    serialized path when the context does not match the matrix.
    """
    cluster = matrix.cluster
    ledger = cluster.ledger
    n_rhs = x.n_cols

    if context is None:
        context = matrix.default_context()

    if overlap and engine:
        # The overlap charge needs the engine's diag/offdiag split, so the
        # engine is built (node memories touched) before anything is
        # charged; serialized charge-order equivalence only holds for
        # overlap=False.
        spmv_engine = matrix.spmv_engine(context)
        if spmv_engine is not None:
            if charge:
                ch = spmv_engine.overlap_charge(n_rhs)
                ledger.add_overlapped(Phase.HALO_COMM, Phase.SPMV_COMPUTE,
                                      ch.compute_time, ch.total_time)
                ledger.add_traffic(Phase.HALO_COMM, ch.n_messages,
                                   ch.n_elements)
            spmv_engine.apply_block(x, out, split=True)
            return
        # Mismatched context: fall through to the serialized reference path.

    # Cache lookup only -- the halo charge must land before any node-memory
    # read that may raise on failed nodes.  A cache miss recomputes the halo
    # cost directly (same value the engine caches) and builds the engine
    # after the charge.
    spmv_engine = matrix.cached_spmv_engine(context) if engine else None

    if charge:
        if spmv_engine is not None:
            halo_time, n_msg, n_elem = spmv_engine.halo_cost_for(n_rhs)
        else:
            halo_time, n_msg, n_elem = halo_exchange_cost(
                context, cluster.topology, ledger.model, n_rhs=n_rhs
            )
        ledger.add_time(Phase.HALO_COMM, halo_time)
        ledger.add_traffic(Phase.HALO_COMM, n_msg, n_elem)

    if engine and spmv_engine is None:
        # None when the context does not cover the matrix's off-diagonal
        # columns; the dense-gather path below never depends on the context
        # numerically.
        spmv_engine = matrix.spmv_engine(context)

    if spmv_engine is not None:
        spmv_engine.apply_block(x, out)
    else:
        # Dense-gather reference: each node multiplies its (n_i x n) row
        # block with the freshly assembled global operand; only the ghost
        # elements described by the context would be communicated on a real
        # machine.  Reading every owner's block here also enforces the
        # failure semantics: SpMV cannot proceed with a failed owner.
        xs, ys = x.as_multivector(), out.as_multivector()
        partition = matrix.partition
        x_global = np.empty((partition.n, n_rhs))
        for rank in range(partition.n_parts):
            start, stop = partition.range_of(rank)
            x_global[start:stop] = xs.get_block(rank)
        for rank in range(partition.n_parts):
            ys.set_block(rank, matrix.row_block(rank) @ x_global)

    if charge:
        ledger.add_time(
            Phase.SPMV_COMPUTE,
            spmv_engine.compute_cost_for(n_rhs) if spmv_engine is not None
            else spmv_compute_cost(matrix, ledger.model, n_rhs=n_rhs),
        )
