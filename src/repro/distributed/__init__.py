"""Distributed sparse linear algebra on the virtual cluster.

Block-row partitions, distributed multi-vectors (a vector is the one-column
case) and matrices -- each one contiguous array whose per-rank views live in
the node memories (see :mod:`repro.distributed.blockstore`) -- SpMV
communication contexts (generalized scatters), and the distributed SpMV with
its execution engine (one sparse kernel over all ranks, split-phase
comm/compute overlap; PETSc-style ``MatMult`` -- see
:mod:`repro.distributed.spmv_engine`).
"""

from .comm_context import CommunicationContext, ContextMismatchError
from .dmatrix import DistributedMatrix
from .dmultivector import DistributedMultiVector, fused_dots, norms_from_dots
from .dvector import DistributedVector
from .partition import BlockRowPartition
from .spmv import distributed_spmv, halo_exchange_cost, spmv_compute_cost
from .spmv_engine import OverlapCharge, SpmvEngine

__all__ = [
    "BlockRowPartition",
    "DistributedVector",
    "DistributedMatrix",
    "DistributedMultiVector",
    "CommunicationContext",
    "ContextMismatchError",
    "OverlapCharge",
    "SpmvEngine",
    "distributed_spmv",
    "fused_dots",
    "norms_from_dots",
    "halo_exchange_cost",
    "spmv_compute_cost",
]
