"""Latency-bandwidth cost model and simulated-time bookkeeping.

The paper analyses the overhead of the resilient PCG solver in a classical
latency-bandwidth model (Sec. 4.2): sending ``k`` vector elements from one
node to another costs ``lambda + k * mu`` where ``lambda`` is a per-message
latency (which may differ between node pairs, e.g. within/between switches of
a fat tree) and ``mu`` is the per-element transfer cost.  Computation is
charged per floating-point operation with different effective rates for
memory-bound sparse kernels and cache-friendly vector operations.

The solvers in :mod:`repro.core` execute *numerically* on the driver process
but charge every operation to a :class:`CostLedger` using a bulk-synchronous
model: for each logical step the maximum cost over all participating nodes is
added to the simulated clock.  The relative overheads reported by the
benchmark harness (Table 2, Figures 1-4) are ratios of these simulated times,
mirroring the quantities the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from .. import sanitizer as _sanitizer
from ..utils.rng import RandomState, jittered
from ..utils.validation import check_nonnegative, check_positive


class Phase:
    """Canonical phase names used when charging costs to the ledger."""

    SPMV_COMPUTE = "compute.spmv"
    VECTOR_COMPUTE = "compute.vector"
    PRECOND_COMPUTE = "compute.precond"
    HALO_COMM = "comm.halo"
    REDUNDANCY_COMM = "comm.redundancy"
    ALLREDUCE_COMM = "comm.allreduce"
    RECOVERY_COMM = "recovery.comm"
    RECOVERY_COMPUTE = "recovery.compute"
    STORAGE_RETRIEVE = "recovery.storage"
    CHECKPOINT = "checkpoint"

    #: Phases that make up the failure-free iteration cost.
    ITERATION_PHASES = (
        SPMV_COMPUTE,
        VECTOR_COMPUTE,
        PRECOND_COMPUTE,
        HALO_COMM,
        REDUNDANCY_COMM,
        ALLREDUCE_COMM,
        CHECKPOINT,
    )
    #: Phases attributed to recovery after node failures.
    RECOVERY_PHASES = (RECOVERY_COMM, RECOVERY_COMPUTE, STORAGE_RETRIEVE)


@dataclass(frozen=True)
class MachineModel:
    """Performance parameters of the simulated parallel computer.

    The defaults are loosely modelled on a commodity cluster of the VSC3 era
    (the machine used in the paper): InfiniBand-class latencies, a few GB/s of
    usable point-to-point bandwidth, and SpMV throughput limited by memory
    bandwidth rather than peak FLOP rate.  Absolute values only set the time
    unit; the benchmark harness reports *relative* overheads.

    Parameters
    ----------
    latency_intra:
        Message latency (seconds) between nodes connected to the same switch.
    latency_inter:
        Message latency (seconds) between nodes under different switches.
    element_transfer_time:
        ``mu``: time (seconds) to transfer one 8-byte vector element.
    spmv_flop_rate:
        Effective flop/s for sparse matrix-vector products (memory bound).
    vector_flop_rate:
        Effective flop/s for streaming vector operations (axpy, dot, ...).
    precond_flop_rate:
        Effective flop/s for applying the preconditioner.
    storage_latency / storage_element_time:
        Cost of retrieving static data (matrix/vector blocks) from reliable
        external storage during recovery.
    allreduce_term_latency:
        Per-tree-level latency of an allreduce/reduction (the familiar
        ``ceil(log2 N)`` model of collective communication).
    jitter_rel_std:
        Relative standard deviation of multiplicative noise applied to every
        charged cost, emulating run-to-run variability of a real machine.
    """

    latency_intra: float = 1.5e-6
    latency_inter: float = 3.5e-6
    element_transfer_time: float = 1.6e-9
    spmv_flop_rate: float = 2.0e9
    vector_flop_rate: float = 6.0e9
    precond_flop_rate: float = 2.5e9
    storage_latency: float = 5.0e-4
    storage_element_time: float = 4.0e-9
    allreduce_term_latency: float = 2.0e-6
    jitter_rel_std: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.latency_intra, "latency_intra")
        check_positive(self.latency_inter, "latency_inter")
        check_positive(self.element_transfer_time, "element_transfer_time")
        check_positive(self.spmv_flop_rate, "spmv_flop_rate")
        check_positive(self.vector_flop_rate, "vector_flop_rate")
        check_positive(self.precond_flop_rate, "precond_flop_rate")
        check_nonnegative(self.storage_latency, "storage_latency")
        check_nonnegative(self.storage_element_time, "storage_element_time")
        check_positive(self.allreduce_term_latency, "allreduce_term_latency")
        check_nonnegative(self.jitter_rel_std, "jitter_rel_std")

    def scaled(self, factor: float) -> "MachineModel":
        """A machine model emulating problems *factor* times larger per node.

        The benchmark harness runs scaled-down analogues of the paper's
        matrices (a few thousand rows per node instead of ~10 000).  To keep
        the compute/latency balance of the original experiments, each
        simulated row is treated as standing for *factor* real rows: per-row
        compute and per-element transfer costs grow by *factor* while
        per-message latencies stay fixed.  Relative overheads (the quantities
        the paper reports) then land in the same regime as on the real
        machine.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return MachineModel(
            latency_intra=self.latency_intra,
            latency_inter=self.latency_inter,
            element_transfer_time=self.element_transfer_time * factor,
            spmv_flop_rate=self.spmv_flop_rate / factor,
            vector_flop_rate=self.vector_flop_rate / factor,
            precond_flop_rate=self.precond_flop_rate / factor,
            storage_latency=self.storage_latency,
            storage_element_time=self.storage_element_time * factor,
            allreduce_term_latency=self.allreduce_term_latency,
            jitter_rel_std=self.jitter_rel_std,
        )

    # -- elementary cost formulas -----------------------------------------
    def message_time(self, latency: float, n_elements: int) -> float:
        """Cost of one point-to-point message with *n_elements* vector entries."""
        if n_elements <= 0:
            return 0.0
        return latency + n_elements * self.element_transfer_time

    def spmv_time(self, nnz: int) -> float:
        """Compute time of a local SpMV with *nnz* stored non-zeros (2 flops/nnz)."""
        return 2.0 * max(nnz, 0) / self.spmv_flop_rate

    def vector_op_time(self, n_elements: int, flops_per_element: float = 2.0) -> float:
        """Compute time of a streaming vector operation over *n_elements*."""
        return flops_per_element * max(n_elements, 0) / self.vector_flop_rate

    def precond_apply_time(self, work_nnz: int) -> float:
        """Compute time of applying a preconditioner with *work_nnz* non-zeros."""
        return 2.0 * max(work_nnz, 0) / self.precond_flop_rate

    def allreduce_time(self, n_nodes: int, n_scalars: int = 1) -> float:
        """Cost of an allreduce over *n_nodes* of *n_scalars* doubles.

        Batched reductions (the ``k`` per-column dots of a multi-RHS block)
        pass ``n_scalars = k``: every tree hop remains **one** message
        paying the per-level latency once, and only the per-hop volume term
        scales with the payload width -- the same message-count-invariant
        scaling ``halo_exchange_cost`` applies to multi-RHS halo exchanges.  Since the latency term
        dominates for the few-scalar reductions of (block-)PCG, a ``k``-wide
        reduction costs far less than ``k`` scalar ones.
        """
        if n_nodes <= 1:
            return 0.0
        levels = math.ceil(math.log2(n_nodes))
        per_level = self.allreduce_term_latency + n_scalars * self.element_transfer_time
        # reduce + broadcast (or equivalently a butterfly of 2*levels stages)
        return 2.0 * levels * per_level

    def storage_retrieve_time(self, n_elements: int) -> float:
        """Cost of pulling *n_elements* values from reliable external storage."""
        if n_elements <= 0:
            return 0.0
        return self.storage_latency + n_elements * self.storage_element_time


@dataclass
class CostLedger:
    """Accumulates simulated time (and traffic counters) per phase.

    The ledger is the single source of truth for "how long did this run
    take" in simulated time.  It also tracks message and element counters so
    the analysis module can validate the Sec. 4.2 bounds independently of the
    time accounting.
    """

    model: MachineModel
    rng: Optional[RandomState] = None
    times: Dict[str, float] = field(default_factory=dict)
    messages: Dict[str, int] = field(default_factory=dict)
    elements: Dict[str, int] = field(default_factory=dict)

    # -- charging ----------------------------------------------------------
    def add_time(self, phase: str, seconds: float) -> float:
        """Charge *seconds* of simulated time to *phase* (with optional jitter)."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds} to {phase}")
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_charge(phase)
        actual = jittered(self.rng, seconds, self.model.jitter_rel_std)
        self.times[phase] = self.times.get(phase, 0.0) + actual
        return actual

    def add_overlapped(self, comm_phase: str, compute_phase: str,
                       compute_time: float, total_time: float) -> float:
        """Charge an overlapped communication/compute step.

        *total_time* is the bulk-synchronous wall time of the whole step
        (e.g. ``max_i(max(halo_i, diag_i) + offdiag_i)`` for a split-phase
        SpMV) and *compute_time* the part attributable to pure compute
        (``max_i(diag_i + offdiag_i)``).  The compute phase is charged in
        full and the communication phase only the *exposed* remainder
        ``total_time - compute_time``, so the per-phase breakdown still sums
        to the overlapped wall time.  Returns the total charged time
        (including jitter, when enabled).
        """
        if total_time < compute_time:
            raise ValueError(
                f"overlapped total time {total_time} is smaller than its "
                f"compute part {compute_time}"
            )
        charged = self.add_time(compute_phase, compute_time)
        charged += self.add_time(comm_phase, total_time - compute_time)
        return charged

    def add_traffic(self, phase: str, n_messages: int, n_elements: int) -> None:
        """Record *n_messages* messages totalling *n_elements* vector entries."""
        if n_messages:
            self.messages[phase] = self.messages.get(phase, 0) + int(n_messages)
        if n_elements:
            self.elements[phase] = self.elements.get(phase, 0) + int(n_elements)

    # -- queries -----------------------------------------------------------
    def total_time(self, phases: Optional[Iterable[str]] = None) -> float:
        """Total simulated time, optionally restricted to *phases*."""
        if phases is None:
            return float(sum(self.times.values()))
        wanted = set(phases)
        return float(sum(t for p, t in self.times.items() if p in wanted))

    def iteration_time(self) -> float:
        """Simulated time spent in failure-free iteration phases."""
        return self.total_time(Phase.ITERATION_PHASES)

    def recovery_time(self) -> float:
        """Simulated time spent recovering from node failures."""
        return self.total_time(Phase.RECOVERY_PHASES)

    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-phase time map (sorted by phase name)."""
        return {k: self.times[k] for k in sorted(self.times)}

    def total_messages(self, phases: Optional[Iterable[str]] = None) -> int:
        if phases is None:
            return int(sum(self.messages.values()))
        wanted = set(phases)
        return int(sum(v for p, v in self.messages.items() if p in wanted))

    def total_elements(self, phases: Optional[Iterable[str]] = None) -> int:
        if phases is None:
            return int(sum(self.elements.values()))
        wanted = set(phases)
        return int(sum(v for p, v in self.elements.items() if p in wanted))

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Immutable copy of the current per-phase times (for differencing)."""
        return dict(self.times)

    def since(self, snapshot: Mapping[str, float],
              phases: Optional[Iterable[str]] = None) -> float:
        """Time accumulated since *snapshot*, optionally restricted to *phases*."""
        keys = set(self.times) | set(snapshot)
        if phases is not None:
            keys &= set(phases)
        # Accumulate in sorted-key order: set iteration is hash-randomised
        # per process, and a float sum in hash order is bit-unstable across
        # otherwise identical runs (R005).
        return float(
            sum(self.times.get(k, 0.0) - snapshot.get(k, 0.0)
                for k in sorted(keys))
        )

    def reset(self) -> None:
        """Clear all accumulated costs."""
        self.times.clear()
        self.messages.clear()
        self.elements.clear()
