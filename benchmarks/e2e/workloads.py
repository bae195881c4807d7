"""The end-to-end benchmark's workloads; this file is the workload process.

``run.py`` starts ``python workloads.py --workload NAME --seed N --seconds S
--trace 0|1`` with ``src`` on ``PYTHONPATH`` and the BLAS thread pools
pinned to one thread, and reads the JSON record this process prints as its
last line.  Every input is generated here from ``--seed``; the library only
sees the generated matrices, right-hand sides, failure schedules and request
streams.

Every run has three stages:

* **set-up** (``setup_s``): everything a user pays before the first solve
  of a problem -- matrix build, distribution, preconditioner set-up and a
  warm-up solve that fills the SpMV-engine and preconditioner caches.  It is
  repeated and its median reported.
* **measurement**: timed samples until ``--seconds`` have passed, and at
  least ``min_samples`` of them.  Every solve and request is checked against
  SciPy on the global matrix; a failed check counts in ``failed``.
* **deterministic record**: iterations, simulated (ledger) time per phase
  and message/element counts, averaged over the first ``min_samples``
  samples, so they depend on the seed and not on how fast the host is.
  Host-only changes must leave them -- and the ``fingerprint`` hashing
  every per-sample value -- bit-identical.  ``peak_rss_mb`` is read after
  the same prefix: the allocator's footprint keeps creeping up with every
  further sample, so a later reading would grow with the host's speed.

**Calibrated host time.**  A shared or virtualised host changes speed by
tens of percent within minutes while the work stays the same.  Every timed
region therefore sits between two runs of a fixed calibration loop
(interpreter work plus small NumPy calls, the simulator's own mix), and host
times are reported in *reference* units: measured time times ``CAL_REF_S``
over the calibration time measured around it, i.e. the time the same work
takes on a host where the loop takes ``CAL_REF_S``.  Raw wall-clock values
are kept in the record under ``raw``.

With ``--trace 1`` every fourth sample runs with the layer wrappers of
:mod:`tracer` installed; the per-layer numbers are per traced solve (per
traced request for the service) and ``tracing.overhead_pct`` compares the
traced samples' median time against the untraced ones'.  Every span is
written to ``bench-results/trace-<workload>-s<seed>.jsonl`` when the run
ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy
import scipy.sparse as sp

import repro
from repro.cluster.cost_model import CostLedger, Phase
from repro.core import api, block_pcg, pcg, resilient_pcg
from repro.core.esr import ESRProtocol
from repro.core.reconstruction import ESRReconstructor
from repro.distributed.blockstore import NodeBlockStore
from repro.distributed.dmatrix import DistributedMatrix
from repro.distributed.dmultivector import DistributedMultiVector
from repro.distributed.dvector import DistributedVector
from repro.distributed.spmv_engine import SpmvEngine
from repro.matrices import build_matrix, poisson_2d
from repro.service import SolverService, TrafficSpec, generate_traffic
from repro.service import service as service_module
from repro.solvers.local_solver import LocalSubsystemSolver

from tracer import Target, Tracer

#: A solve or request passes when it converged and its relative residual
#: ``||b - A x|| / ||b||``, computed here with SciPy, is at most this.
RESIDUAL_CEILING = 1e-7
#: A recovered solve must match the failure-free one to this relative error.
RECOVERY_MATCH = 1e-12
#: Set-up is repeated this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: With ``--trace 1`` one sample in this many runs traced.
TRACE_EVERY = 4
#: Where a traced run writes its spans, relative to the repository root.
ROOT = Path(__file__).resolve().parents[2]
TRACE_DIR = "bench-results"
#: Calibration loop iterations, and the loop's host seconds on the reference
#: host (2-vCPU x86-64 VM, Python 3.11, NumPy 2.4) when it is not contended.
CAL_ITERATIONS = 1000
CAL_REF_S = 3.0e-3
#: Phases whose message and element counts are reported.
COUNTED_PHASES = (Phase.HALO_COMM, Phase.REDUNDANCY_COMM,
                  Phase.ALLREDUCE_COMM, Phase.RECOVERY_COMM)
ALL_PHASES = Phase.ITERATION_PHASES + Phase.RECOVERY_PHASES

#: Workload parameters, full size and ``--smoke`` size.
PARAMS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "scale-n128": {
        "full": {"side": 64, "nodes": 128, "min_samples": 8},
        "smoke": {"side": 12, "nodes": 16, "min_samples": 4},
    },
    "scale-n8": {
        "full": {"side": 64, "nodes": 8, "min_samples": 40},
        "smoke": {"side": 12, "nodes": 4, "min_samples": 4},
    },
    "recover-m3": {
        "full": {"n": 8000, "nodes": 32, "fail_at": (10, 20, 30, 40),
                 "min_samples": 8},
        "smoke": {"n": 600, "nodes": 8, "fail_at": (3, 6), "min_samples": 4},
    },
    "service-open": {
        "full": {"side": 48, "nodes": 8, "k_max": 8, "round_size": 32,
                 "min_samples": 4, "burst_share": 0.6, "check_direct": 16,
                 "rate": 20.0, "window_s": 0.02, "min_open": 60},
        "smoke": {"side": 10, "nodes": 2, "k_max": 4, "round_size": 4,
                  "min_samples": 4, "burst_share": 0.6, "check_direct": 4,
                  "rate": 200.0, "window_s": 0.005, "min_open": 8},
    },
}
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
PHI = 3


PLAIN_SPEC = repro.SolveSpec(solver="pcg", rtol=1e-8,
                             preconditioner="block_jacobi")


def resilient_spec(failures: Sequence = ()) -> repro.SolveSpec:
    return repro.SolveSpec(solver="resilient_pcg", rtol=1e-8,
                           preconditioner="block_jacobi",
                           resilience=repro.ResilienceSpec(
                               phi=PHI, failures=tuple(failures)))


def relative_residual(a: sp.csr_matrix, b: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


def calibration_loop() -> float:
    """A fixed mix of interpreter work and small NumPy calls."""
    x = np.arange(64.0)
    y = np.ones(64)
    slots: Dict[int, float] = {}
    for i in range(CAL_ITERATIONS):
        slots[i & 63] = float(x @ y)
        y = 0.5 * y + 1e-3 * x[::-1]
    return sum(slots.values())


def due_time_latency_ms(due: float, sent: float,
                        service_latency_s: float) -> float:
    """Latency of an open-loop request timed from when it was due, so a
    late generator's stall counts against the requests it delayed."""
    return 1e3 * ((sent - due) + service_latency_s)


def layer_targets(precond_cls: type) -> List[Target]:
    """The public entry points wrapped per layer in a traced sample."""
    dvec, dmv = DistributedVector, DistributedMultiVector
    return [
        Target(pcg.DistributedPCG, "solve", "krylov"),
        Target(block_pcg.BlockPCG, "solve", "krylov"),
        Target(resilient_pcg.EsrResilienceMixin, "solve", "krylov"),
        Target(repro, "solve", "api"),
        Target(api, "solve", "api"),
        Target(service_module, "solve", "api"),
        *[Target(SpmvEngine, m, "spmv")
          for m in ("__init__", "apply", "apply_split", "apply_block")],
        Target(precond_cls, "apply_block", "precond"),
        Target(precond_cls, "setup", "precond"),
        *[Target(cls, m, "blas1") for cls in (dvec, dmv)
          for m in ("axpy", "aypx", "assign", "copy")],
        Target(dvec, "dot", "reduce"),
        Target(dvec, "norm2", "reduce"),
        Target(dmv, "dots", "reduce"),
        Target(dmv, "norms2", "reduce"),
        Target(block_pcg, "fused_dots", "reduce"),
        Target(ESRProtocol, "after_spmv", "esr_stage"),
        Target(ESRReconstructor, "reconstruct", "recovery"),
        Target(ESRProtocol, "recover_block", "recovery"),
        Target(LocalSubsystemSolver, "solve", "recovery"),
        Target(LocalSubsystemSolver, "solve_block", "recovery"),
        Target(DistributedMatrix, "recovery_rows", "recovery"),
        Target(DistributedMatrix, "restore_block_to_node", "recovery"),
        Target(NodeBlockStore, "restore_block", "recovery"),
        *[Target(CostLedger, m, "ledger")
          for m in ("add_time", "add_overlapped", "add_traffic")],
        Target(SolverService, "submit", "service"),
    ]


@dataclass
class Run:
    """What one workload process measures, checks and reports."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    clock: Callable[[], float] = time.perf_counter
    tracer: Optional[Tracer] = None
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    residual_max: float = 0.0
    #: Host seconds of every calibration loop run so far.
    calibrations: List[float] = field(default_factory=list)
    #: ``(raw, reference)`` seconds of each set-up and each timed sample
    #: (samples split by whether they were traced).
    setups: List[Tuple[float, float]] = field(default_factory=list)
    ops: List[Tuple[float, float]] = field(default_factory=list)
    traced_ops: List[Tuple[float, float]] = field(default_factory=list)
    #: Operations run while tracing was on (per-layer denominators).
    n_traced: int = 0
    #: Per-sample deterministic rows (fixed prefix only).
    det_rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Peak RSS once set-up and the fixed prefix of samples have run.
    prefix_rss_mb: float = 0.0
    layer_extra: Dict[str, float] = field(default_factory=dict)

    @property
    def params(self) -> Dict[str, Any]:
        return PARAMS[self.workload]["smoke" if self.smoke else "full"]

    def seed_sequence(self, stream: int) -> np.random.SeedSequence:
        """The seed of one input stream of this workload."""
        tag = sorted(PARAMS).index(self.workload)
        return np.random.SeedSequence([self.seed, tag, stream])

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence(stream))

    # -- timing --------------------------------------------------------------
    def calibrate(self, loops: int = 1) -> List[float]:
        """Run the calibration loop *loops* times; their host seconds."""
        times = []
        for _ in range(loops):
            t0 = self.clock()
            calibration_loop()
            times.append(self.clock() - t0)
        self.calibrations += times
        return times

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``fn()`` between two calibration loops: ``(result, host seconds,
        reference seconds)``."""
        before = self.calibrate()
        t0 = self.clock()
        out = fn()
        raw = self.clock() - t0
        cal = np.percentile(before + self.calibrate(), 50)
        return out, raw, raw * CAL_REF_S / cal

    def speed_factor(self) -> float:
        """Reference seconds per host second over the whole run."""
        return CAL_REF_S / np.percentile(self.calibrations, 50)

    # -- checks --------------------------------------------------------------
    def judge(self, label: str, problems: List[str]) -> bool:
        """Count one attempted operation; it failed if *problems* is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def solution_problems(self, a: sp.csr_matrix, b: np.ndarray,
                          x: np.ndarray, converged: bool) -> List[str]:
        rel = relative_residual(a, b, x)
        self.residual_max = max(self.residual_max, rel)
        problems = []
        if not converged:
            problems.append("not converged")
        if not rel <= RESIDUAL_CEILING:
            problems.append(f"relative residual {rel:.3e} > {RESIDUAL_CEILING}")
        return problems

    # -- samples -------------------------------------------------------------
    @contextlib.contextmanager
    def sample(self, index: int, targets: Callable[[], List[Target]]
               ) -> Iterator[bool]:
        """Run one sample, with the layer wrappers installed if traced."""
        traced = (self.tracer is not None
                  and index % TRACE_EVERY == TRACE_EVERY - 1)
        if traced:
            self.tracer.sample_id = index
            self.tracer.install(targets())
        try:
            yield traced
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.sample_id = -1

    def record_op(self, raw: float, ref: float, traced: bool,
                  ops: int = 1) -> None:
        (self.traced_ops if traced else self.ops).append((raw, ref))
        self.n_traced += ops if traced else 0

    def keep_measuring(self, index: int, start: float,
                       seconds: Optional[float] = None) -> bool:
        """Whether to take sample *index*: the first ``min_samples`` are
        always taken, later ones until *seconds* (default ``--seconds``)
        have passed since *start*.  Asked for the first sample past the
        prefix, it also reads the peak RSS."""
        budget = self.seconds if seconds is None else seconds
        if index == self.params["min_samples"]:
            self.prefix_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return (index < self.params["min_samples"]
                or self.clock() - start < budget)

    def record_det(self, iterations: float, sim_s: float,
                   breakdown: Dict[str, float], messages: Dict[str, int],
                   elements: Dict[str, int],
                   overhead_pct: Optional[float] = None) -> None:
        self.det_rows.append({
            "iterations": iterations, "sim_s": sim_s,
            "breakdown": {k: breakdown[k] for k in sorted(breakdown)},
            "messages": {k: messages[k] for k in sorted(messages)},
            "elements": {k: elements[k] for k in sorted(elements)},
            "overhead_pct": overhead_pct,
        })

    # -- results -------------------------------------------------------------
    def deterministic(self) -> Dict[str, Any]:
        rows = self.det_rows
        n = len(rows)
        out: Dict[str, Any] = {
            "ops": n,
            "iterations": sum(r["iterations"] for r in rows) / n,
            "sim_s_per_op": sum(r["sim_s"] for r in rows) / n,
        }
        for phase in ALL_PHASES:
            out[f"sim.{phase}_s"] = sum(
                r["breakdown"].get(phase, 0.0) for r in rows) / n
        for phase in COUNTED_PHASES:
            out[f"msgs.{phase}"] = sum(
                r["messages"].get(phase, 0) for r in rows) / n
            out[f"elems.{phase}"] = sum(
                r["elements"].get(phase, 0) for r in rows) / n
        overheads = [r["overhead_pct"] for r in rows
                     if r["overhead_pct"] is not None]
        out["sim.overhead_pct"] = (sum(overheads) / len(overheads)
                                   if overheads else 0.0)
        out["fingerprint"] = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
        return out

    def per_layer(self, det: Dict[str, Any]) -> Dict[str, float]:
        spans = self.tracer.layer
        n = max(self.n_traced, 1)
        ms = 1e3 * self.speed_factor()
        episodes = spans("recovery", "reconstruct").calls
        per_episode = ms / episodes if episodes else 0.0
        builds = spans("spmv", "__init__").calls
        setups = spans("precond", "setup").calls
        out = {
            "krylov.self_ms": ms * spans("krylov").self_s / n,
            "api.self_ms": ms * spans("api").self_s / n,
            "spmv.calls": (spans("spmv").calls - builds) / n,
            "spmv.self_ms": ms * spans("spmv").self_s / n,
            "spmv.engine_builds": builds / n,
            "precond.apply_calls": (spans("precond").calls - setups) / n,
            "precond.self_ms": ms * spans("precond").self_s / n,
            "precond.setups": setups / n,
            "blas1.calls": spans("blas1").calls / n,
            "blas1.self_ms": ms * spans("blas1").self_s / n,
            "reduce.calls": spans("reduce").calls / n,
            "reduce.self_ms": ms * spans("reduce").self_s / n,
            "esr_stage.self_ms": ms * spans("esr_stage").self_s / n,
            "recovery.episodes": episodes / n,
            "recovery.self_ms_per_episode":
                spans("recovery").self_s * per_episode,
            "recovery.retrieve_ms_per_episode":
                spans("recovery", "recovery_rows").total_s * per_episode,
            "recovery.local_solve_ms_per_episode":
                spans("recovery", "solve", "solve_block").total_s * per_episode,
            "recovery.restore_ms_per_episode":
                spans("recovery", "restore_block_to_node",
                      "restore_block").total_s * per_episode,
            "ledger.calls": spans("ledger").calls / n,
            "ledger.self_ms": ms * spans("ledger").self_s / n,
            "service.queue_wait_ms.p50": 0.0,
            "service.batch_wait_ms.p50": 0.0,
            "service.batch_solve_ms.p50": 0.0,
            "service.batch_width.mean": 0.0,
            "service.open_latency_ms.p50": 0.0,
            "service.open_latency_ms.p90": 0.0,
            "service.burst_rps": 0.0,
            "gen.lag_ms.p99": 0.0,
        }
        out.update({k: v for k, v in det.items()
                    if k.startswith(("sim.", "msgs.", "elems."))})
        out.update(self.layer_extra)
        overhead = 0.0
        if self.traced_ops and self.ops:
            overhead = 100.0 * (
                np.percentile([ref for _, ref in self.traced_ops], 50)
                / np.percentile([ref for _, ref in self.ops], 50) - 1.0)
        out["tracing.overhead_pct"] = overhead
        return out

    def record(self) -> Dict[str, Any]:
        """The run's JSON record."""
        det = self.deterministic()
        timed = self.ops + self.traced_ops
        raw_ms = [1e3 * raw for raw, _ in timed]
        ref_ms = [1e3 * ref for _, ref in timed]
        if self.trace:
            metrics = self.per_layer(det)
        else:
            metrics = {
                "setup_s": np.percentile([ref for _, ref in self.setups], 50),
                "latency.p50": np.percentile(ref_ms, 50),
                "iterations": det["iterations"],
                "sim_s_per_op": det["sim_s_per_op"],
                "peak_rss_mb": self.prefix_rss_mb,
            }
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "smoke": self.smoke,
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors,
            "samples": len(timed),
            "rel_residual_max": self.residual_max,
            "metrics": metrics,
            "raw": {
                "setup_s": np.percentile([raw for raw, _ in self.setups], 50),
                "latency_ms.p50": np.percentile(raw_ms, 50),
                "calibration_ms": 1e3 * np.percentile(self.calibrations, 50),
                "sample_ms": [round(v, 3) for v in raw_ms],
            },
            "deterministic": det,
        }


def ledger_counts(problem: api.DistributedProblem
                  ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Copies of the cluster ledger's message and element counters."""
    ledger = problem.cluster.ledger
    return dict(ledger.messages), dict(ledger.elements)


def counts_since(problem: api.DistributedProblem,
                 before: Tuple[Dict[str, int], Dict[str, int]]
                 ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Messages and elements per phase booked since *before*."""
    return tuple(
        {k: now[k] - then.get(k, 0) for k in now if now[k] != then.get(k, 0)}
        for then, now in zip(before, ledger_counts(problem)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_scale(run: Run) -> Dict[str, Any]:
    """Failure-free resilient PCG on one reused problem, many rhs."""
    p = run.params
    spec = resilient_spec()
    rhs_rng = run.rng(0)
    warm_rhs = rhs_rng.standard_normal(p["side"] ** 2)

    def set_up():
        a = poisson_2d(p["side"])
        problem = repro.distribute_problem(a, n_nodes=p["nodes"])
        return a, problem, repro.solve(problem, warm_rhs, spec=spec)

    for _ in range(SETUP_REPEATS):
        (a, problem, warm), raw, ref = run.timed(set_up)
        run.setups.append((raw, ref))
        run.judge("warm-up", run.solution_problems(
            a, warm_rhs, warm.x, warm.converged))
    precond_cls = type(problem.resolve_preconditioner(spec.preconditioner))

    index, start = 0, run.clock()
    while run.keep_measuring(index, start):
        b = rhs_rng.standard_normal(a.shape[0])
        if index == 0:
            first_rhs = b
        before = ledger_counts(problem)
        with run.sample(index, lambda: layer_targets(precond_cls)) as traced:
            res, raw, ref = run.timed(lambda: repro.solve(problem, b, spec=spec))
        run.record_op(raw, ref, traced)
        if index < p["min_samples"]:
            run.record_det(res.iterations, res.simulated_time,
                           res.time_breakdown, *counts_since(problem, before))
        run.judge(f"sample {index}",
                  run.solution_problems(a, b, res.x, res.converged))
        index += 1

    if run.trace:
        # Failure-free ESR overhead (paper Table 2, phi=3): resilient over
        # plain PCG simulated time on the first sample's rhs.  It runs after
        # the measured samples so it cannot perturb them.
        plain = repro.solve(problem, first_rhs, spec=PLAIN_SPEC)
        resilient = run.det_rows[0]["sim_s"]
        run.layer_extra["sim.overhead_pct"] = 100.0 * (
            resilient / plain.simulated_time - 1.0)

    return run.record()


def run_recover(run: Run) -> Dict[str, Any]:
    """Triple failures on a fresh problem per sample, checked against the
    failure-free trajectory."""
    p = run.params
    a = build_matrix("M3", n=p["n"])
    ff_spec = resilient_spec()
    rank_rng = run.rng(0)

    def set_up():
        problem = repro.distribute_problem(a, n_nodes=p["nodes"])
        return problem, problem.resolve_preconditioner(ff_spec.preconditioner)

    index, start = 0, run.clock()
    while run.keep_measuring(index, start):
        failures = [(it, sorted(int(r) for r in rank_rng.choice(
            p["nodes"], size=PHI, replace=False))) for it in p["fail_at"]]
        # A fresh problem per sample: a reused one would restore the rhs of
        # its first recovered solve (see README, known issues).  The previous
        # sample's problem is freed first, so that the peak RSS holds one
        # problem and does not depend on when the cycle collector runs.
        problem = precond = plain = ff = rec = None
        gc.collect()
        (problem, precond), raw, ref = run.timed(set_up)
        run.setups.append((raw, ref))
        b = problem.rhs.to_global()
        plain = repro.solve(problem, spec=PLAIN_SPEC)
        ff = repro.solve(problem, spec=ff_spec)
        fail_spec = resilient_spec(failures)
        before = ledger_counts(problem)
        with run.sample(index, lambda: layer_targets(type(precond))) as traced:
            rec, raw, ref = run.timed(
                lambda: repro.solve(problem, spec=fail_spec))
        run.record_op(raw, ref, traced)
        if index < p["min_samples"]:
            run.record_det(rec.iterations, rec.simulated_time,
                           rec.time_breakdown, *counts_since(problem, before),
                           100.0 * (rec.simulated_time
                                    / plain.simulated_time - 1.0))

        problems = run.solution_problems(a, b, rec.x, rec.converged)
        problems += run.solution_problems(a, b, ff.x, ff.converged)
        problems += run.solution_problems(a, b, plain.x, plain.converged)
        episodes = len(rec.recoveries)
        if episodes != len(failures):
            problems.append(f"{episodes} recoveries, expected {len(failures)}")
        if rec.iterations != ff.iterations:
            problems.append(f"iterations {rec.iterations} != failure-free "
                            f"{ff.iterations}")
        deviation = float(np.linalg.norm(rec.x - ff.x) / np.linalg.norm(ff.x))
        if not deviation <= RECOVERY_MATCH:
            problems.append(f"||x_rec - x_ff||/||x_ff|| = {deviation:.3e}")
        run.judge(f"sample {index} failures {failures}", problems)
        index += 1

    return run.record()


def run_service(run: Run) -> Dict[str, Any]:
    """Closed burst rounds (pull mode, ``greedy_width``) on a freshly set-up
    problem, then an open-loop Poisson stream (scheduler thread,
    ``fifo_window``) on the same problem.

    The timed operation is a burst round: ``round_size`` requests submitted
    at once and drained, i.e. what a client sending the whole burst waits.
    """
    p = run.params
    spec = repro.SolveSpec(rtol=1e-8, preconditioner="block_jacobi")
    n = p["side"] ** 2
    warm_rhs = run.rng(0).standard_normal((n, p["k_max"]))

    def set_up():
        a = poisson_2d(p["side"])
        problem = repro.distribute_problem(a, n_nodes=p["nodes"])
        return (a, problem, repro.solve(problem, warm_rhs[:, 0], spec=spec),
                repro.solve(problem, warm_rhs, spec=spec))

    for _ in range(SETUP_REPEATS):
        (a, problem, warm_1, warm_k), raw, ref = run.timed(set_up)
        run.setups.append((raw, ref))
        problems = run.solution_problems(a, warm_rhs[:, 0], warm_1.x,
                                         warm_1.converged)
        for j in range(p["k_max"]):
            problems += run.solution_problems(
                a, warm_rhs[:, j], warm_k.x[:, j], warm_k.converged[j])
        run.judge("warm-up", problems)
    precond_cls = type(problem.resolve_preconditioner(spec.preconditioner))

    def check(label: str, rhs: np.ndarray, res: Any) -> None:
        run.judge(label, run.solution_problems(a, rhs, res.x, res.converged))

    # -- burst: rounds of requests submitted at once, then drained ----------
    pull = SolverService(policy="greedy_width", k_max=p["k_max"],
                         autostart=False)
    pull.register_matrix("m", problem, default_spec=spec)

    def burst_round(chunk):
        handles = [pull.submit("m", req.rhs, tenant=req.tenant)
                   for req in chunk]
        pull.drain()
        return [h.result(timeout=0) for h in handles]

    index, start = 0, run.clock()
    while run.keep_measuring(index, start, p["burst_share"] * run.seconds):
        chunk = generate_traffic(
            TrafficSpec(n_requests=p["round_size"], matrix_ids=("m",),
                        tenants=TENANTS),
            {"m": n}, seed=run.seed_sequence(2 + index))
        before = ledger_counts(problem)
        with run.sample(index, lambda: layer_targets(precond_cls)) as traced:
            results, raw, ref = run.timed(lambda: burst_round(chunk))
        run.record_op(raw, ref, traced, len(chunk))
        if index < p["min_samples"]:
            # Message counts are only known per round; book them on its
            # first request so the mean over requests is per request.
            counts = counts_since(problem, before)
            for res in results:
                run.record_det(res.iterations, res.simulated_time,
                               res.charges, *counts)
                counts = ({}, {})
        for req, res in zip(chunk, results):
            check(f"round {index} request {req.index}", req.rhs, res)
        if index == 0:
            # Riding in a batch must not change a bit of the answer.
            for req, res in zip(chunk[:p["check_direct"]], results):
                direct = repro.solve(problem, req.rhs, spec=spec)
                problems = []
                if not np.array_equal(direct.x, res.x):
                    problems.append("x differs from a direct repro.solve")
                if direct.iterations != res.iterations:
                    problems.append(f"iterations {res.iterations} != direct "
                                    f"{direct.iterations}")
                run.judge(f"request {req.index} vs direct", problems)
        index += 1
    pull.shutdown()

    # -- open loop: requests submitted on a Poisson schedule ----------------
    # Its latency swings by a quarter between runs on a shared host (queueing
    # amplifies every slowdown), so it feeds only the per-layer numbers.
    n_open = max(p["min_open"], int(round(
        p["rate"] * (1.0 - p["burst_share"]) * run.seconds)))
    stream = generate_traffic(
        TrafficSpec(n_requests=n_open, matrix_ids=("m",), tenants=TENANTS,
                    rate_per_s=p["rate"]),
        {"m": n}, seed=run.seed_sequence(1))
    svc = SolverService(policy="fifo_window", window_s=p["window_s"],
                        k_max=p["k_max"], autostart=True)
    svc.register_matrix("m", problem, default_spec=spec)
    cals = run.calibrate(5)
    if run.trace:
        run.tracer.install(layer_targets(precond_cls))
        run.n_traced += n_open
    submitted = []
    t_start = run.clock()
    for req in stream:
        due = t_start + req.arrival_s
        delay = due - run.clock()
        if delay > 0:
            time.sleep(delay)
        sent = run.clock()
        submitted.append((req, due, sent,
                          svc.submit("m", req.rhs, tenant=req.tenant)))
    open_results = [(req, due, sent, h.result(timeout=120))
                    for req, due, sent, h in submitted]
    svc.shutdown()
    if run.trace:
        run.tracer.uninstall()
    factor = CAL_REF_S / np.percentile(cals + run.calibrate(5), 50)

    open_ms, lags_ms = [], []
    for req, due, sent, res in open_results:
        check(f"open request {req.index}", req.rhs, res)
        lags_ms.append(1e3 * (sent - due))
        open_ms.append(factor * due_time_latency_ms(due, sent, res.latency_s))
    results = [res for *_, res in open_results]
    ms = 1e3 * factor
    run.layer_extra.update({
        "service.open_latency_ms.p50": np.percentile(open_ms, 50),
        "service.open_latency_ms.p90": np.percentile(open_ms, 90),
        "service.queue_wait_ms.p50": ms * np.percentile(
            [r.queue_wait_s for r in results], 50),
        "service.batch_wait_ms.p50": ms * np.percentile(
            [r.batch_wait_s for r in results], 50),
        "service.batch_solve_ms.p50": ms * np.percentile(
            [r.solve_s for r in results], 50),
        "service.batch_width.mean":
            len(results) / len({r.batch_id for r in results}),
        "service.burst_rps": p["round_size"] * len(run.ops) / sum(
            ref for _, ref in run.ops),
        "gen.lag_ms.p99": np.percentile(lags_ms, 99),
    })
    return run.record()


RUNNERS: Dict[str, Callable[[Run], Dict[str, Any]]] = {
    "scale-n128": run_scale,
    "scale-n8": run_scale,
    "recover-m3": run_recover,
    "service-open": run_service,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.smoke)
    if run.trace:
        run.tracer = Tracer()
    record = RUNNERS[args.workload](run)
    record["versions"] = {"python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__}
    if run.trace:
        name = f"trace-{run.workload}-s{run.seed}{'-smoke' * run.smoke}.jsonl"
        record["trace_file"] = f"{TRACE_DIR}/{name}"
        record["spans"] = run.tracer.write_jsonl(ROOT / TRACE_DIR / name)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
