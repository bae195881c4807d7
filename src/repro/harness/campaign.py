"""Monte-Carlo reliability campaigns: thousands of seeded solve runs.

The single-run harness (:mod:`repro.harness.experiment`) measures one
deterministic failure scenario at a time; a *campaign* instead samples the
stochastic traces of :mod:`repro.failures.traces` across many seeded runs
and aggregates distributional answers:

* **survival probability** -- how often does the solver finish without an
  unrecoverable state loss,
* **overhead percentiles** -- p50/p99 simulated time relative to the
  failure-free baseline of the same configuration,
* **recovery counts** and **time to unrecoverable loss**.

Runs fan out over a ``multiprocessing`` pool (:func:`run_campaign`) with
per-run timeouts and crash isolation: a worker that raises, stalls, or dies
records a structured :class:`RunOutcome` (``"error"`` / ``"timeout"`` /
``"worker_crashed"``) instead of killing the campaign, and an exhausted
recovery (the typed :class:`~repro.cluster.errors.UnrecoverableStateError`)
is classified as ``"unrecoverable"`` -- never an unhandled exception.

Everything is reproducible from ``CampaignSpec.seed``: run ``i`` derives
its trace seed via :func:`repro.utils.rng.stable_hash_seed`, so aggregates
are bit-identical across invocations and worker counts (``workers=0`` runs
inline, useful for tests and debugging).
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..cluster.errors import UnrecoverableStateError
from ..core.placement import PLACEMENTS
from ..core.spec import ResilienceSpec, SolveSpec
from ..failures.traces import TraceSpec, generate_trace
from ..precond.factory import PRECONDITIONERS
from ..utils.rng import stable_hash_seed
from ..utils.serde import RoundTrip

__all__ = [
    "OUTCOME_KINDS",
    "CampaignSpec",
    "RunOutcome",
    "CampaignResult",
    "run_campaign",
    "run_single",
]

#: Every terminal state a campaign run can end in.
OUTCOME_KINDS = ("converged", "not_converged", "unrecoverable", "timeout",
                 "error", "worker_crashed")


@dataclass(frozen=True)
class CampaignSpec(RoundTrip):
    """One reliability campaign: solve configuration + trace + run count.

    JSON round-trips through ``to_dict``/``from_dict`` (the dictionary is
    also the payload shipped to pool workers, so a campaign is fully
    described by plain data).
    """

    #: Matrix family / size / seed fed to :func:`repro.matrices.build_matrix`.
    matrix_id: str = "M3"
    matrix_size: int = 160
    matrix_seed: int = 0
    n_nodes: int = 8
    #: Redundant copies per block (``0 <= phi < n_nodes``).
    phi: int = 3
    #: Registered placement name, in any case (``solve_spec`` hands it to
    #: :class:`ResilienceSpec`, which stores it lower-case).  The rack-aware
    #: ones use the same default rack layout the trace bursts strike.
    placement: str = "paper"
    #: Registered preconditioner name, in any case.
    preconditioner: str = "block_jacobi"
    #: Relative tolerance; every run keeps the solver's own iteration cap.
    rtol: float = 1e-8
    #: Stochastic failure model sampled per run (``trace.n_nodes`` must
    #: match :attr:`n_nodes`).
    trace: TraceSpec = field(default_factory=TraceSpec)
    #: Number of seeded runs.
    n_runs: int = 64
    #: Campaign base seed; run ``i`` uses ``stable_hash_seed("campaign-run",
    #: i, base_seed=seed)``.
    seed: int = 0
    #: Per-run wallclock timeout in seconds (``0`` disables the alarm).
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if int(self.n_runs) < 1:
            raise ValueError(f"n_runs must be positive, got {self.n_runs}")
        if not 0 <= int(self.phi) < int(self.n_nodes):
            raise ValueError(
                f"phi must satisfy 0 <= phi < n_nodes, got phi={self.phi} "
                f"with n_nodes={self.n_nodes}")
        if float(self.timeout_s) < 0.0:
            raise ValueError(
                f"timeout_s must be non-negative, got {self.timeout_s}")
        if int(self.trace.n_nodes) != int(self.n_nodes):
            raise ValueError(
                f"trace.n_nodes={self.trace.n_nodes} does not match the "
                f"campaign's n_nodes={self.n_nodes}")
        # An unknown name raises ValueError listing the registered ones.
        PLACEMENTS.get(self.placement)
        PRECONDITIONERS.get(self.preconditioner)

    # -- derived configuration -------------------------------------------------
    def solve_spec(self, failures: Tuple = ()) -> SolveSpec:
        """The :class:`SolveSpec` of one run carrying *failures*."""
        return SolveSpec(
            rtol=self.rtol, preconditioner=self.preconditioner,
            resilience=ResilienceSpec(
                phi=self.phi, placement=self.placement,
                failures=tuple(failures),
            ),
        )

    def run_seed(self, index: int) -> int:
        """The trace seed of run *index* (stable across invocations)."""
        return stable_hash_seed("campaign-run", int(index),
                                base_seed=int(self.seed))


@dataclass(frozen=True)
class RunOutcome(RoundTrip):
    """Structured terminal state of one campaign run (always JSON-able)."""

    index: int
    #: One of :data:`OUTCOME_KINDS`.
    kind: str
    iterations: Optional[int] = None
    simulated_time: Optional[float] = None
    #: Completed recovery episodes during the run.
    n_recoveries: int = 0
    #: Failure events / total node failures the trace injected.
    n_events: int = 0
    n_failures: int = 0
    #: Iteration at which recovery became impossible (``"unrecoverable"``).
    loss_iteration: Optional[int] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}; "
                             f"known: {OUTCOME_KINDS}")

    @property
    def survived(self) -> bool:
        """True when the run finished without losing state or crashing."""
        return self.kind in ("converged", "not_converged")


# -- single-run execution (runs inside pool workers) ---------------------------

#: Matrices are deterministic in (id, n, seed); cache per worker process.
_MATRIX_CACHE: Dict[Tuple[str, int, int], Any] = {}


def _campaign_matrix(spec: CampaignSpec):
    key = (str(spec.matrix_id), int(spec.matrix_size), int(spec.matrix_seed))
    if key not in _MATRIX_CACHE:
        from ..matrices import build_matrix
        _MATRIX_CACHE[key] = build_matrix(key[0], n=key[1], seed=key[2])
    return _MATRIX_CACHE[key]


class _RunTimeout(Exception):
    """Raised by the SIGALRM handler when a run overruns its budget."""


def _alarm_handler(signum, frame):  # pragma: no cover - timing dependent
    raise _RunTimeout()


def _install_alarm(timeout_s: float):
    """Arm a per-run wallclock alarm; returns the restore handle (or None).

    Only available on platforms with ``SIGALRM`` and from the main thread;
    elsewhere the run executes without a timeout (the pool's crash
    isolation still bounds the damage).
    """
    if timeout_s <= 0.0 or not hasattr(signal, "SIGALRM") or \
            threading.current_thread() is not threading.main_thread():
        return None
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    return previous


def _clear_alarm(previous) -> None:
    if previous is None:
        return
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


def _execute_run(spec: CampaignSpec, index: int) -> Dict[str, Any]:
    """One seeded solve; classifies unrecoverable loss as a typed outcome."""
    from ..core.api import solve

    trace = generate_trace(spec.trace, seed=spec.run_seed(index))
    events = trace.to_failure_events()
    outcome: Dict[str, Any] = {
        "index": int(index),
        "n_events": len(events),
        "n_failures": sum(len(e.ranks) for e in events),
    }
    matrix = _campaign_matrix(spec)
    try:
        result = solve(matrix, n_nodes=spec.n_nodes,
                       spec=spec.solve_spec(tuple(events)))
    except UnrecoverableStateError as exc:
        outcome.update(
            kind="unrecoverable",
            loss_iteration=getattr(exc, "iteration", None),
            detail=str(exc)[:200],
        )
        return outcome
    outcome.update(
        kind="converged" if result.converged else "not_converged",
        iterations=int(result.iterations),
        simulated_time=float(result.simulated_time),
        n_recoveries=len(result.recoveries),
    )
    return outcome


def run_single(payload: Mapping[str, Any], index: int) -> Dict[str, Any]:
    """Execute campaign run *index*; never raises.

    This is the function shipped to pool workers: *payload* is
    ``CampaignSpec.to_dict()`` output, the return value a
    :class:`RunOutcome` dictionary.  Timeouts, unrecoverable losses and
    arbitrary exceptions all come back as structured outcomes.
    """
    try:
        spec = CampaignSpec.from_dict(payload)
    except Exception as exc:
        return {"index": int(index), "kind": "error",
                "detail": f"{type(exc).__name__}: {exc}"[:200]}
    previous = _install_alarm(float(spec.timeout_s))
    try:
        return _execute_run(spec, index)
    except _RunTimeout:  # pragma: no cover - timing dependent
        return {"index": int(index), "kind": "timeout",
                "detail": f"run exceeded {spec.timeout_s:.1f}s"}
    except Exception as exc:
        return {"index": int(index), "kind": "error",
                "detail": f"{type(exc).__name__}: {exc}"[:200]}
    finally:
        _clear_alarm(previous)


def _baseline_outcome(spec: CampaignSpec) -> RunOutcome:
    """The failure-free reference run (same configuration, no events)."""
    from ..core.api import solve

    matrix = _campaign_matrix(spec)
    result = solve(matrix, n_nodes=spec.n_nodes, spec=spec.solve_spec(()))
    return RunOutcome(
        index=-1,
        kind="converged" if result.converged else "not_converged",
        iterations=int(result.iterations),
        simulated_time=float(result.simulated_time),
    )


# -- campaign execution --------------------------------------------------------

#: Signature of an injectable run function (tests substitute this).
RunFn = Callable[[Mapping[str, Any], int], Dict[str, Any]]


def _default_workers() -> int:
    import os
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def _crashed(index: int, exc: BaseException) -> Dict[str, Any]:
    return {"index": int(index), "kind": "worker_crashed",
            "detail": f"{type(exc).__name__}: {exc}"[:200]}


def run_campaign(spec: CampaignSpec, *, workers: Optional[int] = None,
                 run_fn: Optional[RunFn] = None) -> "CampaignResult":
    """Run the whole campaign; returns the aggregated :class:`CampaignResult`.

    ``workers=None`` picks a pool size from the CPU count; ``workers=0``
    runs everything inline in this process (bit-identical aggregates, used
    by the determinism tests).  *run_fn* substitutes the per-run function
    (crash-isolation tests inject misbehaving workers).

    Crash isolation is two-phase: all runs go through one shared pool
    first; any run whose future raises (a worker died and broke the pool,
    taking innocent pending futures with it) is retried in its own
    single-run pool, so exactly the misbehaving runs end up
    ``"worker_crashed"`` and the campaign always completes.
    """
    fn: RunFn = run_fn if run_fn is not None else run_single
    payload = spec.to_dict()
    baseline = _baseline_outcome(spec)
    outcomes: Dict[int, Dict[str, Any]] = {}
    if workers is None:
        workers = _default_workers()
    if workers <= 0:
        for index in range(spec.n_runs):
            try:
                outcomes[index] = fn(payload, index)
            except Exception as exc:
                outcomes[index] = _crashed(index, exc)
    else:
        retry: List[int] = []
        with ProcessPoolExecutor(max_workers=min(workers, spec.n_runs)) \
                as pool:
            futures = {pool.submit(fn, payload, index): index
                       for index in range(spec.n_runs)}
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcomes[index] = future.result()
                except Exception:
                    retry.append(index)
        for index in sorted(retry):
            with ProcessPoolExecutor(max_workers=1) as pool:
                try:
                    outcomes[index] = pool.submit(fn, payload, index).result()
                except Exception as exc:
                    outcomes[index] = _crashed(index, exc)
    ordered = tuple(
        RunOutcome.from_dict(outcomes[index]) for index in range(spec.n_runs)
    )
    return CampaignResult(spec=spec, baseline=baseline, outcomes=ordered)


# -- aggregation ---------------------------------------------------------------

def _percentile_stats(values: List[float]) -> Dict[str, float]:
    arr = np.asarray(values, dtype=float)
    return {
        "p50": float(np.percentile(arr, 50.0)),
        "p99": float(np.percentile(arr, 99.0)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


@dataclass(frozen=True)
class CampaignResult:
    """All run outcomes of one campaign plus the aggregate statistics."""

    spec: CampaignSpec
    #: The failure-free reference run (overhead denominator).
    baseline: RunOutcome
    #: One outcome per run, in run-index order.
    outcomes: Tuple[RunOutcome, ...]

    def counts(self) -> Dict[str, int]:
        """Outcome counts per kind (every kind present, zero-filled)."""
        counts = {kind: 0 for kind in OUTCOME_KINDS}
        for outcome in self.outcomes:
            counts[outcome.kind] += 1
        return counts

    @property
    def n_runs(self) -> int:
        return len(self.outcomes)

    @property
    def survival_probability(self) -> float:
        """Fraction of runs that finished without losing state or crashing."""
        return sum(1 for o in self.outcomes if o.survived) / self.n_runs

    @property
    def unrecoverable_probability(self) -> float:
        return sum(1 for o in self.outcomes
                   if o.kind == "unrecoverable") / self.n_runs

    @property
    def converged_fraction(self) -> float:
        return sum(1 for o in self.outcomes
                   if o.kind == "converged") / self.n_runs

    def overhead_percentiles(self) -> Optional[Dict[str, float]]:
        """p50/p99/mean/max simulated-time overhead (%) vs. failure-free.

        Computed over the converged runs; ``None`` when no run converged or
        the baseline did not converge.
        """
        t0 = self.baseline.simulated_time
        if self.baseline.kind != "converged" or not t0:
            return None
        overheads = [
            100.0 * (o.simulated_time - t0) / t0
            for o in self.outcomes
            if o.kind == "converged" and o.simulated_time is not None
        ]
        if not overheads:
            return None
        return _percentile_stats(overheads)

    def loss_iteration_stats(self) -> Optional[Dict[str, float]]:
        """Time-to-unrecoverable-loss statistics (iterations), if any."""
        losses = [float(o.loss_iteration) for o in self.outcomes
                  if o.kind == "unrecoverable" and o.loss_iteration is not None]
        if not losses:
            return None
        return _percentile_stats(losses)

    def aggregate(self) -> Dict[str, Any]:
        """Deterministic JSON-able summary (bit-identical across reruns)."""
        recoveries = [o.n_recoveries for o in self.outcomes]
        return {
            "n_runs": self.n_runs,
            "counts": self.counts(),
            "survival_probability": self.survival_probability,
            "unrecoverable_probability": self.unrecoverable_probability,
            "converged_fraction": self.converged_fraction,
            "baseline": {
                "iterations": self.baseline.iterations,
                "simulated_time": self.baseline.simulated_time,
            },
            "overhead_pct": self.overhead_percentiles(),
            "recoveries": {
                "total": int(sum(recoveries)),
                "mean_per_run": float(sum(recoveries)) / self.n_runs,
                "max": int(max(recoveries, default=0)),
            },
            "failures_injected": {
                "events": int(sum(o.n_events for o in self.outcomes)),
                "node_failures": int(sum(o.n_failures for o in self.outcomes)),
            },
            "loss_iteration": self.loss_iteration_stats(),
        }

    def describe(self) -> str:
        counts = self.counts()
        parts = [f"{kind}={counts[kind]}" for kind in OUTCOME_KINDS
                 if counts[kind]]
        return (f"CampaignResult(n_runs={self.n_runs}, "
                f"survival={self.survival_probability:.3f}, "
                f"{', '.join(parts)})")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()
