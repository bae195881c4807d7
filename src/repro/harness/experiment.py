"""Experiment runner mirroring the paper's evaluation methodology (Sec. 7.1).

The paper measures, per test matrix:

* ``t0`` -- the runtime of plain (non-resilient) PCG, averaged over >= 5 runs;
* the *undisturbed* overhead of the resilient solver keeping phi in {1, 3, 8}
  redundant copies but experiencing no failure;
* the *reconstruction time* and the *total overhead* when psi = phi nodes
  fail simultaneously at 20 %, 50 % or 80 % of the solver's progress, with the
  failed nodes clustered at the start or the center of the vector.

The functions here run exactly those configurations on the virtual cluster
(runtime = simulated time from the latency-bandwidth cost model; wall-clock is
recorded as well), repeat them with independent RNG streams, and aggregate
mean and standard deviation.  A :class:`MatrixStudy` bundles every run needed
for one matrix's rows in Tables 2/3 and its panels in Figures 1-4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..cluster.cost_model import MachineModel
from ..core.api import distribute_problem, solve
from ..core.block_pcg import BlockSolveResult, DistributedSolveResult
from ..core.metrics import magnitude_signed_max
from ..core.spec import BlockSpec, ResilienceSpec, SolveSpec
from ..failures.scenarios import (
    PAPER_FAILURE_COUNTS,
    PAPER_PROGRESS_FRACTIONS,
    FailureLocation,
    FailureScenario,
    resolve_events,
)
from ..matrices.suite import build_matrix
from ..solvers.result import relative_residual_difference
from ..utils.logging import get_logger
from ..utils.rng import as_rng, stable_hash_seed

logger = get_logger("harness.experiment")

#: Rows per node the paper's experiments had (~10k for n~1.3M on 128 nodes).
#: :meth:`ExperimentConfig.build_machine` scales the machine model so that a
#: run on a scaled-down analogue reproduces the compute/latency balance of
#: that regime.
TARGET_ROWS_PER_NODE = 8000


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Configuration shared by all runs of one matrix study.

    A thin wrapper over the declarative solver configuration: the
    solver-facing fields compose into a :class:`~repro.core.spec.SolveSpec`
    (plus a :class:`~repro.core.spec.ResilienceSpec` for resilient runs, see
    :meth:`solve_spec`), which every run dispatches through
    :func:`repro.solve`; the remaining fields describe the study itself
    (which matrix, cluster size, repetitions, RNG seeding, machine jitter).
    Every run uses the paper's backup placement and the machine model
    scaled to :data:`TARGET_ROWS_PER_NODE` (:meth:`build_machine`).
    """

    #: Suite matrix id ("M1" ... "M8"); ignored if ``matrix`` is given.
    matrix_id: str = "M5"
    #: Explicit matrix (overrides ``matrix_id``/``matrix_size``).
    matrix: Optional[sp.spmatrix] = None
    #: Target size of the synthetic analogue (None = suite default).
    matrix_size: Optional[int] = None
    #: Number of virtual compute nodes (the paper uses 128; scaled default 16).
    n_nodes: int = 16
    preconditioner: str = "block_jacobi"
    rtol: float = 1e-8
    max_iterations: Optional[int] = None
    #: Independent repetitions per configuration (>= 5 in the paper).
    repetitions: int = 3
    seed: int = 0
    #: Relative run-to-run noise of the simulated machine.
    jitter_rel_std: float = 0.02
    #: Right-hand sides per solve: 1 runs the paper's single-vector
    #: solves, ``k > 1`` composes a :class:`~repro.core.spec.BlockSpec`
    #: with ``n_cols=k`` into the spec and solves ``(n, k)`` blocks.
    n_rhs: int = 1
    #: Suite matrices built so far, keyed by ``(matrix_id, matrix_size,
    #: seed)``: every run of a study solves the one matrix.
    _matrices: Dict[Tuple[str, Optional[int], int], sp.csr_matrix] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def build_matrix(self) -> sp.csr_matrix:
        """The global system matrix for this study, built once per
        ``(matrix_id, matrix_size, seed)``."""
        if self.matrix is not None:
            return sp.csr_matrix(self.matrix)
        key = (self.matrix_id, self.matrix_size, self.seed)
        if key not in self._matrices:
            self._matrices[key] = build_matrix(
                self.matrix_id, n=self.matrix_size, seed=self.seed)
        return self._matrices[key]

    def build_machine(self, n: Optional[int] = None) -> MachineModel:
        """Machine model with the configured jitter, scaled up when a
        problem of *n* rows has fewer than :data:`TARGET_ROWS_PER_NODE`
        rows per node."""
        model = MachineModel(jitter_rel_std=self.jitter_rel_std)
        if n:
            rows_per_node = max(n / self.n_nodes, 1.0)
            factor = max(TARGET_ROWS_PER_NODE / rows_per_node, 1.0)
            if factor > 1.0:
                model = model.scaled(factor)
        return model

    def label(self) -> str:
        if self.matrix is not None:
            return f"custom(n={self.matrix.shape[0]})"
        return self.matrix_id

    def solve_spec(self, *, phi: Optional[int] = None,
                   failures=()) -> SolveSpec:
        """The :class:`SolveSpec` for one run of this study.

        ``phi=None`` describes a reference (plain PCG) run; any other value
        attaches a :class:`ResilienceSpec` with the paper's placement and
        the given failure schedule, which selects the resilient solver.
        With ``n_rhs > 1`` a :class:`BlockSpec` is attached as well, which
        checks that each run's right-hand side is an ``(n, n_rhs)`` block.
        """
        resilience = None
        if phi is not None:
            resilience = ResilienceSpec(phi=phi, failures=tuple(failures))
        block = BlockSpec(n_cols=self.n_rhs) if self.n_rhs > 1 else None
        return SolveSpec(
            rtol=self.rtol, max_iterations=self.max_iterations,
            preconditioner=self.preconditioner, resilience=resilience,
            block=block,
        )


# ---------------------------------------------------------------------------
# per-run and aggregated results
# ---------------------------------------------------------------------------

@dataclass
class RepetitionResult:
    """Measurements of a single solver run."""

    simulated_time: float
    iteration_time: float
    recovery_time: float
    redundancy_time: float
    wallclock_time: float
    iterations: int
    converged: bool
    residual_deviation: float
    n_failures: int

    @classmethod
    def from_solve(cls, result, wallclock: float) -> "RepetitionResult":
        """Build from a single-vector or block solve result.

        Block results (:class:`~repro.core.block_pcg.BlockSolveResult`,
        produced by ``n_rhs > 1`` studies) carry per-column lists: the
        repetition records the lock-step outer iteration count, whether
        *every* column converged, and the worst per-column residual
        deviation (magnitude-signed, as in Table 3).
        """
        breakdown = result.time_breakdown
        if isinstance(result, BlockSolveResult):
            deviation = magnitude_signed_max(
                relative_residual_difference(final, true)
                for final, true in zip(result.final_residual_norms,
                                       result.true_residual_norms))
            iterations = int(result.global_iterations)
            converged = result.all_converged
        else:
            deviation = result.relative_residual_deviation
            iterations = result.iterations
            converged = result.converged
        return cls(
            simulated_time=result.simulated_time,
            iteration_time=result.simulated_iteration_time,
            recovery_time=result.simulated_recovery_time,
            redundancy_time=breakdown.get("comm.redundancy", 0.0),
            wallclock_time=wallclock,
            iterations=iterations,
            converged=converged,
            residual_deviation=deviation,
            n_failures=result.n_failures_recovered,
        )


@dataclass
class ExperimentResult:
    """Aggregate of several repetitions of one configuration."""

    label: str
    repetitions: List[RepetitionResult] = field(default_factory=list)

    def _values(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.repetitions], dtype=float)

    # -- aggregate accessors -------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.repetitions)

    def mean(self, attr: str = "simulated_time") -> float:
        values = self._values(attr)
        return float(values.mean()) if values.size else float("nan")

    def std(self, attr: str = "simulated_time") -> float:
        values = self._values(attr)
        if values.size < 2:
            return 0.0
        return float(values.std(ddof=1))

    def times(self) -> List[float]:
        """Raw simulated runtimes (used for the box plots of Figs. 1-4)."""
        return [r.simulated_time for r in self.repetitions]

    @property
    def mean_iterations(self) -> float:
        return self.mean("iterations")

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.repetitions)

    def max_abs_residual_deviation(self) -> float:
        return magnitude_signed_max(
            r.residual_deviation for r in self.repetitions)

    def summary(self) -> Dict[str, float]:
        return {
            "label": self.label,
            "n": self.n,
            "mean_time": self.mean(),
            "std_time": self.std(),
            "mean_recovery_time": self.mean("recovery_time"),
            "mean_iterations": self.mean_iterations,
            "all_converged": self.all_converged,
        }


# ---------------------------------------------------------------------------
# running configurations
# ---------------------------------------------------------------------------

def _repetition_seed(config: ExperimentConfig, kind: str, phi: int,
                     scenario_key: str, rep: int) -> int:
    return stable_hash_seed(config.label(), kind, phi, scenario_key, rep,
                            base_seed=config.seed)


def _single_run(config: ExperimentConfig, matrix: sp.csr_matrix, *,
                phi: Optional[int], scenario: Optional[FailureScenario],
                reference_iterations: Optional[int], rep_seed: int
                ) -> DistributedSolveResult:
    """One solver run on a freshly built cluster, via the ``solve`` façade."""
    problem = distribute_problem(
        matrix, n_nodes=config.n_nodes,
        machine=config.build_machine(matrix.shape[0]),
        seed=rep_seed,
    )
    rhs = None
    if config.n_rhs > 1:
        # Block studies solve an (n, k) right-hand-side block whose first
        # column is the single-vector study's rhs (A @ ones) and whose
        # remaining columns are seeded per repetition, so block and
        # single-vector timings cover the same leading system.
        n = matrix.shape[0]
        rhs = np.empty((n, config.n_rhs))
        rhs[:, 0] = matrix @ np.ones(n)
        rhs[:, 1:] = as_rng(rep_seed).standard_normal((n, config.n_rhs - 1))
    failures = ()
    if scenario is not None:
        if reference_iterations is None:
            raise ValueError(
                "scenario runs need the reference iteration count to place "
                "the failure at the requested progress fraction"
            )
        failures = resolve_events(
            scenario, n_nodes=config.n_nodes,
            reference_iterations=reference_iterations,
        )
    return solve(problem, rhs,
                 spec=config.solve_spec(phi=phi, failures=failures))


def _run_many(config: ExperimentConfig, label: str, *, phi: Optional[int],
              scenario: Optional[FailureScenario],
              reference_iterations: Optional[int],
              kind: str) -> ExperimentResult:
    matrix = config.build_matrix()
    result = ExperimentResult(label=label)
    scenario_key = scenario.describe() if scenario is not None else "none"
    for rep in range(config.repetitions):
        rep_seed = _repetition_seed(config, kind, phi or 0, scenario_key, rep)
        start = time.perf_counter()
        solve_result = _single_run(
            config, matrix, phi=phi, scenario=scenario,
            reference_iterations=reference_iterations, rep_seed=rep_seed,
        )
        wallclock = time.perf_counter() - start
        result.repetitions.append(
            RepetitionResult.from_solve(solve_result, wallclock)
        )
        logger.info("%s rep %d/%d: %s", label, rep + 1, config.repetitions,
                    solve_result.summary())
    return result


def run_reference(config: ExperimentConfig) -> ExperimentResult:
    """Plain PCG runs -- the paper's reference time ``t0``."""
    return _run_many(config, f"{config.label()} reference", phi=None,
                     scenario=None, reference_iterations=None, kind="reference")


def run_failure_free(config: ExperimentConfig, phi: int) -> ExperimentResult:
    """Resilient solver with phi copies but no failures ("undisturbed")."""
    return _run_many(config, f"{config.label()} undisturbed phi={phi}", phi=phi,
                     scenario=None, reference_iterations=None, kind="undisturbed")


def run_with_failures(config: ExperimentConfig, phi: int,
                      scenario: FailureScenario,
                      reference_iterations: int) -> ExperimentResult:
    """Resilient solver with an injected failure scenario."""
    label = f"{config.label()} phi={phi} {scenario.describe()}"
    return _run_many(config, label, phi=phi, scenario=scenario,
                     reference_iterations=reference_iterations, kind="failures")


# ---------------------------------------------------------------------------
# full per-matrix study (everything Table 2/3 and Figs. 1-4 need)
# ---------------------------------------------------------------------------

@dataclass
class MatrixStudy:
    """All runs for one matrix: reference, undisturbed, and failure runs."""

    config: ExperimentConfig
    reference: ExperimentResult
    #: phi -> failure-free resilient runs.
    undisturbed: Dict[int, ExperimentResult] = field(default_factory=dict)
    #: (phi, location) -> runs with psi = phi failures (all progress fractions).
    with_failures: Dict[Tuple[int, str], ExperimentResult] = field(default_factory=dict)

    # -- Table 2 quantities ------------------------------------------------------
    @property
    def t0(self) -> float:
        """Mean reference runtime."""
        return self.reference.mean()

    def undisturbed_overhead(self, phi: int) -> float:
        """Relative overhead of the undisturbed resilient solver (percent)."""
        return 100.0 * (self.undisturbed[phi].mean() - self.t0) / self.t0

    def reconstruction_time(self, phi: int, location: str) -> Tuple[float, float]:
        """Mean and std of the reconstruction time relative to t0 (percent)."""
        runs = self.with_failures[(phi, location)]
        values = 100.0 * runs._values("recovery_time") / self.t0
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        return float(values.mean()), std

    def overhead_with_failures(self, phi: int, location: str) -> Tuple[float, float]:
        """Mean and std of the total overhead with failures relative to t0 (percent)."""
        runs = self.with_failures[(phi, location)]
        values = 100.0 * (runs._values("simulated_time") - self.t0) / self.t0
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        return float(values.mean()), std

    # -- Table 3 quantities ----------------------------------------------------------
    def max_delta_esr(self) -> float:
        """Largest Eqn.-(7) deviation over all failure experiments."""
        return magnitude_signed_max(runs.max_abs_residual_deviation()
                                    for runs in self.with_failures.values())

    def delta_pcg(self) -> float:
        """Eqn.-(7) deviation of the reference runs."""
        return self.reference.max_abs_residual_deviation()


def run_matrix_study(config: ExperimentConfig, *,
                     phis: Sequence[int] = PAPER_FAILURE_COUNTS,
                     locations: Sequence[FailureLocation] = (
                         FailureLocation.START, FailureLocation.CENTER),
                     fractions: Sequence[float] = PAPER_PROGRESS_FRACTIONS
                     ) -> MatrixStudy:
    """Run every configuration needed for one matrix's Table-2/3 rows.

    ``phis`` values that are >= the node count are skipped (the scheme
    requires ``phi < N``), mirroring how the paper's phi = 8 column only makes
    sense on enough nodes.
    """
    phis = [phi for phi in phis if 0 < phi < config.n_nodes]
    reference = run_reference(config)
    reference_iterations = int(round(reference.mean_iterations))
    study = MatrixStudy(config=config, reference=reference)
    for phi in phis:
        study.undisturbed[phi] = run_failure_free(config, phi)
    for phi in phis:
        for location in locations:
            runs = ExperimentResult(
                label=f"{config.label()} phi={phi} failures at {location.value}"
            )
            for fraction in fractions:
                scenario = FailureScenario(
                    n_failures=phi, progress_fraction=fraction, location=location
                )
                partial = run_with_failures(config, phi, scenario,
                                            reference_iterations)
                runs.repetitions.extend(partial.repetitions)
            study.with_failures[(phi, location.value)] = runs
    return study
