"""Data series and text rendering for the paper's figures.

* Figures 1-3 (per-matrix panels): for each number of redundant copies
  phi in {1, 3, 8}, a box of runtimes of the *failure-free* resilient solver
  (blue boxes in the paper) next to a box of runtimes with psi = phi
  simultaneous failures (orange boxes), plus the reference-time band and the
  relative-overhead axis.
* Figure 4: total runtime as a function of the progress fraction (20/50/80 %)
  at which three node failures are introduced.

No plotting library is used; the series are returned as plain data (so tests
and users can post-process them) and can be rendered as ASCII box summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..failures.scenarios import FailureLocation, FailureScenario
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    MatrixStudy,
    run_reference,
    run_with_failures,
)


@dataclass
class BoxStats:
    """Median and quartiles of a sample (the boxes of the paper's box
    plots)."""

    values: List[float]

    @property
    def median(self) -> float:
        return float(np.median(self.values)) if self.values else float("nan")

    @property
    def q1(self) -> float:
        return float(np.percentile(self.values, 25)) if self.values else float("nan")

    @property
    def q3(self) -> float:
        return float(np.percentile(self.values, 75)) if self.values else float("nan")


@dataclass
class FigureSeries:
    """Data behind one panel of Figures 1-3."""

    matrix_id: str
    location: str
    #: Mean and std of the reference runtime (the blue band in the paper).
    reference_mean: float
    reference_std: float
    #: phi -> box of failure-free resilient runtimes (blue boxes).
    undisturbed: Dict[int, BoxStats] = field(default_factory=dict)
    #: phi -> box of runtimes with psi = phi failures (orange boxes).
    with_failures: Dict[int, BoxStats] = field(default_factory=dict)

    def relative_overhead(self, phi: int, *, disturbed: bool = True) -> float:
        """Median relative overhead with respect to the reference mean."""
        box = self.with_failures.get(phi) if disturbed else self.undisturbed.get(phi)
        if box is None or not np.isfinite(self.reference_mean) \
                or self.reference_mean <= 0:
            return float("nan")
        return (box.median - self.reference_mean) / self.reference_mean

    def phis(self) -> List[int]:
        return sorted(set(self.undisturbed) | set(self.with_failures))

    def render(self) -> str:
        """ASCII rendering of the panel."""
        lines = [
            f"Figure panel: {self.matrix_id}, failures at {self.location}",
            f"reference time: {self.reference_mean:.4g} +/- "
            f"{self.reference_std:.2g} s",
            f"{'phi':>4}  {'undisturbed median [s]':>24}  "
            f"{'with failures median [s]':>26}  {'rel. overhead':>14}",
        ]
        for phi in self.phis():
            undist = self.undisturbed.get(phi)
            dist = self.with_failures.get(phi)
            lines.append(
                f"{phi:>4}  "
                f"{(undist.median if undist else float('nan')):>24.4g}  "
                f"{(dist.median if dist else float('nan')):>26.4g}  "
                f"{self.relative_overhead(phi):>13.1%}"
            )
        return "\n".join(lines)


def figure_series(study: MatrixStudy, location: FailureLocation
                  ) -> FigureSeries:
    """Build the Fig. 1/2/3 panel data from a completed matrix study."""
    series = FigureSeries(
        matrix_id=study.config.label(),
        location=location.value,
        reference_mean=study.reference.mean(),
        reference_std=study.reference.std(),
    )
    for phi, runs in study.undisturbed.items():
        series.undisturbed[phi] = BoxStats(runs.times())
    for (phi, loc), runs in study.with_failures.items():
        if loc == location.value:
            series.with_failures[phi] = BoxStats(runs.times())
    return series


@dataclass
class ProgressSweep:
    """Data behind Figure 4: runtime vs. progress-at-failure."""

    matrix_id: str
    location: str
    phi: int
    #: progress fraction -> box of total runtimes.
    boxes: Dict[float, BoxStats] = field(default_factory=dict)
    reference_mean: float = float("nan")

    def fractions(self) -> List[float]:
        return sorted(self.boxes)

    def medians(self) -> List[float]:
        return [self.boxes[f].median for f in self.fractions()]

    def spread(self) -> float:
        """Relative spread of the medians across progress fractions.

        The paper observes (Fig. 4) that the failure iteration has little
        influence on the total runtime; this is the quantity that statement
        is checked against.
        """
        med = self.medians()
        if not med or not np.isfinite(self.reference_mean) or \
                self.reference_mean <= 0:
            return float("nan")
        return (max(med) - min(med)) / self.reference_mean

    def render(self) -> str:
        lines = [
            f"Figure 4 panel: {self.matrix_id}, {self.phi} failures at "
            f"{self.location}",
            f"{'progress':>9}  {'median [s]':>12}  {'IQR [s]':>18}",
        ]
        for fraction in self.fractions():
            box = self.boxes[fraction]
            lines.append(
                f"{fraction:>8.0%}  {box.median:>12.4g}  "
                f"[{box.q1:.4g}, {box.q3:.4g}]"
            )
        return "\n".join(lines)


def progress_sweep(config: ExperimentConfig, *, phi: int = 3,
                   location: FailureLocation = FailureLocation.CENTER,
                   fractions: Sequence[float] = (0.2, 0.5, 0.8),
                   reference: Optional[ExperimentResult] = None
                   ) -> ProgressSweep:
    """Run the Figure-4 experiment: failures at several progress fractions."""
    reference = reference if reference is not None else run_reference(config)
    reference_iterations = int(round(reference.mean_iterations))
    sweep = ProgressSweep(
        matrix_id=config.label(), location=location.value, phi=phi,
        reference_mean=reference.mean(),
    )
    for fraction in fractions:
        scenario = FailureScenario(n_failures=phi, progress_fraction=fraction,
                                   location=location)
        runs = run_with_failures(config, phi, scenario, reference_iterations)
        sweep.boxes[fraction] = BoxStats(runs.times())
    return sweep
