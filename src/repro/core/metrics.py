"""Accuracy and convergence metrics.

The paper quantifies the numerical effect of the reconstruction with the
*relative residual difference* of Eqn. (7)
(:func:`repro.solvers.result.relative_residual_difference`, read off a
result as ``SolveResult.relative_residual_deviation``): after convergence,
the solver's internal residual ``r`` and the explicitly recomputed residual
``b - A x`` differ slightly due to loss of orthogonality in finite
precision, and the reconstruction (which solves its local systems only to a
tight tolerance) can enlarge that gap.  Table 3 compares the worst case of this metric over
all failure experiments against the reference PCG value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..solvers.result import SolveResult


def magnitude_signed_max(values: Iterable[float]) -> float:
    """Table 3's maximum: the finite value of largest magnitude, with its
    sign (the first such value on a tie); ``nan`` when none is finite."""
    finite = [v for v in values if np.isfinite(v)]
    return max(finite, key=abs) if finite else float("nan")


def max_residual_difference(results: Iterable[SolveResult]) -> float:
    """``max Delta_ESR`` over a collection of runs (first column of Table 3):
    the :func:`magnitude_signed_max` of their relative residual deviations."""
    return magnitude_signed_max(
        r.relative_residual_deviation for r in results)


@dataclass
class ConvergenceComparison:
    """Side-by-side comparison of a resilient run against the reference run."""

    reference_iterations: int
    resilient_iterations: int
    reference_residual: float
    resilient_residual: float
    reference_deviation: float
    resilient_deviation: float
    solution_difference_norm: float
    solution_relative_difference: float



def compare_runs(reference: SolveResult, resilient: SolveResult
                 ) -> ConvergenceComparison:
    """Compare a resilient run against the corresponding reference PCG run."""
    diff = float(np.linalg.norm(resilient.x - reference.x))
    ref_norm = float(np.linalg.norm(reference.x))
    return ConvergenceComparison(
        reference_iterations=reference.iterations,
        resilient_iterations=resilient.iterations,
        reference_residual=reference.final_residual_norm,
        resilient_residual=resilient.final_residual_norm,
        reference_deviation=reference.relative_residual_deviation,
        resilient_deviation=resilient.relative_residual_deviation,
        solution_difference_norm=diff,
        solution_relative_difference=diff / ref_norm if ref_norm > 0 else diff,
    )


def convergence_rate_estimate(residual_norms: Sequence[float]) -> float:
    """Geometric-mean per-iteration residual reduction factor."""
    norms = [n for n in residual_norms if n > 0]
    if len(norms) < 2:
        return float("nan")
    return float((norms[-1] / norms[0]) ** (1.0 / (len(norms) - 1)))


def iterations_to_tolerance(residual_norms: Sequence[float], rtol: float
                            ) -> Optional[int]:
    """First iteration index at which the relative residual drops below *rtol*."""
    if not residual_norms:
        return None
    r0 = residual_norms[0]
    if r0 == 0:
        return 0
    for j, norm in enumerate(residual_norms):
        if norm <= rtol * r0:
            return j
    return None


def state_difference(state_a: Dict[str, np.ndarray],
                     state_b: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Relative 2-norm differences between two solver states, per vector.

    Used by the reconstruction-exactness tests: the state after recovery is
    compared against a snapshot taken right before the failure.
    """
    out: Dict[str, float] = {}
    for key in sorted(set(state_a) & set(state_b)):
        a, b = np.asarray(state_a[key]), np.asarray(state_b[key])
        denom = float(np.linalg.norm(a))
        diff = float(np.linalg.norm(a - b))
        out[key] = diff / denom if denom > 0 else diff
    return out
