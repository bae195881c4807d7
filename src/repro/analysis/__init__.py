"""Communication-overhead and sparsity-pattern analysis (Secs. 4.2 and 5).

Populated by :mod:`repro.analysis.overhead` and
:mod:`repro.analysis.sparsity`.
"""

from .overhead import OverheadAnalysis, analyze_overhead
from .sparsity import (
    SparsityReport,
    band_condition_holds,
    multiplicity_histogram,
    natural_coverage_fraction,
    sparsity_report,
)

__all__ = [
    "OverheadAnalysis",
    "analyze_overhead",
    "SparsityReport",
    "sparsity_report",
    "multiplicity_histogram",
    "natural_coverage_fraction",
    "band_condition_holds",
]
