"""Experiment harness: configuration, execution, aggregation, tables, figures."""

from .campaign import (
    OUTCOME_KINDS,
    CampaignResult,
    CampaignSpec,
    RunOutcome,
    run_campaign,
    run_single,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    MatrixStudy,
    RepetitionResult,
    run_failure_free,
    run_matrix_study,
    run_reference,
    run_with_failures,
)
from .figures import BoxStats, FigureSeries, ProgressSweep, figure_series, progress_sweep
from .tables import (
    format_table,
    table1_rows,
    table2_rows,
    table3_rows,
    render_table1,
    render_table2,
    render_table3,
)

__all__ = [
    "OUTCOME_KINDS",
    "CampaignSpec",
    "CampaignResult",
    "RunOutcome",
    "run_campaign",
    "run_single",
    "ExperimentConfig",
    "ExperimentResult",
    "RepetitionResult",
    "MatrixStudy",
    "run_reference",
    "run_failure_free",
    "run_with_failures",
    "run_matrix_study",
    "FigureSeries",
    "BoxStats",
    "ProgressSweep",
    "figure_series",
    "progress_sweep",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "render_table1",
    "render_table2",
    "render_table3",
    "format_table",
]
