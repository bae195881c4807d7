"""Values no workload set are constants, and naming one fails loudly.

Each piece runs the one configuration the paper runs: block Jacobi's ILU
with a fixed drop tolerance and fill factor, the reconstruction's inner PCG
to a fixed tolerance and cap, a checkpoint of the initial state, the
paper's backup placement and machine calibration, independent request
right-hand sides and failures clustered at the start or the center.  The
settings that once chose otherwise are gone, and passing one raises the
``TypeError`` of an unexpected keyword.  (``SolveSpec``'s removed fields
are pinned with the other spec knobs in ``tests/test_core_spec.py``, the
preconditioner factory's options in ``tests/test_precond_basic.py`` and
the preconditioner cache's in ``tests/test_core_solve_facade.py``.)
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    CheckpointConfig,
    least_squares_interpolation,
    local_interpolation,
)
from repro.cluster import MachineModel
from repro.failures import FailureScenario, resolve_events
from repro.harness import ExperimentConfig
from repro.matrices import poisson_2d
from repro.precond import BlockJacobiPreconditioner, block_jacobi
from repro.service import TrafficSpec
from repro.solvers import LocalSubsystemSolver, local_solver


def _interpolation_args():
    a = poisson_2d(4)
    return a, a @ np.ones(16), np.zeros(16), np.arange(4, 8)


#: ``(keyword, call passing it)`` for every removed keyword.
REMOVED = [
    ("n_blocks", lambda: BlockJacobiPreconditioner(n_blocks=4)),
    ("drop_tol", lambda: BlockJacobiPreconditioner(block_solver="ilu",
                                                   drop_tol=1e-3)),
    ("fill_factor", lambda: BlockJacobiPreconditioner(block_solver="ilu",
                                                      fill_factor=5.0)),
    ("rtol", lambda: LocalSubsystemSolver("pcg_ilu", rtol=1e-12)),
    ("max_iterations", lambda: LocalSubsystemSolver("pcg_ilu",
                                                    max_iterations=1)),
    ("rtol", lambda: local_interpolation(*_interpolation_args(), rtol=1e-12)),
    ("rtol", lambda: least_squares_interpolation(*_interpolation_args(),
                                                 rtol=1e-12)),
    ("checkpoint_initial_state",
     lambda: CheckpointConfig(checkpoint_initial_state=False)),
    ("placement", lambda: ExperimentConfig(placement="next_ranks")),
    ("machine", lambda: ExperimentConfig(machine=MachineModel())),
    ("target_rows_per_node", lambda: ExperimentConfig(target_rows_per_node=0)),
    ("n_modes", lambda: TrafficSpec(n_modes=2)),
    ("mode_noise", lambda: TrafficSpec(mode_noise=0.05)),
    ("overlaps", lambda: FailureScenario(2, overlaps=())),
    ("label", lambda: FailureScenario(2, label="outage")),
    ("rng", lambda: FailureScenario(2).failed_ranks(8, rng=0)),
    ("rng", lambda: resolve_events(FailureScenario(2), n_nodes=8,
                                   reference_iterations=10, rng=0)),
]


@pytest.mark.parametrize(
    "keyword,call", REMOVED,
    ids=[f"{i:02d}-{keyword}" for i, (keyword, _) in enumerate(REMOVED)])
def test_removed_keyword_rejected(keyword, call):
    with pytest.raises(TypeError, match=keyword):
        call()


def test_block_jacobi_takes_no_positional_block_count():
    with pytest.raises(TypeError):
        BlockJacobiPreconditioner(4)


@pytest.mark.parametrize("value", ["end", "random", "center"])
def test_failure_location_must_be_a_member(value):
    """The removed ``END``/``RANDOM`` spellings, like any value that is not
    a ``FailureLocation``, fail instead of striking the center."""
    with pytest.raises(TypeError, match="location"):
        FailureScenario(2, location=value)


@pytest.mark.parametrize("cls,names", [
    (CheckpointConfig, ["interval"]),
    (FailureScenario, ["n_failures", "progress_fraction", "location"]),
], ids=["CheckpointConfig", "FailureScenario"])
def test_remaining_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_experiment_runs_use_the_papers_placement():
    assert ExperimentConfig().solve_spec(phi=1).resilience.placement == "paper"


def test_constants_keep_the_values_every_workload_ran():
    assert (block_jacobi.ILU_DROP_TOL, block_jacobi.ILU_FILL_FACTOR) == \
        (1e-4, 10.0)
    assert (local_solver.INNER_RTOL, local_solver.INNER_MAX_ITERATIONS) == \
        (1e-14, 200)
