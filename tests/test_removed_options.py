"""Values no workload set are constants, and naming one fails loudly.

Each piece runs the one configuration the paper runs: block Jacobi's ILU
with a fixed drop tolerance and fill factor, the reconstruction's inner PCG
to a fixed tolerance and cap, a checkpoint of the initial state, the
paper's backup placement and machine calibration, independent request
right-hand sides and failures clustered at the start or the center.  The
reliability layer derives its rack layout from the node count, stripes
parity over a fixed number of blocks, seeds each random choice from the
owner or the given seed, and draws exponential lifetimes with no repair
delay.  The cluster layer runs one interconnect, the fat tree sized by the
node count and priced by the machine, builds a problem's cluster only in
``distribute_problem`` and charges every reliable-storage read to the
cluster's ledger; the solver service registers only such problems.  The
settings that once chose otherwise are gone, and passing one raises the
``TypeError`` of an unexpected keyword.  (The removed spec
fields, ``SolveSpec``'s, ``ResilienceSpec``'s, ``CampaignSpec``'s,
``TraceSpec``'s and ``LifetimeModel``'s, are pinned with the other spec
knobs in ``tests/test_core_spec.py``, the preconditioner factory's options
in ``tests/test_precond_basic.py`` and the preconditioner cache's in
``tests/test_core_solve_facade.py``.)
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.baselines import (
    CheckpointConfig,
    least_squares_interpolation,
    local_interpolation,
)
from repro.cluster import MachineModel, ReliableStorage, VirtualCluster
from repro.core import api, distribute_problem, placement, rs_parity
from repro.core.placement import PLACEMENTS, RackLayout
from repro.core.redundancy import (
    RedundancyScheme,
    backup_targets,
    build_redundancy_scheme,
)
from repro.core.rs_parity import RSParityScheme
from repro.failures import (
    FailureScenario,
    LifetimeModel,
    TraceSpec,
    resolve_events,
)
from repro.harness import CampaignSpec, ExperimentConfig
from repro.matrices import generators, poisson_2d
from repro.precond import BlockJacobiPreconditioner, block_jacobi
from repro.service import SolverService, TrafficSpec
from repro.solvers import LocalSubsystemSolver, local_solver


def _interpolation_args():
    a = poisson_2d(4)
    return a, a @ np.ones(16), np.zeros(16), np.arange(4, 8)


def _context():
    return distribute_problem(poisson_2d(4), n_nodes=4).matrix.context


def _register(**keywords):
    problem = distribute_problem(poisson_2d(4), n_nodes=4)
    return SolverService().register_matrix("m", problem, **keywords)


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
    ("rack_size", lambda: RackLayout.default(8, rack_size=4)),
    ("racks", lambda: backup_targets(0, 1, 8, "rack_aware",
                                     racks=RackLayout(8, 2))),
    ("rng", lambda: backup_targets(0, 1, 8, "random", rng=0)),
    ("racks", lambda: PLACEMENTS.get("rack_aware")(0, 1, 8,
                                                   racks=RackLayout(8, 2))),
    ("rng", lambda: PLACEMENTS.get("random")(0, 1, 8, rng=0)),
    ("rack_size", lambda: build_redundancy_scheme("copies", _context(), 1,
                                                  rack_size=2)),
    ("rng", lambda: build_redundancy_scheme("copies", _context(), 1, rng=0)),
    ("options", lambda: build_redundancy_scheme(
        "rs_parity", _context(), 1, options={"group_size": 2})),
    ("rack_size", lambda: RedundancyScheme(_context(), 1, rack_size=2)),
    ("rng", lambda: RedundancyScheme(_context(), 1, rng=0)),
    ("rack_size", lambda: RSParityScheme(_context(), 1, rack_size=2)),
    ("rng", lambda: RSParityScheme(_context(), 1, rng=0)),
    ("group_size", lambda: RSParityScheme(_context(), 1, group_size=2)),
    ("rng", lambda: generators.graph_laplacian_spd(
        50, rng=np.random.default_rng(0))),
    ("rng", lambda: generators.unstructured_mesh_spd(
        50, rng=np.random.default_rng(0))),
    ("rng", lambda: generators.elasticity_3d(
        2, rng=np.random.default_rng(0))),
    ("rng", lambda: generators.banded_spd(
        50, 3, rng=np.random.default_rng(0))),
    ("rng", lambda: generators.diagonally_dominant_spd(
        50, rng=np.random.default_rng(0))),
    ("topology", lambda: VirtualCluster(4, topology=None)),
    ("topology", lambda: distribute_problem(poisson_2d(4), topology=None)),
    ("cluster", lambda: distribute_problem(poisson_2d(4),
                                           cluster=VirtualCluster(8))),
    ("rhs", lambda: _register(rhs=None)),
    ("n_nodes", lambda: _register(n_nodes=4)),
    ("machine", lambda: _register(machine=MachineModel())),
    ("topology", lambda: _register(topology=None)),
    ("seed", lambda: _register(seed=0)),
    ("cluster", lambda: _register(cluster=None)),
    ("clock", lambda: SolverService(clock=None)),
    ("ledger", lambda: ReliableStorage()),
]


@pytest.mark.parametrize(
    "keyword,call", REMOVED,
    ids=[f"{i:02d}-{keyword}" for i, (keyword, _) in enumerate(REMOVED)])
def test_removed_keyword_rejected(keyword, call):
    with pytest.raises(TypeError, match=keyword):
        call()


def test_a_problem_owns_its_cluster():
    """A second problem cannot be put on the first one's cluster, where it
    would overwrite the first one's matrix and right-hand side: both store
    their blocks under the same keys."""
    a1 = poisson_2d(8)
    b1 = np.random.default_rng(0).standard_normal(64)
    p1 = distribute_problem(a1, b1, n_nodes=4)
    a2 = (a1 + 3.0 * sp.identity(64)).tocsr()
    with pytest.raises(TypeError, match="cluster"):
        distribute_problem(a2, b1, cluster=p1.cluster)
    assert (p1.matrix.to_global() != a1).nnz == 0
    result = repro.solve(p1)
    assert result.converged
    assert np.linalg.norm(b1 - a1 @ result.x) <= 1e-7 * np.linalg.norm(b1)


def test_register_matrix_takes_only_a_problem():
    with pytest.raises(TypeError, match="repro.distribute_problem"):
        SolverService().register_matrix("m", poisson_2d(4))


@pytest.mark.parametrize("option", ["topology", "cluster"])
def test_solve_rejects_the_removed_cluster_options(option, monkeypatch):
    """``repro.solve`` hands a removed cluster option to the spec, whose
    unknown-override ``ValueError`` comes before any cluster is built or
    any charge made."""
    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was distributed")

    problem = distribute_problem(poisson_2d(4), n_nodes=4)
    monkeypatch.setattr(api, "distribute_problem", no_problem)
    with pytest.raises(ValueError, match=f"unknown SolveSpec.*{option}"):
        repro.solve(poisson_2d(4), **{option: None})
    with pytest.raises(ValueError, match=f"unknown SolveSpec.*{option}"):
        repro.solve(problem, **{option: None})
    assert problem.cluster.simulated_time() == 0.0


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
    (LifetimeModel, ["scale"]),
    (TraceSpec, ["n_nodes", "horizon", "lifetime", "burst_rate", "label"]),
    (CampaignSpec, ["matrix_id", "matrix_size", "matrix_seed", "n_nodes",
                    "phi", "placement", "preconditioner", "rtol", "trace",
                    "n_runs", "seed", "timeout_s"]),
], ids=["CheckpointConfig", "FailureScenario", "LifetimeModel", "TraceSpec",
        "CampaignSpec"])
def test_remaining_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names


def test_experiment_runs_use_the_papers_placement():
    assert ExperimentConfig().solve_spec(phi=1).resilience.placement == "paper"


def test_constants_keep_the_values_every_workload_ran():
    assert (block_jacobi.ILU_DROP_TOL, block_jacobi.ILU_FILL_FACTOR) == \
        (1e-4, 10.0)
    assert (local_solver.INNER_RTOL, local_solver.INNER_MAX_ITERATIONS) == \
        (1e-14, 200)
    assert (placement.DEFAULT_RACK_SIZE, rs_parity.GROUP_SIZE) == (4, 4)
