"""Figure 4 -- influence of the failure iteration on the total runtime.

Three simultaneous node failures are introduced near the center of the vector
at 20 %, 50 % or 80 % of the solver's progress (matrix M5 analogue).  The
paper's finding: the iteration at which the failures strike has little
influence on the total runtime -- the boxes for the three progress fractions
overlap.
"""

from __future__ import annotations

import pytest

from conftest import make_config
from repro.failures import FailureLocation
from repro.harness import progress_sweep, run_reference


@pytest.fixture(scope="module")
def sweep(bench_settings):
    config = make_config(bench_settings, "M5")
    phi = 3 if bench_settings.n_nodes > 3 else 1
    return progress_sweep(
        config, phi=phi, location=FailureLocation.CENTER,
        fractions=(0.2, 0.5, 0.8),
    )


def test_figure4_report(benchmark, sweep, bench_settings, capsys):
    benchmark.pedantic(sweep.medians, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(sweep.render())
        print(f"relative spread of medians: {sweep.spread():.2%}")
        print(f"[settings: {bench_settings.describe()}]")
    assert sweep.fractions() == [0.2, 0.5, 0.8]
    assert all(m > 0 for m in sweep.medians())
    # The paper's observation: the failure point has little influence on the
    # total runtime.  Allow a generous margin for the small scaled problems.
    assert sweep.spread() < 0.35


def test_benchmark_progress_sweep_single_point(benchmark, bench_settings):
    """Time one run of the sweep's mid-point configuration."""
    from repro.core.api import distribute_problem, solve
    from repro.failures import FailureScenario, resolve_events

    config = make_config(bench_settings, "M5")
    matrix = config.build_matrix()
    reference = run_reference(config)
    scenario = FailureScenario(n_failures=3, progress_fraction=0.5,
                               location=FailureLocation.CENTER)
    events = resolve_events(scenario, n_nodes=config.n_nodes,
                            reference_iterations=int(reference.mean_iterations))

    def run():
        problem = distribute_problem(matrix, n_nodes=config.n_nodes,
                                     machine=config.build_machine(matrix.shape[0]))
        return solve(problem, solver="resilient_pcg", phi=3, failures=events,
                               preconditioner="block_jacobi")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.converged
