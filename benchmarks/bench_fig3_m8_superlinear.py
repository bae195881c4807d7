"""Figure 3 -- matrix M8 (audikw_1 analogue): overhead growth with phi.

The paper's Figure 3 shows, for the densest structural matrix M8, how the
overhead of keeping redundant copies grows superlinearly with the number of
tolerated node failures, while remaining small in absolute terms (~2.5 % for
three failures, ~10 % for eight failures) because M8's wide, dense band makes
it a particularly favourable case for the ESR scheme (Sec. 5).
"""

from __future__ import annotations

import pytest

from conftest import make_config
from repro.analysis import analyze_overhead
from repro.core.api import distribute_problem
from repro.failures import FailureLocation
from repro.harness import figure_series, run_matrix_study
from repro.matrices import build_matrix


@pytest.fixture(scope="module")
def study(bench_settings):
    config = make_config(bench_settings, "M8")
    return run_matrix_study(
        config, phis=bench_settings.phis,
        locations=(FailureLocation.CENTER,),
        fractions=bench_settings.fractions,
    )


def test_figure3_report(benchmark, study, bench_settings, capsys):
    series = benchmark.pedantic(figure_series, args=(study, FailureLocation.CENTER),
                                rounds=1, iterations=1)
    phis = series.phis()
    overheads = [study.undisturbed_overhead(phi) for phi in phis]
    with capsys.disabled():
        print()
        print(series.render())
        print("undisturbed overhead per phi [%]:",
              {p: round(o, 2) for p, o in zip(phis, overheads)})
        print(f"[settings: {bench_settings.describe()}]")
    # overhead grows with phi ...
    assert overheads == sorted(overheads) or \
        max(overheads) - min(overheads) < 2.0
    # ... and the growth from the smallest to the largest phi is superlinear
    # in phi whenever the overhead is measurably nonzero (Fig. 3's message).
    if overheads[-1] > 1.0 and overheads[0] > 0.05:
        phi_ratio = phis[-1] / phis[0]
        assert overheads[-1] / max(overheads[0], 1e-9) > phi_ratio * 0.8


def test_extra_traffic_growth_matches_analysis(benchmark, bench_settings):
    """The redundancy traffic predicted by the Sec. 4.2 analysis grows with
    phi faster for the sparse M3 analogue than for the dense M8 analogue."""
    growth = {}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for matrix_id in ("M3", "M8"):
        matrix = build_matrix(matrix_id, n=bench_settings.matrix_size, seed=0)
        problem = distribute_problem(matrix, n_nodes=bench_settings.n_nodes)
        phis = [p for p in bench_settings.phis if p < bench_settings.n_nodes]
        extras = [
            analyze_overhead(problem.matrix, phi).total_extra_elements
            for phi in phis
        ]
        growth[matrix_id] = extras[-1] / max(matrix.shape[0], 1)
    assert growth["M3"] > 0
    # Relative to the problem size, the sparse matrix needs at least as much
    # extra redundancy as the dense one.
    assert growth["M3"] >= growth["M8"] * 0.9


def test_benchmark_m8_undisturbed_solve(benchmark, bench_settings):
    from repro.core.api import distribute_problem, solve

    matrix = build_matrix("M8", n=bench_settings.matrix_size, seed=0)
    phi = max(bench_settings.phis)

    def run():
        problem = distribute_problem(matrix, n_nodes=bench_settings.n_nodes)
        return solve(problem, solver="resilient_pcg", phi=phi, preconditioner="block_jacobi")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.converged
