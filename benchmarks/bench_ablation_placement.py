"""Ablation A1 -- backup-node placement strategies.

The paper selects the backup nodes with the alternating-neighbour heuristic
of Eqn. (5) and notes that the optimal choice for general sparsity patterns is
future work.  This ablation compares the paper's placement against a naive
"next phi ranks" placement and a random placement, in terms of (i) the extra
redundancy traffic and extra latency-paying messages predicted by the
Sec.-4.2 analysis and (ii) the measured undisturbed overhead of the resilient
solver.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_overhead
from repro.core.api import distribute_problem, solve
from repro.core.spec import ResilienceSpec, SolveSpec
from repro.harness import format_table
from repro.matrices import build_matrix

PLACEMENTS = ("paper", "next_ranks", "random")


@pytest.fixture(scope="module")
def ablation_data(bench_settings):
    phi = 3 if bench_settings.n_nodes > 3 else 1
    rows = []
    for matrix_id in ("M3", "M5"):
        matrix = build_matrix(matrix_id, n=bench_settings.matrix_size, seed=0)
        reference = solve(matrix, n_nodes=bench_settings.n_nodes,
                          spec=SolveSpec(preconditioner="block_jacobi"))
        for placement in PLACEMENTS:
            problem = distribute_problem(matrix, n_nodes=bench_settings.n_nodes)
            analysis = analyze_overhead(problem.matrix, phi,
                                        placement=placement)
            result = solve(problem, spec=SolveSpec(
                preconditioner="block_jacobi",
                resilience=ResilienceSpec(phi=phi, placement=placement)))
            rows.append({
                "matrix": matrix_id,
                "placement": placement,
                "extra_elements": analysis.total_extra_elements,
                "extra_messages": analysis.extra_messages,
                "undisturbed_overhead_pct": 100.0 * (
                    result.simulated_time - reference.simulated_time
                ) / reference.simulated_time,
                "converged": result.converged,
            })
    return phi, rows


def test_ablation_placement_report(benchmark, ablation_data, bench_settings, capsys):
    phi, rows = ablation_data
    benchmark.pedantic(lambda: list(rows), rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["matrix", "placement", "extra elems/iter", "extra msgs/iter",
             "undist. overhead [%]"],
            [[r["matrix"], r["placement"], r["extra_elements"],
              r["extra_messages"], f"{r['undisturbed_overhead_pct']:.2f}"]
             for r in rows],
            title=f"Ablation A1: backup placement (phi={phi})",
        ))
        print(f"[settings: {bench_settings.describe()}]")
    assert all(r["converged"] for r in rows)
    # The paper placement never pays more extra latency messages than the
    # random placement on the band-dominated matrix M5 (neighbouring ranks
    # are exactly the nodes the SpMV talks to anyway).
    by_key = {(r["matrix"], r["placement"]): r for r in rows}
    assert by_key[("M5", "paper")]["extra_messages"] <= \
        by_key[("M5", "random")]["extra_messages"]


def test_benchmark_scheme_construction(benchmark, bench_settings):
    """Time the redundancy-scheme construction (per-run setup cost)."""
    from repro.core.redundancy import RedundancyScheme

    matrix = build_matrix("M5", n=bench_settings.matrix_size, seed=0)
    problem = distribute_problem(matrix, n_nodes=bench_settings.n_nodes)
    phi = max(p for p in bench_settings.phis if p < bench_settings.n_nodes)

    scheme = benchmark.pedantic(
        RedundancyScheme, args=(problem.context, phi), rounds=1, iterations=1,
    )
    assert scheme.verify_invariant()
