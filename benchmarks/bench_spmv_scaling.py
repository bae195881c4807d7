"""Ablation A3 -- SpMV/redundancy scaling and the Sec. 4.2 bounds.

Sweeps the number of virtual nodes and the redundancy level phi on a Poisson
analogue and checks that (i) the modelled per-iteration redundancy overhead
always stays inside the analytic bounds ``[max_i sum_k |R^c_ik| mu,
phi (lambda_max + ceil(n/N) mu)]`` and (ii) the upper bound grows linearly in
phi, as derived in the paper's analysis.  Also provides wall-clock benchmarks
of the distributed SpMV kernel itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import analyze_overhead
from repro.core.api import distribute_problem
from repro.distributed import DistributedVector, distributed_spmv
from repro.harness import format_table
from repro.matrices import poisson_2d


@pytest.fixture(scope="module")
def scaling_rows(bench_settings):
    nx = max(int(np.sqrt(bench_settings.matrix_size)), 24)
    matrix = poisson_2d(nx)
    rows = []
    for n_nodes in (4, 8, bench_settings.n_nodes):
        n_nodes = min(n_nodes, matrix.shape[0])
        problem = distribute_problem(matrix, n_nodes=n_nodes)
        for phi in (1, 2, 3):
            if phi >= n_nodes:
                continue
            analysis = analyze_overhead(problem.matrix, phi)
            rows.append({
                "n_nodes": n_nodes,
                "phi": phi,
                "per_iteration_time": analysis.per_iteration_time,
                "lower": analysis.lower_bound,
                "upper": analysis.upper_bound,
                "within": analysis.within_bounds,
                "extra_elements": analysis.total_extra_elements,
            })
    return matrix, rows


def test_bounds_report(benchmark, scaling_rows, bench_settings, capsys):
    matrix, rows = scaling_rows
    benchmark.pedantic(lambda: list(rows), rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["N", "phi", "modelled ovh [s/iter]", "lower bound", "upper bound",
             "extra elems"],
            [[r["n_nodes"], r["phi"], f"{r['per_iteration_time']:.3e}",
              f"{r['lower']:.3e}", f"{r['upper']:.3e}", r["extra_elements"]]
             for r in rows],
            title=f"Ablation A3: Sec. 4.2 bounds on a {matrix.shape[0]}-unknown "
                  "Poisson problem",
        ))
    assert all(r["within"] for r in rows)
    # The upper bound is linear in phi for fixed N.
    for n_nodes in {r["n_nodes"] for r in rows}:
        subset = sorted((r for r in rows if r["n_nodes"] == n_nodes),
                        key=lambda r: r["phi"])
        if len(subset) >= 2:
            ratio = subset[-1]["upper"] / subset[0]["upper"]
            assert ratio == pytest.approx(subset[-1]["phi"] / subset[0]["phi"],
                                          rel=0.01)


def test_benchmark_distributed_spmv(benchmark, bench_settings):
    """Wall-clock of the distributed SpMV kernel (the solver's hot loop)."""
    nx = max(int(np.sqrt(bench_settings.matrix_size)), 24)
    matrix = poisson_2d(nx)
    problem = distribute_problem(matrix, n_nodes=bench_settings.n_nodes)
    x = DistributedVector.from_global(problem.cluster, problem.partition, "x",
                                      np.ones(matrix.shape[0]))
    y = DistributedVector.zeros(problem.cluster, problem.partition, "y")

    def run():
        distributed_spmv(problem.matrix, x, y)
        return y

    result = benchmark(run)
    assert np.allclose(result.to_global(), matrix @ np.ones(matrix.shape[0]))


def test_benchmark_esr_exchange(benchmark, bench_settings):
    """Wall-clock of one ESR redundant-copy exchange."""
    from repro.core.esr import ESRProtocol
    from repro.core.redundancy import RedundancyScheme

    nx = max(int(np.sqrt(bench_settings.matrix_size)), 24)
    matrix = poisson_2d(nx)
    problem = distribute_problem(matrix, n_nodes=bench_settings.n_nodes)
    phi = max(p for p in bench_settings.phis if p < bench_settings.n_nodes)
    esr = ESRProtocol(problem.cluster, RedundancyScheme(problem.context, phi))
    p = DistributedVector.from_global(problem.cluster, problem.partition, "p",
                                      np.ones(matrix.shape[0]))

    iteration_counter = {"j": 0}

    def run():
        esr.after_spmv(p, iteration_counter["j"])
        iteration_counter["j"] += 1

    benchmark(run)
    assert esr.available_generations()
