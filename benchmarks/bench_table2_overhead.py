"""Table 2 -- runtime overheads of the resilient PCG solver.

For every configured matrix analogue this regenerates the paper's Table-2
row(s): the reference time ``t0``, the relative overhead of the undisturbed
resilient solver for each number of redundant copies phi, and -- for
psi = phi simultaneous node failures clustered at the start or the center of
the vector -- the relative reconstruction time and the total overhead with
failures.

Paper reference points (128 nodes, full-size matrices): undisturbed overhead
0.2-8.2 % (phi=1), 2.2-24.1 % (phi=3), 8.2-91.3 % (phi=8); overhead with
three failures between 2.8 % and 55.0 %.  The scaled-down analogues are
expected to reproduce the *shape*: overheads grow with phi, sparse irregular
matrices (M3, M4) pay far more than wide-band structural ones (M5-M8).
"""

from __future__ import annotations

import pytest

from conftest import make_config
from repro.failures import FailureLocation
from repro.harness import render_table2, run_matrix_study, table2_rows


@pytest.fixture(scope="module")
def studies(bench_settings):
    """Run the full Table-2 sweep for the configured matrices (cached)."""
    out = []
    for matrix_id in bench_settings.matrices:
        config = make_config(bench_settings, matrix_id)
        out.append(run_matrix_study(
            config,
            phis=bench_settings.phis,
            locations=(FailureLocation.START, FailureLocation.CENTER),
            fractions=bench_settings.fractions,
        ))
    return out


def test_table2_report(benchmark, studies, bench_settings, capsys):
    """Print the Table-2 reproduction and check its qualitative shape."""
    with capsys.disabled():
        print()
        print(render_table2(studies))
        print(f"[settings: {bench_settings.describe()}]")
    rows = benchmark.pedantic(table2_rows, args=(studies,), rounds=1, iterations=1)
    assert rows
    phis = sorted(
        {int(k.split("phi")[1]) for r in rows for k in r
         if k.startswith("undisturbed_overhead_phi")}
    )
    for study in studies:
        # overheads grow (weakly) with the number of redundant copies
        overheads = [study.undisturbed_overhead(phi) for phi in phis]
        assert overheads[-1] >= overheads[0] - 2.0
        # all runs converged
        assert study.reference.all_converged
        for runs in study.with_failures.values():
            assert runs.all_converged
            # reconstruction accounts for part of the with-failure overhead
            assert runs.mean("recovery_time") > 0


def test_sparse_pays_more_than_dense(benchmark, studies):
    benchmark.pedantic(table2_rows, args=(studies,), rounds=1, iterations=1)
    """Sec. 5 / Table 2 shape: irregular sparse matrices (M3/M4) have larger
    relative overhead than wide-band structural matrices (M5-M8)."""
    by_id = {s.config.matrix_id: s for s in studies}
    sparse_ids = [m for m in ("M3", "M4") if m in by_id]
    dense_ids = [m for m in ("M5", "M6", "M7", "M8") if m in by_id]
    if not (sparse_ids and dense_ids):
        pytest.skip("need at least one sparse and one dense matrix configured")
    phi = max(p for p in by_id[sparse_ids[0]].undisturbed)
    sparse_overhead = max(by_id[m].undisturbed_overhead(phi) for m in sparse_ids)
    dense_overhead = min(by_id[m].undisturbed_overhead(phi) for m in dense_ids)
    assert sparse_overhead > dense_overhead


def test_benchmark_single_resilient_solve(benchmark, bench_settings):
    """Wall-clock benchmark of one resilient solve with three failures."""
    from repro.core.api import distribute_problem, solve
    from repro.matrices import build_matrix

    matrix = build_matrix("M5", n=bench_settings.matrix_size, seed=0)

    def run():
        problem = distribute_problem(matrix, n_nodes=bench_settings.n_nodes)
        return solve(problem, solver="resilient_pcg", phi=3, preconditioner="block_jacobi",
                               failures=[(10, [0, 1, 2])])

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.converged
    assert result.n_failures_recovered == 3
