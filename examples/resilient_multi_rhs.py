#!/usr/bin/env python3
"""Resilient multi-RHS solves: a block of right-hand sides surviving failures.

Multi-RHS workloads (multiple load cases in structural analysis, multiple
source terms in circuit simulation) solve ``A X = B`` for a whole block of
right-hand sides.  The block solver runs all columns in lock-step and
amortizes the latency-bound legs of every iteration -- one halo exchange and
``k``-wide allreduces instead of ``k`` of each.  Composing a ``ResilienceSpec``
with the multi-RHS block makes the lock-step run survive node failures too:
redundant ``(rows, k)`` copies of the search-direction block ride the batched
SpMV's messages (no extra messages vs. the single-vector scheme -- only the
volume grows), and one recovery episode re-assembles *all* ``k`` columns of
the lost rows with a single reverse scatter and one amortized local
multi-RHS solve.

This example solves 4 right-hand sides at once, kills two nodes mid-solve,
and checks that every recovered column matches an undisturbed solve.

Run with:  python examples/resilient_multi_rhs.py
"""

import numpy as np

import repro


def main() -> None:
    matrix = repro.matrices.poisson_2d(40)            # n = 1600
    n = matrix.shape[0]
    k = 4
    rng = np.random.default_rng(7)
    rhs_block = rng.standard_normal((n, k))           # 4 load cases at once

    # Undisturbed block solve (for the failure iteration and comparison).
    undisturbed = repro.solve(
        repro.distribute_problem(matrix, n_nodes=8, seed=1),
        rhs_block, preconditioner="block_jacobi",
    )
    failure_iteration = max(1, int(0.4 * max(undisturbed.iterations)))
    print(f"undisturbed block solve: k={k}, iterations="
          f"{list(undisturbed.iterations)}")
    print(f"injecting a 2-node failure at iteration {failure_iteration}")

    # A ResilienceSpec selects the resilient solver ("resilient_pcg" in the
    # registry), which solves the whole (n, k) block and answers with one.
    result = repro.solve(
        repro.distribute_problem(matrix, n_nodes=8, seed=0),
        rhs_block,
        spec=repro.SolveSpec(
            preconditioner="block_jacobi",
            resilience=repro.ResilienceSpec(
                phi=2, failures=[(failure_iteration, [3, 4])],
            ),
        ),
    )

    print(f"\nresilient block solve: converged={result.all_converged}, "
          f"iterations={list(result.iterations)}")
    print(f"failures recovered      : {result.n_failures_recovered}")
    for report in result.recoveries:
        print(f"recovery episode        : ranks {report.failed_ranks}, "
              f"{report.simulated_time * 1e3:.2f} ms simulated")
    summary = result.info["redundancy"]
    print(f"redundancy overhead     : {summary['per_iteration_time'] * 1e6:.2f} "
          f"us/iteration for k={int(summary['n_cols'])} columns "
          f"(phi={int(summary['phi'])})")

    for j in range(k):
        diff = np.linalg.norm(result.x[:, j] - undisturbed.x[:, j]) \
            / np.linalg.norm(undisturbed.x[:, j])
        print(f"column {j}: relative difference vs. undisturbed = {diff:.2e}")

    assert result.all_converged
    assert result.n_failures_recovered == 2
    print("\nAll columns survived the 2-node failure: the block recovery "
          "restored every column of the lost\nrows from the redundant copies "
          "with one amortized local solve, and the lock-step iteration "
          "resumed.")


if __name__ == "__main__":
    main()
