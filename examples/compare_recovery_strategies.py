#!/usr/bin/env python3
"""Compare ESR against checkpoint/restart, interpolation/restart and full restart.

Reproduces, on a small thermal-style problem, the comparison implicit in the
paper's related-work discussion (Sec. 1.2): how much work each recovery
strategy loses when three nodes fail mid-solve, and what it pays in the
failure-free case.

Run with:  python examples/compare_recovery_strategies.py
"""

import repro
from repro.baselines import (
    CheckpointConfig,
    CheckpointRestartPCG,
    FullRestartPCG,
    InterpolationRecoveryPCG,
)
from repro.harness import format_table


N_NODES = 12
FAILED_RANKS = (5, 6, 7)


def run_baseline(cls, matrix, failure_iteration, **kwargs):
    problem = repro.distribute_problem(matrix, n_nodes=N_NODES)
    precond = problem.resolve_preconditioner("block_jacobi")
    solver = cls(problem.matrix, problem.rhs, precond,
                 failures=[(failure_iteration, FAILED_RANKS)], **kwargs)
    return solver.solve()


def main() -> None:
    matrix = repro.matrices.build_matrix("M4", n=5000, seed=0)
    print(f"thermal-style analogue: n = {matrix.shape[0]:,}, "
          f"nnz = {matrix.nnz:,}")

    reference = repro.solve(matrix, n_nodes=N_NODES,
                            preconditioner="block_jacobi")
    failure_iteration = max(2, reference.iterations // 2)
    print(f"reference: {reference.summary()}")
    print(f"three nodes {list(FAILED_RANKS)} fail at iteration "
          f"{failure_iteration}\n")

    # Attaching a ResilienceSpec (here via the phi/failures shorthand
    # overrides) selects the ESR-protected solver.
    esr = repro.solve(
        matrix, n_nodes=N_NODES, preconditioner="block_jacobi",
        phi=3, failures=[(failure_iteration, list(FAILED_RANKS))],
    )
    checkpoint = run_baseline(
        CheckpointRestartPCG, matrix, failure_iteration,
        config=CheckpointConfig(interval=max(failure_iteration // 2, 1)),
    )
    interpolation = run_baseline(InterpolationRecoveryPCG, matrix,
                                 failure_iteration, method="li")
    restart = run_baseline(FullRestartPCG, matrix, failure_iteration)

    rows = []
    for label, result in (
        ("ESR (this paper)", esr),
        ("checkpoint/restart", checkpoint),
        ("interpolation/restart (LI)", interpolation),
        ("full restart", restart),
    ):
        overhead = 100 * (result.simulated_time - reference.simulated_time) \
            / reference.simulated_time
        rows.append([
            label,
            result.iterations,
            f"{result.simulated_time * 1e3:.2f}",
            f"{overhead:.1f}",
            "yes" if result.converged else "NO",
        ])
    print(format_table(
        ["strategy", "iterations", "sim. time [ms]", "overhead vs t0 [%]",
         "converged"],
        rows,
        title="Recovery strategies under three simultaneous node failures",
    ))
    print("\nESR resumes from the exact pre-failure state; every alternative "
          "either repeats iterations (checkpointing,\nrestart) or loses the "
          "Krylov subspace (interpolation) and therefore needs more work "
          "after the failure.")


if __name__ == "__main__":
    main()
