#!/usr/bin/env python3
"""Quickstart: protect a PCG solve against node failures with ESR.

Builds a small SPD system (2-D Poisson), distributes it over a virtual
8-node cluster, and drives everything through the one entry point
``repro.solve``:

* a plain (non-resilient) distributed PCG run -- the default ``SolveSpec``;
* the ESR-protected solver keeping phi = 3 redundant copies while three
  nodes fail simultaneously halfway through the solve -- the same spec plus
  a ``ResilienceSpec``;
* a multi-RHS block solve -- an ``(n, k)`` right-hand-side block dispatches
  to the block PCG automatically.

Both single-RHS runs converge to the same solution; the resilient run
reports the simulated-time overhead of the redundancy and reconstruction.

Run with:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    # 1. An SPD test problem: 60 x 60 Poisson grid (n = 3600 unknowns).
    matrix = repro.matrices.poisson_2d(60)
    rhs = matrix @ np.ones(matrix.shape[0])          # exact solution = ones

    # 2. Reference run: plain distributed PCG on 8 virtual nodes.  The
    #    default SolveSpec selects the plain solver with block Jacobi.
    problem = repro.distribute_problem(matrix, rhs, n_nodes=8, seed=0)
    reference = repro.solve(problem, spec=repro.SolveSpec())
    print("reference PCG   :", reference.summary())
    print(f"  simulated time: {reference.simulated_time * 1e3:.2f} ms")

    # 3. Resilient run: phi = 3 redundant copies, three nodes fail at
    #    iteration 20 (they lose all their dynamic data and are replaced).
    #    Attaching a ResilienceSpec selects the ESR-protected solver.
    problem = repro.distribute_problem(matrix, rhs, n_nodes=8, seed=1)
    resilient = repro.solve(problem, spec=repro.SolveSpec(
        preconditioner="block_jacobi",
        resilience=repro.ResilienceSpec(phi=3, failures=[(20, [3, 4, 5])]),
    ))
    print("resilient PCG   :", resilient.summary())
    print(f"  simulated time: {resilient.simulated_time * 1e3:.2f} ms "
          f"(recovery: {resilient.simulated_recovery_time * 1e3:.2f} ms)")
    print(f"  failures recovered: {resilient.n_failures_recovered}")

    # 4. The recovered run reaches the same solution as the reference run.
    difference = np.linalg.norm(resilient.x - reference.x) / np.linalg.norm(reference.x)
    overhead = (resilient.simulated_time - reference.simulated_time) \
        / reference.simulated_time
    print(f"relative solution difference: {difference:.2e}")
    print(f"total overhead vs. reference: {overhead:.1%}")
    print(f"residual deviation (Eqn. 7): "
          f"{resilient.relative_residual_deviation:+.2e}")

    # 5. Multi-RHS: an (n, k) right-hand-side block dispatches to the block
    #    PCG -- one halo exchange and one k-wide allreduce per reduction,
    #    whatever the column count.
    block_rhs = np.column_stack([rhs, 0.5 * rhs, matrix @ rhs])
    block = repro.solve(matrix, block_rhs, n_nodes=8, seed=0)
    print(f"\nblock PCG (k={block_rhs.shape[1]}): "
          f"converged={block.all_converged}, iterations={block.iterations}, "
          f"simulated time {block.simulated_time * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
