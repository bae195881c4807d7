#!/usr/bin/env python3
"""Compare redundancy schemes: full copies vs Reed-Solomon parity stripes.

The paper's ESR protocol (Sec. 4.1) stores ``phi`` full off-node copies of
every retained block, paying ``phi * n`` extra storage to survive ``phi``
simultaneous failures.  The ``rs_parity`` scheme keeps one owner snapshot
plus ``m = phi`` RS(g+m, g) parity rows per rack-spanning stripe of ``g``
blocks instead, cutting the marginal cost per tolerated failure from a full
copy (``n`` elements) to roughly ``n / g`` -- while recovery stays bit-exact,
so the reconstructed Krylov state is *identical* to the copies path.

Run with:  python examples/redundancy_schemes.py
"""

import numpy as np

import repro
from repro.core import build_redundancy_scheme
from repro.core.rs_parity import GROUP_SIZE
from repro.harness import format_table


N_NODES = 12
PHI = 2
FAILED_RANKS = (1, 6)

SCHEMES = ("copies", "rs_parity")


def main() -> None:
    matrix = repro.matrices.build_matrix("M4", n=3000, seed=0)
    n = matrix.shape[0]
    print(f"thermal-style analogue: n = {n:,}, nnz = {matrix.nnz:,}")

    reference = repro.solve(matrix, n_nodes=N_NODES,
                            preconditioner="block_jacobi")
    failure_iteration = max(2, reference.iterations // 2)
    print(f"reference: {reference.summary()}")
    print(f"phi = {PHI}: nodes {list(FAILED_RANKS)} fail together at "
          f"iteration {failure_iteration}\n")

    # Storage accounting comes from the scheme itself; build each one on the
    # same distributed problem the solver will use.
    problem = repro.distribute_problem(matrix, n_nodes=N_NODES)

    rows = []
    recovered = {}
    for name in SCHEMES:
        scheme = build_redundancy_scheme(name, problem.context, PHI)
        stored = scheme.redundant_elements_per_generation()
        messages, elements = scheme.extra_traffic_per_iteration()

        result = repro.solve(
            matrix, n_nodes=N_NODES, preconditioner="block_jacobi",
            phi=PHI, scheme=name,
            failures=[(failure_iteration, list(FAILED_RANKS))],
        )
        recovered[name] = result
        overhead = result.info["redundancy"]
        rows.append([
            name,
            f"{stored / n:.2f}n",
            messages,
            elements,
            f"{overhead['per_iteration_time'] * 1e6:.1f}",
            result.iterations,
            "yes" if np.allclose(result.x, reference.x,
                                 rtol=1e-10, atol=1e-12) else "NO",
        ])

    print(format_table(
        ["scheme", "stored/gen", "msgs/iter", "elems/iter",
         "overhead/iter [us]", "iterations", "matches reference"],
        rows,
        title=f"Redundancy schemes surviving {PHI} simultaneous failures",
    ))

    bit_identical = np.array_equal(recovered["copies"].x,
                                   recovered["rs_parity"].x)
    print(f"\nrecovered solutions bit-identical across schemes: "
          f"{bit_identical}")
    print("rs_parity stores one owner snapshot plus m parity rows per "
          f"g={GROUP_SIZE} stripe -- ~{1 + PHI / GROUP_SIZE:.2f}n vs "
          f"{PHI:.2f}n for copies -- and decodes lost blocks bit-exactly, "
          "so exact state\nreconstruction proceeds unchanged on top of it.")


if __name__ == "__main__":
    main()
