#!/usr/bin/env python3
"""Circuit-simulation workload: the unfavourable sparsity regime.

Matrices like ``G3_circuit`` (M3 in the paper) have only ~5 non-zeros per row
scattered irregularly: most search-direction elements are never communicated
during the SpMV, so every redundant copy the ESR scheme keeps has to be
shipped explicitly.  This example quantifies that effect: it analyses the
multiplicity distribution of Eqn. (3), the extra traffic of Eqn. (6) per
redundancy level, and measures the resulting runtime overhead -- the
experiment behind the M3 rows of Table 2 and the Sec. 5 discussion.

Run with:  python examples/circuit_simulation.py
"""

import repro
from repro.cluster import MachineModel
from repro.analysis import analyze_overhead, sparsity_report
from repro.harness import format_table


N_NODES = 16
TARGET_SIZE = 8000


def main() -> None:
    print(f"Building a circuit-like SPD matrix (~{TARGET_SIZE} unknowns)...")
    matrix = repro.matrices.build_matrix("M3", n=TARGET_SIZE, seed=0)
    props = repro.matrices.analyze(matrix)
    print(f"  n = {props.n:,}, nnz = {props.nnz:,} "
          f"({props.nnz_per_row_mean:.1f} per row)")

    # Calibrate the cost model to the paper's rows-per-node regime so the
    # compute/latency balance (and hence the relative overheads) matches the
    # 128-node runs of the paper (see EXPERIMENTS.md).
    machine = MachineModel(jitter_rel_std=0.0).scaled(
        max(1.0, 8000 / (matrix.shape[0] / N_NODES)))

    problem = repro.distribute_problem(matrix, n_nodes=N_NODES, seed=0)

    # --- sparsity-pattern analysis (Sec. 5) --------------------------------
    report = sparsity_report(problem.matrix, phi=3)
    print("\nSparsity analysis for phi = 3:")
    print(f"  multiplicity histogram m_i(s): {report.multiplicity_histogram}")
    print(f"  elements with >= 3 natural copies: {report.natural_coverage:.1%}")
    print(f"  extras that can piggyback on SpMV: {report.piggyback_fraction:.1%}")
    print(f"  Sec. 5 band condition holds: {report.band_condition}")

    # --- overhead vs. number of redundant copies ---------------------------
    reference = repro.solve(matrix, n_nodes=N_NODES, seed=1, machine=machine,
                            preconditioner="block_jacobi")
    print(f"\nreference PCG: {reference.summary()}")

    rows = []
    for phi in (1, 3, 8):
        analysis = analyze_overhead(problem.matrix, phi)
        resilient = repro.solve(matrix, n_nodes=N_NODES, seed=phi,
                                machine=machine,
                                preconditioner="block_jacobi", phi=phi)
        overhead = 100 * (resilient.simulated_time - reference.simulated_time) \
            / reference.simulated_time
        rows.append([
            phi,
            analysis.total_extra_elements,
            analysis.extra_messages,
            f"{analysis.per_iteration_time * 1e6:.1f}",
            f"{overhead:.1f}",
        ])
    print()
    print(format_table(
        ["phi", "extra elems/iter", "extra msgs/iter",
         "modelled ovh [us/iter]", "measured ovh [%]"],
        rows,
        title="Redundancy cost on the circuit analogue (cf. M3 in Table 2)",
    ))
    print("\nNote: for matrices this sparse the paper measures up to 91% "
          "overhead for phi = 8 -- the price of\ntolerating many simultaneous "
          "failures when nothing piggybacks on existing messages.")


if __name__ == "__main__":
    main()
