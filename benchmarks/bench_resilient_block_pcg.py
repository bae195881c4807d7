"""Benchmark: resilient multi-RHS block solves under node failures.

For every configured column count ``k`` this compares, on the virtual
cluster, one :class:`~repro.core.resilient_block_pcg.ResilientBlockPCG`
solve of ``A X = B`` hit by a multi-node failure schedule against ``k``
sequential single-RHS (``k = 1``) resilient solves of the same columns hit
by the *same* schedule -- all dispatched through the
``repro.solve`` façade with specs composed by the experiment harness
(:meth:`ExperimentConfig.solve_spec` with ``n_rhs=k`` attaches the
``BlockSpec`` next to the ``ResilienceSpec``):

* **Equivalence contract** -- per-column iterates and residual histories of
  the block solve must be bit-identical to the sequential resilient solves
  (same recovery math per column, one shared local factorization);
* **Recovery amortization (simulated)** -- the block recovery re-assembles
  all ``k`` columns with one reverse scatter and one local multi-RHS solve,
  so its simulated recovery time grows far slower than the ``k``-fold
  sequential recovery cost;
* **Redundancy amortization** -- the per-iteration extra redundancy traffic
  ships all ``k`` columns in the ``k = 1`` scheme's messages: message
  count independent of ``k``, volume scaling with ``k``;
* **Wallclock amortization** -- one resilient block solve is faster than
  ``k`` sequential resilient solves end to end.

Usage::

    python benchmarks/bench_resilient_block_pcg.py                  # full sweep
    python benchmarks/bench_resilient_block_pcg.py --smoke          # CI smoke
    python benchmarks/bench_resilient_block_pcg.py --json out.json

Environment knobs (full mode): ``REPRO_BENCH_RBPCG_N`` (matrix size, default
6000), ``REPRO_BENCH_RBPCG_NODES`` (cluster size, default 16),
``REPRO_BENCH_RBPCG_KS`` (comma-separated column counts, default "1,4,8"),
``REPRO_BENCH_RBPCG_PHI`` (redundancy, default 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - uninstalled checkout
        sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.cluster import MachineModel  # noqa: E402
from repro.cluster.cost_model import Phase  # noqa: E402
from repro.core import distribute_problem, solve  # noqa: E402
from repro.distributed import (  # noqa: E402
    DistributedMultiVector,
    DistributedVector,
)
from repro.harness.experiment import ExperimentConfig  # noqa: E402
from repro.matrices import build_matrix  # noqa: E402
from repro.matrices.suite import get_record, matrix_ids  # noqa: E402

#: The matrix with the largest original problem size (Table 1): M3/G3_circuit.
LARGEST_MATRIX_ID = max(
    matrix_ids(), key=lambda mid: get_record(mid).original_n
)


def _fresh_problem(matrix, n_nodes: int):
    """A fresh distributed problem on its own cluster (jitter off)."""
    return distribute_problem(matrix, n_nodes=n_nodes,
                              machine=MachineModel(jitter_rel_std=0.0))


def run_case(matrix_id: str, n: int, n_nodes: int, k: int, phi: int,
             rtol: float, max_iterations: int, seed: int = 0
             ) -> Dict[str, object]:
    """One (matrix, k) configuration: resilient block vs. k sequential."""
    matrix = build_matrix(matrix_id, n=n, seed=seed)
    n_actual = matrix.shape[0]
    rng = np.random.default_rng(seed)
    rhs_global = rng.standard_normal((n_actual, k))

    # Failure schedule: phi ranks fail together at ~30% of a reference run.
    reference = solve(_fresh_problem(matrix, n_nodes), rhs_global[:, 0],
                      rtol=rtol, max_iterations=max_iterations,
                      preconditioner="block_jacobi")
    fail_at = max(1, int(0.3 * reference.iterations))
    failed_ranks = list(range(1, 1 + phi))
    failures = [(fail_at, failed_ranks)]

    config = ExperimentConfig(matrix=matrix, n_nodes=n_nodes, rtol=rtol,
                              max_iterations=max_iterations,
                              jitter_rel_std=0.0, n_rhs=k)
    spec_block = config.solve_spec(phi=phi, failures=failures)

    # -- one resilient block solve ------------------------------------------
    problem = _fresh_problem(matrix, n_nodes)
    problem.resolve_preconditioner(spec_block.preconditioner)
    rhs_block = DistributedMultiVector.from_global(
        problem.cluster, problem.partition, "B", rhs_global)
    start = time.perf_counter()
    block_result = solve(problem, rhs_block, spec=spec_block)
    t_block = time.perf_counter() - start
    ledger = problem.cluster.ledger
    block_redundancy_msgs = ledger.messages.get(Phase.REDUNDANCY_COMM, 0)
    block_redundancy_elems = ledger.elements.get(Phase.REDUNDANCY_COMM, 0)

    # -- k sequential resilient solves (same schedule each) -----------------
    seq_config = ExperimentConfig(matrix=matrix, n_nodes=n_nodes, rtol=rtol,
                                  max_iterations=max_iterations,
                                  jitter_rel_std=0.0, n_rhs=1)
    seq_results = []
    t_seq = 0.0
    seq_redundancy_msgs = 0
    seq_recovery_time = 0.0
    for j in range(k):
        problem_j = _fresh_problem(matrix, n_nodes)
        problem_j.resolve_preconditioner(spec_block.preconditioner)
        rhs_j = DistributedVector.from_global(
            problem_j.cluster, problem_j.partition, "b", rhs_global[:, j])
        spec_j = seq_config.solve_spec(phi=phi, failures=failures)
        start = time.perf_counter()
        result_j = solve(problem_j, rhs_j, spec=spec_j)
        t_seq += time.perf_counter() - start
        seq_results.append(result_j)
        seq_redundancy_msgs += problem_j.cluster.ledger.messages.get(
            Phase.REDUNDANCY_COMM, 0)
        seq_recovery_time += result_j.simulated_recovery_time

    # -- contracts -----------------------------------------------------------
    histories_identical = all(
        block_result.residual_histories[j] == seq_results[j].residual_norms
        for j in range(k)
    )
    iterates_identical = all(
        np.array_equal(block_result.x[:, j], seq_results[j].x)
        for j in range(k)
    )
    recovered = (block_result.n_failures_recovered == phi
                 and all(r.n_failures_recovered == phi for r in seq_results))
    seq_sim_time = float(sum(r.simulated_time for r in seq_results))

    return {
        "matrix_id": matrix_id,
        "n": int(n_actual),
        "nnz": int(matrix.nnz),
        "n_nodes": int(n_nodes),
        "k": int(k),
        "phi": int(phi),
        "fail_at": int(fail_at),
        "failed_ranks": failed_ranks,
        "rtol": rtol,
        "iterations": list(block_result.iterations),
        "all_converged": bool(block_result.all_converged),
        "recovered_all_failures": bool(recovered),
        "histories_identical": bool(histories_identical),
        "iterates_identical": bool(iterates_identical),
        # redundancy charge model: messages flat in k, volume scales
        "redundancy_msgs_block": int(block_redundancy_msgs),
        "redundancy_msgs_sequential": int(seq_redundancy_msgs),
        "redundancy_elements_block": int(block_redundancy_elems),
        # recovery amortization
        "recovery_sim_time_block": block_result.simulated_recovery_time,
        "recovery_sim_time_sequential": seq_recovery_time,
        "recovery_sim_speedup": (
            seq_recovery_time / block_result.simulated_recovery_time
            if block_result.simulated_recovery_time else 1.0),
        # end-to-end
        "sim_time_block": block_result.simulated_time,
        "sim_time_sequential": seq_sim_time,
        "sim_speedup": (seq_sim_time / block_result.simulated_time
                        if block_result.simulated_time else 1.0),
        "wallclock_block_s": t_block,
        "wallclock_sequential_s": t_seq,
        "wallclock_speedup": (t_seq / t_block if t_block else 1.0),
    }


def run_sweep(matrix_id: str, n: int, n_nodes: int, ks: List[int], phi: int,
              rtol: float, max_iterations: int) -> Dict[str, object]:
    rows = []
    for k in ks:
        row = run_case(matrix_id, n, n_nodes, k, phi, rtol, max_iterations)
        rows.append(row)
        print(
            f"  {row['matrix_id']:>3}  n={row['n']:>7,}  N={row['n_nodes']:>3}  "
            f"k={row['k']:>2}  phi={row['phi']}  "
            f"recovery_sim={row['recovery_sim_speedup']:>5.2f}x  "
            f"sim={row['sim_speedup']:>5.2f}x  "
            f"wall={row['wallclock_speedup']:>5.2f}x  "
            f"identical={row['histories_identical'] and row['iterates_identical']}"
        )
    return {
        "matrix_id": matrix_id,
        "target_n": n,
        "n_nodes": n_nodes,
        "ks": ks,
        "phi": phi,
        "rtol": rtol,
        "headline": _headline(rows),
        "rows": rows,
    }


def _headline(rows: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The largest measured column count (the amortization showcase)."""
    if not rows:
        return None
    best = max(rows, key=lambda r: int(r["k"]))
    return {
        "matrix_id": best["matrix_id"],
        "n_nodes": best["n_nodes"],
        "k": best["k"],
        "phi": best["phi"],
        "recovery_sim_speedup": best["recovery_sim_speedup"],
        "sim_speedup": best["sim_speedup"],
        "wallclock_speedup": best["wallclock_speedup"],
        "histories_identical": best["histories_identical"],
        "iterates_identical": best["iterates_identical"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (small size, M3 only)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless the headline wallclock "
                             "speedup is >= X and the equivalence contract "
                             "holds")
    args = parser.parse_args(argv)

    if args.smoke:
        matrix_id = LARGEST_MATRIX_ID
        n = 1500
        n_nodes = 8
        ks = [1, 4]
        phi = 2
        rtol = 1e-6
        max_iterations = 300
    else:
        matrix_id = LARGEST_MATRIX_ID
        n = int(os.environ.get("REPRO_BENCH_RBPCG_N", 6000))
        n_nodes = int(os.environ.get("REPRO_BENCH_RBPCG_NODES", 16))
        ks = [int(v) for v in
              os.environ.get("REPRO_BENCH_RBPCG_KS", "1,4,8").split(",")]
        phi = int(os.environ.get("REPRO_BENCH_RBPCG_PHI", 2))
        rtol = 1e-8
        max_iterations = 2000

    print(f"Resilient block-PCG benchmark: matrix={matrix_id} n~{n} "
          f"N={n_nodes} ks={ks} phi={phi} rtol={rtol}")
    results = run_sweep(matrix_id, n, n_nodes, ks, phi, rtol, max_iterations)

    headline = results["headline"]
    if headline is not None:
        print(
            f"headline: {headline['matrix_id']} at N={headline['n_nodes']}, "
            f"k={headline['k']}, phi={headline['phi']}: recovery "
            f"{headline['recovery_sim_speedup']:.2f}x, simulated "
            f"{headline['sim_speedup']:.2f}x, wallclock "
            f"{headline['wallclock_speedup']:.2f}x vs k sequential "
            f"resilient solves"
        )

    ok = all(
        r["histories_identical"] and r["iterates_identical"]
        and r["all_converged"] and r["recovered_all_failures"]
        # redundancy message count per iteration is independent of k, so a
        # block run never ships more redundancy messages than one
        # single-vector run of the same length charges.
        and (r["k"] == 1
             or r["redundancy_msgs_block"] <= r["redundancy_msgs_sequential"])
        for r in results["rows"]
    )
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    if not ok:
        print("ERROR: resilient block-PCG equivalence/amortization contract "
              "violated", file=sys.stderr)
        return 1
    if args.require_speedup is not None:
        if headline is None or \
                headline["wallclock_speedup"] < args.require_speedup:
            print(
                f"ERROR: headline wallclock speedup below required "
                f"{args.require_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
