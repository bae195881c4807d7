"""Benchmark: block-PCG multi-RHS solves and allreduce amortization.

For every configured column count ``k`` this compares, on the virtual
cluster, one block solve of ``A X = B`` against ``k`` sequential solves of
the same columns -- all dispatched through the ``repro.solve`` façade (a
2-D right-hand side selects :class:`~repro.core.block_pcg.BlockPCG`, a 1-D
one runs as its ``k = 1`` block):

* **Equivalence contract** -- per-column iterates and residual histories of
  the block solve must be bit-identical to the sequential solves (same
  execution path, lock-step recurrences with column freezing).
* **Allreduce amortization (simulated)** -- the block solve ships one
  ``k``-scalar allreduce per reduction, so its allreduce *message* count per
  iteration is independent of ``k`` while the sequential solves pay the full
  tree latency ``k`` times; the simulated allreduce time ratio approaches
  ``k`` in the latency-bound regime of Sec. 4.2.
* **Wallclock amortization** -- the block solve batches the SpMV, the block
  BLAS-1 and the preconditioner application over the columns (one NumPy
  kernel per rank instead of ``k``), so one block solve is faster than ``k``
  sequential solves end to end.
* **Reduction fusing** -- each case additionally runs with
  ``BlockSpec(fuse_reductions=True)`` (the trailing ``R^T Z`` / ``R^T R``
  pair shipped as one ``2k``-wide collective): iterates must stay
  bit-identical while the allreduce message count drops by ~1/3.

Usage::

    python benchmarks/bench_block_pcg.py                  # full sweep
    python benchmarks/bench_block_pcg.py --smoke          # CI smoke run
    python benchmarks/bench_block_pcg.py --json out.json  # machine-readable

Environment knobs (full mode): ``REPRO_BENCH_BPCG_N`` (matrix size, default
8000), ``REPRO_BENCH_BPCG_NODES`` (cluster size, default 16),
``REPRO_BENCH_BPCG_KS`` (comma-separated column counts, default "1,4,8").
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
from repro.core import BlockSpec, SolveSpec, distribute_problem, solve  # noqa: E402
from repro.distributed import (  # noqa: E402
    DistributedMultiVector,
    DistributedVector,
)
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


def run_case(matrix_id: str, n: int, n_nodes: int, k: int, rtol: float,
             max_iterations: int, seed: int = 0) -> Dict[str, object]:
    """Benchmark one (matrix, k) configuration: block vs. k sequential."""
    matrix = build_matrix(matrix_id, n=n, seed=seed)
    n_actual = matrix.shape[0]
    rng = np.random.default_rng(seed)
    rhs_global = rng.standard_normal((n_actual, k))
    spec = SolveSpec(preconditioner="block_jacobi", rtol=rtol,
                     max_iterations=max_iterations)

    # -- one block solve (the 2-D rhs dispatches to BlockPCG) ---------------
    # One-time setup -- preconditioner factorization (warmed into the
    # problem's cache) and RHS distribution -- stays outside the timed
    # region so the wallclock numbers compare solver time only.
    problem = _fresh_problem(matrix, n_nodes)
    problem.resolve_preconditioner(spec.preconditioner)
    rhs_block = DistributedMultiVector.from_global(
        problem.cluster, problem.partition, "B", rhs_global)
    start = time.perf_counter()
    block_result = solve(problem, rhs_block, spec=spec)
    t_block = time.perf_counter() - start
    ledger = problem.cluster.ledger
    block_allreduce_time = ledger.times.get(Phase.ALLREDUCE_COMM, 0.0)
    block_allreduce_msgs = ledger.messages.get(Phase.ALLREDUCE_COMM, 0)
    block_sim_time = block_result.simulated_time

    # -- the same block solve with fused trailing reductions ----------------
    problem = _fresh_problem(matrix, n_nodes)
    fused_result = solve(problem, rhs_global,
                         spec=spec.with_overrides(fuse_reductions=True))
    ledger = problem.cluster.ledger
    fused_allreduce_time = ledger.times.get(Phase.ALLREDUCE_COMM, 0.0)
    fused_allreduce_msgs = ledger.messages.get(Phase.ALLREDUCE_COMM, 0)

    # -- k sequential solves ------------------------------------------------
    problem = _fresh_problem(matrix, n_nodes)
    problem.resolve_preconditioner(spec.preconditioner)
    seq_rhs = [
        DistributedVector.from_global(problem.cluster, problem.partition,
                                      f"b{j}", rhs_global[:, j])
        for j in range(k)
    ]
    start = time.perf_counter()
    seq_results = [solve(problem, rhs_j, spec=spec) for rhs_j in seq_rhs]
    t_seq = time.perf_counter() - start
    ledger = problem.cluster.ledger
    seq_allreduce_time = ledger.times.get(Phase.ALLREDUCE_COMM, 0.0)
    seq_allreduce_msgs = ledger.messages.get(Phase.ALLREDUCE_COMM, 0)
    seq_sim_time = float(sum(r.simulated_time for r in seq_results))

    # -- equivalence contract ----------------------------------------------
    histories_identical = all(
        block_result.residual_histories[j] == seq_results[j].residual_norms
        for j in range(k)
    )
    iterates_identical = all(
        np.array_equal(block_result.x[:, j], seq_results[j].x)
        for j in range(k)
    )
    # Fusing must not change the numbers, only the collective count.
    fused_identical = (
        fused_result.residual_histories == block_result.residual_histories
        and np.array_equal(fused_result.x, block_result.x)
    )
    # Allreduce messages per reduction must not depend on k: each of the
    # solver's batched reductions is a single collective whatever the column
    # count.  The solver reports its actual reduction count (an all-columns
    # breakdown aborts an iteration after its first reduction, so deriving
    # the count from global_iterations alone would under-count).
    n_reductions = int(block_result.info["n_reductions"])
    n_reductions_fused = int(fused_result.info["n_reductions"])
    msgs_per_reduction = (block_allreduce_msgs / n_reductions
                          if n_reductions else 0.0)

    return {
        "matrix_id": matrix_id,
        "n": int(n_actual),
        "nnz": int(matrix.nnz),
        "n_nodes": int(n_nodes),
        "k": int(k),
        "rtol": rtol,
        "iterations": list(block_result.iterations),
        "all_converged": bool(block_result.all_converged),
        "histories_identical": bool(histories_identical),
        "iterates_identical": bool(iterates_identical),
        "allreduce_msgs_block": int(block_allreduce_msgs),
        "allreduce_msgs_sequential": int(seq_allreduce_msgs),
        "allreduce_msgs_per_reduction": msgs_per_reduction,
        "allreduce_sim_time_block": block_allreduce_time,
        "allreduce_sim_time_sequential": seq_allreduce_time,
        "allreduce_sim_speedup": (seq_allreduce_time / block_allreduce_time
                                  if block_allreduce_time else 1.0),
        "sim_time_block": block_sim_time,
        "sim_time_sequential": seq_sim_time,
        "sim_speedup": (seq_sim_time / block_sim_time
                        if block_sim_time else 1.0),
        "wallclock_block_s": t_block,
        "wallclock_sequential_s": t_seq,
        "wallclock_speedup": (t_seq / t_block if t_block else 1.0),
        # fused-reduction mode (BlockSpec(fuse_reductions=True))
        "fused_identical": bool(fused_identical),
        "n_reductions": n_reductions,
        "n_reductions_fused": n_reductions_fused,
        "allreduce_msgs_fused": int(fused_allreduce_msgs),
        "allreduce_sim_time_fused": fused_allreduce_time,
        "sim_time_fused": fused_result.simulated_time,
        "fused_allreduce_msg_ratio": (fused_allreduce_msgs
                                      / block_allreduce_msgs
                                      if block_allreduce_msgs else 1.0),
    }


def run_sweep(matrix_id: str, n: int, n_nodes: int, ks: List[int],
              rtol: float, max_iterations: int) -> Dict[str, object]:
    rows = []
    for k in ks:
        row = run_case(matrix_id, n, n_nodes, k, rtol, max_iterations)
        rows.append(row)
        print(
            f"  {row['matrix_id']:>3}  n={row['n']:>7,}  N={row['n_nodes']:>3}  "
            f"k={row['k']:>2}  "
            f"allreduce_sim={row['allreduce_sim_speedup']:>5.2f}x  "
            f"sim={row['sim_speedup']:>5.2f}x  "
            f"wall={row['wallclock_speedup']:>5.2f}x  "
            f"fused_msgs={row['fused_allreduce_msg_ratio']:>5.2f}x  "
            f"identical={row['histories_identical'] and row['iterates_identical'] and row['fused_identical']}"
        )
    return {
        "matrix_id": matrix_id,
        "target_n": n,
        "n_nodes": n_nodes,
        "ks": ks,
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
        "allreduce_sim_speedup": best["allreduce_sim_speedup"],
        "sim_speedup": best["sim_speedup"],
        "wallclock_speedup": best["wallclock_speedup"],
        "histories_identical": best["histories_identical"],
        "iterates_identical": best["iterates_identical"],
        "fused_identical": best["fused_identical"],
        "fused_allreduce_msg_ratio": best["fused_allreduce_msg_ratio"],
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
        n = 2000
        n_nodes = 8
        ks = [1, 4, 8]
        rtol = 1e-6
        max_iterations = 300
    else:
        matrix_id = LARGEST_MATRIX_ID
        n = int(os.environ.get("REPRO_BENCH_BPCG_N", 8000))
        n_nodes = int(os.environ.get("REPRO_BENCH_BPCG_NODES", 16))
        ks = [int(v) for v in
              os.environ.get("REPRO_BENCH_BPCG_KS", "1,4,8").split(",")]
        rtol = 1e-8
        max_iterations = 2000

    print(f"Block-PCG benchmark: matrix={matrix_id} n~{n} N={n_nodes} "
          f"ks={ks} rtol={rtol}")
    results = run_sweep(matrix_id, n, n_nodes, ks, rtol, max_iterations)

    headline = results["headline"]
    if headline is not None:
        print(
            f"headline: {headline['matrix_id']} at N={headline['n_nodes']}, "
            f"k={headline['k']}: allreduce "
            f"{headline['allreduce_sim_speedup']:.2f}x, simulated "
            f"{headline['sim_speedup']:.2f}x, wallclock "
            f"{headline['wallclock_speedup']:.2f}x vs sequential; fused "
            f"reductions ship {headline['fused_allreduce_msg_ratio']:.2f}x "
            f"the allreduce messages"
        )

    ok = all(
        r["histories_identical"] and r["iterates_identical"]
        and r["fused_identical"]
        and r["allreduce_msgs_per_reduction"]
        == results["rows"][0]["allreduce_msgs_per_reduction"]
        and r["allreduce_msgs_fused"] < r["allreduce_msgs_block"]
        for r in results["rows"]
    )
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    if not ok:
        print("ERROR: block-PCG equivalence/amortization contract violated",
              file=sys.stderr)
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
