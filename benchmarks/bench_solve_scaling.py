"""Benchmark: host and simulated cost of one resilient solve across node counts.

Solves ``poisson_2d(64)`` (n = 4096) with the end-to-end benchmark's
resilient spec -- ``resilient_pcg``, block-Jacobi, ``phi = 3``, rtol 1e-8,
failure-free -- through ``repro.solve`` on 8, 32, 128 and 256 virtual nodes.
Per node count it reports

* the iteration count;
* host milliseconds per iteration: the median over 7 timed solves of one
  reused problem, after a warm-up solve that fills the SpMV-engine and
  preconditioner caches, with the BLAS thread pools pinned to one thread;
* simulated seconds per iteration, per cost-model phase (the ledger charges
  of one solve over its iterations; deterministic).

Each row also gives its host ms per iteration over the smallest node
count's (``host_ratio``; 128 over 8 nodes is the "flat per-iteration host
cost" measure): a simulator whose per-iteration host work does not grow
with the number of ranks scores 1 everywhere.

Usage::

    python benchmarks/bench_solve_scaling.py                  # full sweep
    python benchmarks/bench_solve_scaling.py --smoke          # CI smoke
    python benchmarks/bench_solve_scaling.py --json out.json
"""

from __future__ import annotations

import os

# Pin the BLAS thread pools before NumPy loads them: per-rank kernels are
# tiny, and extra threads only add noise to the host timings.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - uninstalled checkout
        sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.matrices import poisson_2d  # noqa: E402

#: The end-to-end benchmark's resilient spec (its ``scale-n*`` workloads).
SPEC = repro.SolveSpec(solver="resilient_pcg", rtol=1e-8,
                       preconditioner="block_jacobi",
                       resilience=repro.ResilienceSpec(phi=3))
#: Timed solves per node count (after one warm-up solve).
REPEATS = 7


def run_case(side: int, n_nodes: int, repeats: int) -> Dict[str, object]:
    """One node count: a warm-up solve, then *repeats* timed solves."""
    matrix = poisson_2d(side)
    problem = repro.distribute_problem(matrix, n_nodes=n_nodes)
    rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
    result = repro.solve(problem, rhs, spec=SPEC)
    per_iteration_ms: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = repro.solve(problem, rhs, spec=SPEC)
        elapsed = time.perf_counter() - start
        per_iteration_ms.append(1e3 * elapsed / result.iterations)
    iterations = int(result.iterations)
    return {
        "n_nodes": n_nodes,
        "iterations": iterations,
        "converged": bool(result.converged),
        "host_ms_per_iteration": float(np.median(per_iteration_ms)),
        "host_ms_per_iteration_samples": [round(v, 4)
                                          for v in per_iteration_ms],
        "sim_s_per_iteration": {
            phase: seconds / iterations
            for phase, seconds in sorted(result.time_breakdown.items())
            if seconds
        },
    }


def run_sweep(side: int, node_counts: List[int],
              repeats: int) -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    for n_nodes in node_counts:
        row = run_case(side, n_nodes, repeats)
        base = rows[0] if rows else row
        row["host_ratio"] = (row["host_ms_per_iteration"]
                             / base["host_ms_per_iteration"])
        rows.append(row)
        phases = "  ".join(f"{phase}={seconds:.3e}" for phase, seconds
                           in row["sim_s_per_iteration"].items())
        print(f"  N={n_nodes:>4}  iterations={row['iterations']:>4}  "
              f"host={row['host_ms_per_iteration']:7.3f} ms/it "
              f"({row['host_ratio']:.2f}x)  sim/it: {phases}")
    return {
        "matrix": f"poisson_2d({side})",
        "n": side * side,
        "spec": SPEC.to_dict(),
        "repeats": repeats,
        "rows": rows,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (poisson_2d(16) on "
                             "4/8/16 nodes, 3 timed solves)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    args = parser.parse_args(argv)

    if args.smoke:
        side, node_counts, repeats = 16, [4, 8, 16], 3
    else:
        side, node_counts, repeats = 64, [8, 32, 128, 256], REPEATS
    print(f"Solve-scaling benchmark: poisson_2d({side}) N={node_counts} "
          f"phi=3 block_jacobi, median of {repeats} solves")
    results = run_sweep(side, node_counts, repeats)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    return 0 if all(row["converged"] for row in results["rows"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
