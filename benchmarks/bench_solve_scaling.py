"""Benchmark: host and simulated cost of one resilient solve across node counts.

Solves ``poisson_2d(64)`` (n = 4096) with the end-to-end benchmark's
resilient spec -- ``resilient_pcg``, block-Jacobi, ``phi = 3``, rtol 1e-8,
failure-free -- through ``repro.solve`` on 8, 32, 128 and 256 virtual nodes,
first for one right-hand side, then for a block of ``k = 8`` right-hand
sides (the same spec on an ``(n, 8)`` array: the ``k > 1`` paths of the
kernels).  Per row (``n_rhs``, node count) it reports

* the iteration count (lock-step iterations of a block solve);
* host milliseconds per iteration: the median over 7 timed solves of one
  reused problem, after a warm-up solve that fills the SpMV-engine and
  preconditioner caches, with the BLAS thread pools pinned to one thread;
* simulated seconds per iteration, per cost-model phase (the ledger charges
  of one solve over its iterations; deterministic).

Each row also gives its host ms per iteration over that of the smallest
node count with the same ``n_rhs`` (``host_ratio``; 128 over 8 nodes is the
"flat per-iteration host cost" measure): a simulator whose per-iteration
host work does not grow with the number of ranks scores 1 everywhere.

The full sweep then adds the weak-scaling rows (JSON key ``"weak"``): the
same spec on ``poisson_2d(128)`` (n = 16384, 16 rows per rank at the top)
on 64, 256 and 1024 nodes, one right-hand side; their ``host_ratio`` is
over the 64-node row.  ``--smoke`` skips them.

Last come the recovered rows (JSON key ``"recovered"``), the shape of the
end-to-end benchmark's ``recover-m3`` workload: ``build_matrix("M3",
n=8000)`` with the same spec and four episodes of 3 simultaneous failures,
at iterations 10, 20, 30 and 40, on ranks drawn from a fixed seed, on 8, 32
and 128 nodes.  Each timed solve gets a fresh problem and an untimed
failure-free solve first, so it is a problem's second resilient solve.  Per
node count they report the median over the timed solves of the host
milliseconds per failing solve and per recovery episode (the
reconstruction's own host time, ``RecoveryReport.wallclock_time``), and
the simulated recovery seconds of one solve (deterministic).  ``--smoke``
runs one tiny case (n = 600 on 4 and 8 nodes, two episodes).

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
from repro.matrices import build_matrix, poisson_2d  # noqa: E402

#: The end-to-end benchmark's resilient spec (its ``scale-n*`` workloads),
#: for one right-hand side and for a block alike.
SPEC = repro.SolveSpec(solver="resilient_pcg", rtol=1e-8,
                       preconditioner="block_jacobi",
                       resilience=repro.ResilienceSpec(phi=3))
#: Right-hand sides per solve: one vector, then one block.
N_RHS = (1, 8)
#: Timed solves per node count (after one warm-up solve).
REPEATS = 7
#: Full sweep only: the weak-scaling rows' grid side and node counts (k = 1).
WEAK_SIDE = 128
WEAK_NODE_COUNTS = [64, 256, 1024]
#: The recovered rows: M3 size, node counts, failure iterations, the seed
#: of the failed ranks, and timed solves per node count (full; smoke).
RECOVER_N, RECOVER_NODE_COUNTS = 8000, [8, 32, 128]
RECOVER_FAIL_AT = (10, 20, 30, 40)
SMOKE_RECOVER_N, SMOKE_RECOVER_NODE_COUNTS = 600, [4, 8]
SMOKE_RECOVER_FAIL_AT = (3, 6)
RECOVER_SEED = 0
RECOVER_REPEATS, SMOKE_RECOVER_REPEATS = 5, 2


def run_case(side: int, n_nodes: int, repeats: int,
             n_rhs: int) -> Dict[str, object]:
    """One node count: a warm-up solve, then *repeats* timed solves."""
    matrix = poisson_2d(side)
    problem = repro.distribute_problem(matrix, n_nodes=n_nodes)
    rng = np.random.default_rng(0)
    shape = (matrix.shape[0],) if n_rhs == 1 else (matrix.shape[0], n_rhs)
    rhs = rng.standard_normal(shape)
    result = repro.solve(problem, rhs, spec=SPEC)
    iterations = int(result.iterations if n_rhs == 1
                     else result.global_iterations)
    per_iteration_ms: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        repro.solve(problem, rhs, spec=SPEC)
        elapsed = time.perf_counter() - start
        per_iteration_ms.append(1e3 * elapsed / iterations)
    return {
        "n_rhs": n_rhs,
        "n_nodes": n_nodes,
        "iterations": iterations,
        "converged": bool(result.converged if n_rhs == 1
                          else result.all_converged),
        "host_ms_per_iteration": float(np.median(per_iteration_ms)),
        "host_ms_per_iteration_samples": [round(v, 4)
                                          for v in per_iteration_ms],
        "sim_s_per_iteration": {
            phase: seconds / iterations
            for phase, seconds in sorted(result.time_breakdown.items())
            if seconds
        },
    }


def run_sweep(side: int, node_counts: List[int], repeats: int,
              n_rhs_counts=N_RHS) -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    for n_rhs in n_rhs_counts:
        base: Optional[Dict[str, object]] = None
        for n_nodes in node_counts:
            row = run_case(side, n_nodes, repeats, n_rhs)
            if base is None:
                base = row
            row["host_ratio"] = (row["host_ms_per_iteration"]
                                 / base["host_ms_per_iteration"])
            rows.append(row)
            phases = "  ".join(f"{phase}={seconds:.3e}" for phase, seconds
                               in row["sim_s_per_iteration"].items())
            print(f"  k={n_rhs}  N={n_nodes:>4}  "
                  f"iterations={row['iterations']:>4}  "
                  f"host={row['host_ms_per_iteration']:7.3f} ms/it "
                  f"({row['host_ratio']:.2f}x)  sim/it: {phases}")
    return {
        "matrix": f"poisson_2d({side})",
        "n": side * side,
        "spec": SPEC.to_dict(),
        "repeats": repeats,
        "rows": rows,
    }


def recover_failures(n_nodes: int, fail_at) -> tuple:
    """``phi`` simultaneous failures per iteration of *fail_at*, on ranks
    drawn from :data:`RECOVER_SEED`."""
    phi = SPEC.resilience.phi
    rng = np.random.default_rng(RECOVER_SEED)
    return tuple((iteration, tuple(sorted(int(r) for r in rng.choice(
        n_nodes, size=phi, replace=False)))) for iteration in fail_at)


def run_recover_case(matrix, n_nodes: int, fail_at,
                     repeats: int) -> Dict[str, object]:
    """One node count: *repeats* failing solves, each on a fresh problem
    right after an untimed failure-free solve."""
    failures = recover_failures(n_nodes, fail_at)
    fail_spec = SPEC.with_overrides(failures=failures)
    solve_ms: List[float] = []
    episode_ms: List[float] = []
    for _ in range(repeats):
        problem = repro.distribute_problem(matrix, n_nodes=n_nodes)
        reference = repro.solve(problem, spec=SPEC)
        start = time.perf_counter()
        result = repro.solve(problem, spec=fail_spec)
        solve_ms.append(1e3 * (time.perf_counter() - start))
        episodes = result.recoveries
        episode_ms.append(1e3 * sum(r.wallclock_time for r in episodes)
                          / max(len(episodes), 1))
    return {
        "n_nodes": n_nodes,
        "failures": [[iteration, list(ranks)] for iteration, ranks in failures],
        "episodes": len(episodes),
        "iterations": int(result.iterations),
        "converged": bool(result.converged
                          and result.iterations == reference.iterations),
        "host_ms_per_solve": float(np.median(solve_ms)),
        "host_ms_per_solve_samples": [round(v, 3) for v in solve_ms],
        "host_ms_per_episode": float(np.median(episode_ms)),
        "sim_recovery_s": float(result.simulated_recovery_time),
    }


def run_recover_sweep(n: int, node_counts: List[int], fail_at,
                      repeats: int) -> Dict[str, object]:
    matrix = build_matrix("M3", n=n)
    rows: List[Dict[str, object]] = []
    for n_nodes in node_counts:
        row = run_recover_case(matrix, n_nodes, fail_at, repeats)
        rows.append(row)
        print(f"  N={n_nodes:>4}  episodes={row['episodes']}  "
              f"iterations={row['iterations']:>4}  "
              f"host={row['host_ms_per_solve']:8.2f} ms/solve "
              f"{row['host_ms_per_episode']:7.2f} ms/episode  "
              f"sim recovery={row['sim_recovery_s']:.4e} s")
    return {
        "matrix": f"M3 (n={n})",
        "n": int(matrix.shape[0]),
        "fail_at": list(fail_at),
        "seed": RECOVER_SEED,
        "repeats": repeats,
        "rows": rows,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (poisson_2d(16) on "
                             "4/8/16 nodes, 3 timed solves; recovered rows "
                             "of M3 n=600 on 4/8 nodes, 2 timed solves)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    args = parser.parse_args(argv)

    if args.smoke:
        side, node_counts, repeats = 16, [4, 8, 16], 3
    else:
        side, node_counts, repeats = 64, [8, 32, 128, 256], REPEATS
    print(f"Solve-scaling benchmark: poisson_2d({side}) N={node_counts} "
          f"k={list(N_RHS)} phi=3 block_jacobi, median of {repeats} solves")
    results = run_sweep(side, node_counts, repeats)
    rows = list(results["rows"])
    if not args.smoke:
        print(f"Weak-scaling rows: poisson_2d({WEAK_SIDE}) "
              f"N={WEAK_NODE_COUNTS} k=1")
        results["weak"] = run_sweep(WEAK_SIDE, WEAK_NODE_COUNTS, repeats,
                                    n_rhs_counts=(1,))
        rows += results["weak"]["rows"]
    if args.smoke:
        n, node_counts, fail_at, repeats = (
            SMOKE_RECOVER_N, SMOKE_RECOVER_NODE_COUNTS, SMOKE_RECOVER_FAIL_AT,
            SMOKE_RECOVER_REPEATS)
    else:
        n, node_counts, fail_at, repeats = (
            RECOVER_N, RECOVER_NODE_COUNTS, RECOVER_FAIL_AT, RECOVER_REPEATS)
    print(f"Recovered rows: M3 n={n} N={node_counts} phi=3, 3 simultaneous "
          f"failures at iterations {list(fail_at)}, median of {repeats} "
          "solves, each after a failure-free solve of a fresh problem")
    results["recovered"] = run_recover_sweep(n, node_counts, fail_at,
                                             repeats)
    rows += results["recovered"]["rows"]
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    return 0 if all(row["converged"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
