"""Benchmark: split-phase comm/compute overlap and batched multi-RHS SpMV.

For every configured (matrix, node count) pair this measures, on the virtual
cluster:

* **Simulated overlap gain** -- the overlap-aware per-SpMV charge
  ``max_i(max(halo_i, diag_i) + offdiag_i)`` vs. the serialized
  ``halo + compute`` charge, together with the fraction of the halo time
  hidden by the diagonal compute.  The overlapped charge must never exceed
  the serialized one (and is strictly smaller whenever every rank has halo
  traffic and diagonal work, i.e. on every connected suite matrix).
* **Numeric deviation of split execution** -- the split-phase kernels round
  like PETSc's overlapped ``MatMult`` (diagonal terms before off-diagonal
  terms per row), so the max-abs deviation from the fused serialized kernel
  (``overlap=False``) must stay within a few ulps (``1e-12`` acceptance
  bound).
* **Multi-RHS amortization (wallclock)** -- one ``distributed_spmv`` call
  on a ``k``-column block vs. ``k`` sequential single-vector calls; the
  batched call stages one ghost gather for all columns and runs one CSR x
  dense-block kernel per rank, and its per-column results are bit-identical
  to the single calls.

Usage::

    python benchmarks/bench_spmv_overlap.py                  # full sweep
    python benchmarks/bench_spmv_overlap.py --smoke          # CI smoke run
    python benchmarks/bench_spmv_overlap.py --json out.json  # machine-readable

Environment knobs (full mode): ``REPRO_BENCH_SPMV_N`` (matrix size, default
16000), ``REPRO_BENCH_SPMV_REPS`` (timed calls per measurement, default 20),
``REPRO_BENCH_SPMV_K`` (multi-RHS column count, default 8).
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

from repro.cluster import MachineModel, VirtualCluster  # noqa: E402
from repro.distributed import (  # noqa: E402
    BlockRowPartition,
    DistributedMatrix,
    DistributedMultiVector,
    DistributedVector,
    distributed_spmv,
)
from repro.matrices import build_matrix  # noqa: E402
from repro.matrices.suite import get_record, matrix_ids  # noqa: E402

#: The matrix with the largest original problem size (Table 1): M3/G3_circuit.
LARGEST_MATRIX_ID = max(
    matrix_ids(), key=lambda mid: get_record(mid).original_n
)


def _timed_loop(fn, reps: int, repeats: int = 3) -> float:
    """Median over *repeats* of the mean per-call wallclock of *reps* calls."""
    fn()  # warmup: builds/caches the engine, touches all buffers
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return float(np.median(samples))


def run_case(matrix_id: str, n: int, n_nodes: int, reps: int, k: int,
             seed: int = 0) -> Dict[str, object]:
    """Benchmark one (matrix, node count) configuration."""
    matrix = build_matrix(matrix_id, n=n, seed=seed)
    n_actual = matrix.shape[0]
    partition = BlockRowPartition(n_actual, n_nodes)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_actual)
    block_values = rng.standard_normal((n_actual, k))

    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    engine = dist.spmv_engine()

    # -- simulated overlap gain (static charges, no timing loop needed) ----
    charge = engine.overlap_charge()
    halo_serial = engine.halo_cost[0]
    serialized = halo_serial + engine.compute_cost
    sim_speedup = serialized / charge.total_time if charge.total_time else 1.0

    # -- numeric deviation of split execution vs. the fused kernel ---------
    x = DistributedVector.from_global(cluster, partition, "x", values)
    y_split = DistributedVector.zeros(cluster, partition, "ys")
    y_ref = DistributedVector.zeros(cluster, partition, "yr")
    distributed_spmv(dist, x, y_split, charge=False, overlap=True)
    distributed_spmv(dist, x, y_ref, charge=False)
    scale = max(float(np.max(np.abs(y_ref.to_global()))), 1.0)
    deviation = float(
        np.max(np.abs(y_split.to_global() - y_ref.to_global())) / scale
    )

    # -- multi-RHS amortization (wallclock) --------------------------------
    X = DistributedMultiVector.from_global(cluster, partition, "X",
                                           block_values)
    Y = DistributedMultiVector.zeros(cluster, partition, "Y", k)
    singles_x = [
        DistributedVector.from_global(cluster, partition, f"sx{j}",
                                      block_values[:, j])
        for j in range(k)
    ]
    singles_y = [
        DistributedVector.zeros(cluster, partition, f"sy{j}")
        for j in range(k)
    ]

    def batched_call():
        distributed_spmv(dist, X, Y)

    def sequential_calls():
        for xj, yj in zip(singles_x, singles_y):
            distributed_spmv(dist, xj, yj)

    t_batched = _timed_loop(batched_call, reps)
    t_sequential = _timed_loop(sequential_calls, reps)

    # Per-column equivalence of the batched path (bit-identical contract).
    batched_global = Y.to_global()
    columns_identical = all(
        np.array_equal(batched_global[:, j], singles_y[j].to_global())
        for j in range(k)
    )

    return {
        "matrix_id": matrix_id,
        "n": int(n_actual),
        "nnz": int(matrix.nnz),
        "n_nodes": int(n_nodes),
        "k": int(k),
        "halo_serialized_time": halo_serial,
        "spmv_serialized_time": serialized,
        "spmv_overlap_time": charge.total_time,
        "overlap_sim_speedup": sim_speedup,
        "hidden_halo_fraction": charge.hidden_halo_fraction,
        "exposed_comm_time": charge.exposed_comm_time,
        "overlap_time_drops": bool(charge.total_time < serialized),
        "split_rel_deviation": deviation,
        "multirhs_batched_us_per_call": t_batched * 1e6,
        "multirhs_sequential_us_per_call": t_sequential * 1e6,
        "multirhs_speedup": t_sequential / t_batched,
        "multirhs_columns_identical": bool(columns_identical),
    }


def run_sweep(matrices: List[str], node_counts: List[int], n: int,
              reps: int, k: int) -> Dict[str, object]:
    rows = []
    for matrix_id in matrices:
        for n_nodes in node_counts:
            row = run_case(matrix_id, n, n_nodes, reps, k)
            rows.append(row)
            print(
                f"  {row['matrix_id']:>3}  n={row['n']:>7,}  "
                f"N={row['n_nodes']:>3}  "
                f"sim_overlap={row['overlap_sim_speedup']:>5.2f}x  "
                f"hidden_halo={row['hidden_halo_fraction']:>6.1%}  "
                f"multirhs(k={row['k']})={row['multirhs_speedup']:>5.2f}x  "
                f"dev={row['split_rel_deviation']:.2e}"
            )
    return {
        "target_n": n,
        "reps": reps,
        "k": k,
        "largest_matrix_id": LARGEST_MATRIX_ID,
        "headline": _headline(rows),
        "rows": rows,
    }


def _headline(rows: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """Largest suite matrix at the largest node count >= 8 (if measured)."""
    candidates = [
        r for r in rows
        if r["matrix_id"] == LARGEST_MATRIX_ID and int(r["n_nodes"]) >= 8
    ]
    if not candidates:
        return None
    best = max(candidates, key=lambda r: int(r["n_nodes"]))
    return {
        "matrix_id": best["matrix_id"],
        "n_nodes": best["n_nodes"],
        "overlap_sim_speedup": best["overlap_sim_speedup"],
        "hidden_halo_fraction": best["hidden_halo_fraction"],
        "overlap_time_drops": best["overlap_time_drops"],
        "multirhs_speedup": best["multirhs_speedup"],
        "multirhs_columns_identical": best["multirhs_columns_identical"],
        "split_rel_deviation": best["split_rel_deviation"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (small sizes, M3 only)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--require-multirhs-speedup", type=float,
                        default=None, metavar="X",
                        help="exit non-zero unless the headline multi-RHS "
                             "speedup is >= X and the equivalence contract "
                             "holds")
    args = parser.parse_args(argv)

    if args.smoke:
        matrices = [LARGEST_MATRIX_ID]
        node_counts = [8, 16]
        n = 4000
        reps = 10
        k = 8
    else:
        matrices = matrix_ids()
        node_counts = [8, 16, 32]
        n = int(os.environ.get("REPRO_BENCH_SPMV_N", 16000))
        reps = int(os.environ.get("REPRO_BENCH_SPMV_REPS", 20))
        k = int(os.environ.get("REPRO_BENCH_SPMV_K", 8))

    print(f"SpMV overlap benchmark: matrices={','.join(matrices)} "
          f"nodes={node_counts} n~{n} reps={reps} k={k}")
    results = run_sweep(matrices, node_counts, n, reps, k)

    headline = results["headline"]
    if headline is not None:
        print(
            f"headline: {headline['matrix_id']} at N={headline['n_nodes']}: "
            f"simulated overlap {headline['overlap_sim_speedup']:.2f}x "
            f"({headline['hidden_halo_fraction']:.1%} of halo hidden), "
            f"multi-RHS {headline['multirhs_speedup']:.2f}x, "
            f"deviation={headline['split_rel_deviation']:.2e}"
        )

    ok = (
        all(r["overlap_time_drops"] for r in results["rows"])
        and all(r["multirhs_columns_identical"] for r in results["rows"])
        and all(r["split_rel_deviation"] <= 1e-12 for r in results["rows"])
    )
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    if not ok:
        print("ERROR: overlap/multi-RHS contract violated", file=sys.stderr)
        return 1
    if args.require_multirhs_speedup is not None:
        if headline is None:
            print("ERROR: no headline configuration was measured",
                  file=sys.stderr)
            return 1
        if headline["multirhs_speedup"] < args.require_multirhs_speedup:
            print(
                f"ERROR: headline multi-RHS speedup "
                f"{headline['multirhs_speedup']:.2f}x below required "
                f"{args.require_multirhs_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
