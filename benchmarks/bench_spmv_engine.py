"""Wallclock benchmark: local-view SpMV engine vs. dense-gather baseline.

For every configured (matrix, node count) pair this times ``distributed_spmv``
(the cached :class:`~repro.distributed.spmv_engine.SpmvEngine`) against
:func:`dense_gather_spmv`, this benchmark's baseline: each call gathers the
whole operand, multiplies every rank's ``(n_i, n)`` row block against it and
recomputes the halo and compute charges with ``halo_exchange_cost`` and
``spmv_compute_cost``.  The two run on twin virtual clusters, and the bench
verifies their equivalence contract:

* **bit-identical simulated-time charges** -- the per-phase ledger times,
  message and element counters of the two runs must compare equal with
  ``==`` (the cost model is unchanged by the engine);
* **numeric deviation** -- the max-abs difference of the results (the engine
  preserves the CSR stored-entry order, so this is expected to be ``0.0``,
  far below the ``1e-12`` acceptance bound).

The headline number is the speedup on the largest suite matrix (M3 /
G3_circuit by original size) at the largest configured node count.

Usage::

    python benchmarks/bench_spmv_engine.py                  # full sweep
    python benchmarks/bench_spmv_engine.py --smoke          # CI smoke run
    python benchmarks/bench_spmv_engine.py --json out.json  # machine-readable

Environment knobs (full mode): ``REPRO_BENCH_SPMV_N`` (matrix size, default
16000), ``REPRO_BENCH_SPMV_REPS`` (timed calls per measurement, default 20).
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

from repro.cluster import MachineModel, Phase, VirtualCluster  # noqa: E402
from repro.distributed import (  # noqa: E402
    BlockRowPartition,
    DistributedMatrix,
    DistributedVector,
    distributed_spmv,
    halo_exchange_cost,
    spmv_compute_cost,
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


def dense_gather_spmv(matrix, x, out) -> None:
    """The baseline ``out = matrix @ x``, with the engine's charges.

    Books the halo exchange priced from the matrix's plan, multiplies each
    rank's row block by a freshly assembled global operand, then books the
    local products -- the per-call work the engine does once and caches.
    """
    ledger = matrix.cluster.ledger
    halo_time, n_msg, n_elem = halo_exchange_cost(
        matrix.context, matrix.cluster.topology, ledger.model)
    ledger.add_time(Phase.HALO_COMM, halo_time)
    ledger.add_traffic(Phase.HALO_COMM, n_msg, n_elem)
    xs, ys = x.as_multivector(), out.as_multivector()
    partition = matrix.partition
    x_global = np.empty((partition.n, 1))
    for rank in range(partition.n_parts):
        start, stop = partition.range_of(rank)
        x_global[start:stop] = xs.get_block(rank)
    for rank in range(partition.n_parts):
        ys.set_block(rank, matrix.row_block(rank) @ x_global)
    ledger.add_time(Phase.SPMV_COMPUTE,
                    spmv_compute_cost(matrix, ledger.model))


def run_case(matrix_id: str, n: int, n_nodes: int, reps: int,
             seed: int = 0) -> Dict[str, object]:
    """Benchmark one (matrix, node count) configuration on twin clusters."""
    matrix = build_matrix(matrix_id, n=n, seed=seed)
    n_actual = matrix.shape[0]
    partition = BlockRowPartition(n_actual, n_nodes)
    values = np.random.default_rng(seed).standard_normal(n_actual)

    sides = {}
    for label in ("engine", "reference"):
        cluster = VirtualCluster(n_nodes,
                                 machine=MachineModel(jitter_rel_std=0.0))
        dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
        x = DistributedVector.from_global(cluster, partition, "x", values)
        y = DistributedVector.zeros(cluster, partition, "y")
        sides[label] = (cluster, dist, x, y)

    def engine_call():
        cluster, dist, x, y = sides["engine"]
        distributed_spmv(dist, x, y)

    def reference_call():
        cluster, dist, x, y = sides["reference"]
        dense_gather_spmv(dist, x, y)

    t_engine = _timed_loop(engine_call, reps)
    t_reference = _timed_loop(reference_call, reps)

    led_engine = sides["engine"][0].ledger
    led_reference = sides["reference"][0].ledger
    # Both sides executed the same number of charged calls (warmup + timed),
    # so their ledgers must compare equal bit for bit.
    charges_identical = (
        led_engine.times == led_reference.times
        and led_engine.messages == led_reference.messages
        and led_engine.elements == led_reference.elements
    )
    deviation = float(np.max(np.abs(
        sides["engine"][3].to_global() - sides["reference"][3].to_global()
    )))

    return {
        "matrix_id": matrix_id,
        "n": int(n_actual),
        "nnz": int(matrix.nnz),
        "n_nodes": int(n_nodes),
        "scatter_messages": int(sides["engine"][1].context.total_messages()),
        "scatter_elements": int(
            sides["engine"][1].context.total_exchanged_elements()),
        "engine_us_per_call": t_engine * 1e6,
        "reference_us_per_call": t_reference * 1e6,
        "speedup": t_reference / t_engine,
        "charges_bit_identical": bool(charges_identical),
        "max_abs_deviation": deviation,
    }


def run_sweep(matrices: List[str], node_counts: List[int], n: int,
              reps: int) -> Dict[str, object]:
    rows = []
    for matrix_id in matrices:
        for n_nodes in node_counts:
            row = run_case(matrix_id, n, n_nodes, reps)
            rows.append(row)
            print(
                f"  {row['matrix_id']:>3}  n={row['n']:>7,}  "
                f"N={row['n_nodes']:>3}  "
                f"reference={row['reference_us_per_call']:>9.1f} us  "
                f"engine={row['engine_us_per_call']:>9.1f} us  "
                f"speedup={row['speedup']:>6.2f}x  "
                f"dev={row['max_abs_deviation']:.2e}  "
                f"charges={'ok' if row['charges_bit_identical'] else 'DIFF'}"
            )
    headline = _headline(rows)
    return {
        "target_n": n,
        "reps": reps,
        "largest_matrix_id": LARGEST_MATRIX_ID,
        "headline": headline,
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
        "speedup": best["speedup"],
        "charges_bit_identical": best["charges_bit_identical"],
        "max_abs_deviation": best["max_abs_deviation"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (small sizes, M3 only)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero unless the headline speedup "
                             "(largest matrix, largest node count) is >= X "
                             "and the equivalence contract holds")
    args = parser.parse_args(argv)

    if args.smoke:
        matrices = [LARGEST_MATRIX_ID]
        node_counts = [8, 16]
        n = 4000
        reps = 10
    else:
        matrices = matrix_ids()
        node_counts = [8, 16, 32]
        n = int(os.environ.get("REPRO_BENCH_SPMV_N", 16000))
        reps = int(os.environ.get("REPRO_BENCH_SPMV_REPS", 20))

    print(f"SpMV engine benchmark: matrices={','.join(matrices)} "
          f"nodes={node_counts} n~{n} reps={reps}")
    results = run_sweep(matrices, node_counts, n, reps)

    headline = results["headline"]
    if headline is not None:
        print(
            f"headline: {headline['matrix_id']} at N={headline['n_nodes']}: "
            f"{headline['speedup']:.2f}x speedup, "
            f"deviation={headline['max_abs_deviation']:.2e}, charges "
            f"{'bit-identical' if headline['charges_bit_identical'] else 'DIFFER'}"
        )

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")

    ok = all(r["charges_bit_identical"] for r in results["rows"]) and \
        all(r["max_abs_deviation"] <= 1e-12 for r in results["rows"])
    if not ok:
        print("ERROR: equivalence contract violated", file=sys.stderr)
        return 1
    if args.require_speedup is not None:
        if headline is None:
            print("ERROR: no headline configuration was measured",
                  file=sys.stderr)
            return 1
        if headline["speedup"] < args.require_speedup:
            print(
                f"ERROR: headline speedup {headline['speedup']:.2f}x below "
                f"required {args.require_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
