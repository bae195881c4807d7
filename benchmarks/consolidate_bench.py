"""Consolidate individual benchmark JSON outputs into one tracking file.

The CI bench smoke job runs the SpMV, solver, reliability, service,
redundancy and scaling benchmarks (``bench_spmv_engine.py``,
``bench_spmv_overlap.py``, ``bench_block_pcg.py``,
``bench_resilient_block_pcg.py``, ``bench_reliability_campaign.py``,
``bench_solver_service.py``, ``bench_redundancy_schemes.py``,
``bench_solve_scaling.py``) with ``--json`` and merges their outputs into a
single ``BENCH_spmv.json`` at the repository root, so the performance
trajectory (engine speedup, overlap gain, multi-RHS amortization, block-PCG
allreduce amortization, resilient-block recovery amortization, campaign
survival probabilities per placement, service coalescing throughput,
redundancy-scheme storage/traffic frontier, per-iteration solve cost across
node counts) is tracked PR over PR from one artifact.

Usage::

    python benchmarks/consolidate_bench.py --out BENCH_spmv.json \\
        spmv_engine_bench.json spmv_overlap_bench.json \\
        block_pcg_bench.json resilient_block_pcg_bench.json

Each input file is stored under its stem (``spmv_engine_bench``, ...); the
top level carries the generation timestamp and, when available, the current
git revision.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional


def git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:  # pragma: no cover - no git binary
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def consolidate(inputs: List[Path], out_path: Path) -> dict:
    """Merge the readable inputs; missing/corrupt files are recorded, not
    fatal (CI runs this with ``if: always()`` so a crashed benchmark still
    yields a partial consolidated artifact)."""
    payload = {
        "generated_unix": int(time.time()),
        "git_revision": git_revision(),
        "benchmarks": {},
        "missing": [],
    }
    for path in inputs:
        try:
            payload["benchmarks"][path.stem] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            payload["missing"].append({"input": str(path), "error": str(exc)})
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", type=Path,
                        help="benchmark JSON files to merge")
    parser.add_argument("--out", type=Path, default=Path("BENCH_spmv.json"),
                        help="consolidated output path (default: "
                             "BENCH_spmv.json in the current directory)")
    args = parser.parse_args(argv)
    payload = consolidate(args.inputs, args.out)
    names = ", ".join(sorted(payload["benchmarks"])) or "no inputs readable"
    print(f"wrote {args.out} ({names})")
    for entry in payload["missing"]:
        print(f"warning: skipped {entry['input']}: {entry['error']}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
