"""End-to-end benchmark of the ESR-resilient PCG reproduction.

Runs each workload in a fresh process (``workloads.py``) with the BLAS
thread pools pinned to one thread and ``REPRO_SANITIZE`` unset, prints every
metric as ``workload metric value unit``, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of the traced
run, whose spans go to ``bench-results/trace-<workload>-s<seed>.jsonl``.
The exit code is 0 only when every output passed its check.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload scale-n8 --seed 0 --seconds 20
    python3 benchmarks/e2e/run.py --seed 0 --json out.json    # all workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace 1          # traced run
    python3 benchmarks/e2e/run.py --smoke --seconds 0         # tiny sizes
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("scale-n128", "scale-n8", "recover-m3", "service-open")
#: A workload process that runs longer than this is killed.
CHILD_TIMEOUT_S = 170.0


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_SANITIZE", None)
    path = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload process and return the record it printed."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # Also reached on SIGTERM (see main): never leave the child behind.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if out is None:
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: workload process exited with "
                           f"code {proc.returncode}")
    return json.loads(lines[-1])


def describe(record: Dict[str, Any], units: Dict[str, str]) -> List[str]:
    name = record["workload"]
    lines = [f"{name} {metric} {value:.6g} {units[metric]}"
             for metric, value in record["metrics"].items()]
    lines.append(f"{name} {record['samples']} timed operations")
    if "trace_file" in record:
        lines.append(f"{name} {record['spans']} spans written to "
                     f"{record['trace_file']}")
    lines.append(f"{name} checks {record['attempted'] - record['failed']}/"
                 f"{record['attempted']} passed, max relative residual "
                 f"{record['rel_residual_max']:.2e}")
    lines += [f"{name} FAILED {err}" for err in record["errors"]]
    return lines


def summary(records: Sequence[Dict[str, Any]],
            units: Dict[str, str]) -> Dict[str, Any]:
    """The final JSON line; metric names get a ``workload/`` prefix when
    more than one workload ran."""
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for metric, value in record["metrics"].items():
            key = f"{record['workload']}/{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": units[metric]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes (for tests)")
    parser.add_argument("--json", default=None,
                        help="write every workload's full record here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no library sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args)
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 3
        print("\n".join(describe(record, units)), flush=True)
        records.append(record)

    if args.json:
        env = {"git_revision": git_revision(), "nproc": os.cpu_count(),
               "platform": platform.platform(), **records[0]["versions"]}
        Path(args.json).write_text(json.dumps(
            {"env": env, "runs": records}, indent=1) + "\n")
    result = summary(records, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
