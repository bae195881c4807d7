"""Compare benchmark results of a parent commit and a change.

Each argument file is a ``run.py --json`` output; list the files of each side
in the order the runs were made, so that the i-th parent file and the i-th
change file form a pair (alternate which side runs first).  For every
workload and end-to-end metric one row is printed with each side's median
and quartiles, the change in percent of the parent median, the pairs the
change won, and a verdict:

``gain``
    at least 10 pairs, the change wins at least 9 in 10 of them, and the
    medians differ by more than the parent's interquartile range;
``regression``
    the change's median is worse than the parent's by more than the
    metric's ``bound`` in ``BENCHMARK.json``;
``unresolved``
    the parent's own spread (interquartile range over median) is wider
    than the bound, and not every change run beats every parent run;
``ok``
    none of the above.

Quartiles are NumPy's (``np.percentile``, linear interpolation).  Per-layer
metrics of traced runs are listed without a verdict.

Within each side, runs of one workload and seed must carry the same
deterministic ``fingerprint`` (the iterations, simulated charges and message
counts of every sample), traced or not; a difference there means the runs
are not reproducible and fails the comparison.  A fingerprint that differs
between parent and change only says that the change moved the simulated
charges; the ``iterations`` and ``sim_s_per_op`` rows judge by how much.
The exit code is 1 when any row is a regression or a side disagrees with
itself.

Usage::

    python3 benchmarks/e2e/compare.py --parent p0.json p1.json ... \\
        --change c0.json c1.json ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(vals: Sequence[float]) -> Tuple[float, float, float]:
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    return float(q1), float(med), float(q3)


def verdict(parent: Sequence[float], change: Sequence[float], *,
            better: str, bound: float) -> Tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one metric on one workload."""
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    worse = (c_med - p_med) if lower else (p_med - c_med)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(c_med - p_med) > q3 - q1):
        return "gain", wins, len(pairs)
    if (q3 - q1) > bound * abs(p_med) and not all(
            beats(c, p) for c in change for p in parent):
        return "unresolved", wins, len(pairs)
    if worse > bound * abs(p_med):
        return "regression", wins, len(pairs)
    return "ok", wins, len(pairs)


def load_records(paths: Sequence[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        records += json.loads(Path(path).read_text())["runs"]
    return records


def values(records: Sequence[Dict[str, Any]], workload: str, metric: str,
           trace: int) -> List[float]:
    return [r["metrics"][metric] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def fingerprints(records: Sequence[Dict[str, Any]]
                 ) -> Dict[Tuple[str, int, bool], set]:
    """The fingerprints seen per (workload, seed, smoke)."""
    groups: Dict[Tuple[str, int, bool], set] = {}
    for r in records:
        key = (r["workload"], r["seed"], r["smoke"])
        groups.setdefault(key, set()).add(r["deterministic"]["fingerprint"])
    return groups


def fmt(vals: Sequence[float]) -> str:
    q1, med, q3 = quartiles(vals)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_records(args.parent), load_records(args.change)
    workloads = [w["name"] for w in spec["workloads"]]

    failed = False
    print(f"{'workload':<13} {'metric':<36} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'change':>8} {'wins':>6}  verdict")
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in workloads:
            for m in metrics:
                p = values(parent, workload, m["name"], trace)
                c = values(change, workload, m["name"], trace)
                if not p or not c:
                    continue
                p_med, c_med = quartiles(p)[1], quartiles(c)[1]
                delta = (f"{100.0 * (c_med - p_med) / abs(p_med):+.1f}%"
                         if p_med else "n/a")
                if trace:
                    outcome, wins = "(per-layer)", "-"
                else:
                    outcome, won, pairs = verdict(
                        p, c, better=m["better"], bound=m["bound"])
                    wins = f"{won}/{pairs}"
                    failed |= outcome == "regression"
                print(f"{workload:<13} {m['name']:<36} {fmt(p):<32} "
                      f"{fmt(c):<32} {delta:>8} {wins:>6}  {outcome}")
    sides = {"parent": fingerprints(parent), "change": fingerprints(change)}
    for side, groups in sides.items():
        for (w, s, _), fps in sorted(groups.items()):
            if len(fps) > 1:
                failed = True
                print(f"{w} seed {s}: {side} runs disagree on the simulated "
                      f"charges ({', '.join(sorted(fps))})")
    for key, fps in sorted(sides["parent"].items()):
        other = sides["change"].get(key)
        if other is not None and other != fps:
            print(f"{key[0]} seed {key[1]}: simulated charges changed "
                  f"({', '.join(sorted(fps))} -> {', '.join(sorted(other))})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
