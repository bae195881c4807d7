"""Monte-Carlo reliability benchmark: placement strategies under rack bursts.

For each backup-placement strategy this fans a pinned-seed campaign of
stochastic failure traces (independent node lifetimes + correlated
rack-level bursts, the :mod:`repro.failures.traces` generator) across a
process pool and compares the aggregated reliability statistics:

* **survival / unrecoverable-loss probability** -- the headline: at equal
  storage overhead (same ``phi``), the rack-aware placements must lose
  state measurably less often than the paper's in-rack-neighbour heuristic
  when failures are rack-correlated;
* **overhead percentiles** -- p50/p99 simulated-time overhead of the
  surviving runs over the failure-free baseline;
* **campaign health** -- every run must end in a structured outcome
  (``converged`` / ``not_converged`` / ``unrecoverable``); worker crashes,
  timeouts or errors fail the benchmark.

The campaign aggregates are bit-deterministic in the seed (worker count
does not matter); ``--check-determinism`` re-runs one campaign and compares
the aggregate JSON byte-for-byte, which the CI ``campaign-smoke`` lane
gates on.

Usage::

    python benchmarks/bench_reliability_campaign.py                  # full (1000 runs/placement)
    python benchmarks/bench_reliability_campaign.py --smoke          # CI smoke (48 runs)
    python benchmarks/bench_reliability_campaign.py --json out.json  # machine-readable
    python benchmarks/bench_reliability_campaign.py --smoke --check-determinism
"""

from __future__ import annotations

import argparse
import json
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

from repro.failures.traces import LifetimeModel, TraceSpec  # noqa: E402
from repro.harness.campaign import CampaignSpec, run_campaign  # noqa: E402

#: Placements compared at equal storage overhead (same phi).
PLACEMENTS = ("paper", "next_ranks", "rack_aware", "copyset")

#: The rack-aware strategies gated against the naive ones.
GATED = ("rack_aware", "copyset")

#: Campaign configuration: M3 at n=160 over 8 nodes converges failure-free
#: in 32 iterations at rtol=1e-8; the trace horizon covers that window and
#: the burst rate puts ~1.2 whole-rack bursts inside it in expectation, so
#: most runs see at least one correlated failure.
BASE_TRACE = dict(n_nodes=8, horizon=30, burst_rate=0.04, label="mc")


def campaign_spec(placement: str, n_runs: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        matrix_id="M3", matrix_size=160, matrix_seed=0,
        n_nodes=8, phi=3, placement=placement,
        preconditioner="block_jacobi", rtol=1e-8,
        trace=TraceSpec(lifetime=LifetimeModel(scale=400.0), **BASE_TRACE),
        n_runs=n_runs, seed=seed, timeout_s=120.0,
    )


def run_comparison(n_runs: int, seed: int, workers: Optional[int]
                   ) -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    for placement in PLACEMENTS:
        spec = campaign_spec(placement, n_runs, seed)
        start = time.perf_counter()
        result = run_campaign(spec, workers=workers)
        elapsed = time.perf_counter() - start
        aggregate = result.aggregate()
        overhead = aggregate["overhead_pct"]
        counts = aggregate["counts"]
        rows.append({
            "placement": placement,
            "aggregate": aggregate,
            "wallclock_s": elapsed,
        })
        print(
            f"  {placement:>10}  survival={aggregate['survival_probability']:.3f}  "
            f"unrecoverable={aggregate['unrecoverable_probability']:.3f}  "
            f"recoveries/run={aggregate['recoveries']['mean_per_run']:.2f}  "
            f"overhead p50/p99="
            + (f"{overhead['p50']:.0f}%/{overhead['p99']:.0f}%"
               if overhead else "n/a")
            + f"  [crashed={counts['worker_crashed']} errors={counts['error']} "
            f"timeouts={counts['timeout']}]  {elapsed:.1f}s"
        )
    return {
        "n_runs": n_runs,
        "seed": seed,
        "phi": 3,
        "trace": campaign_spec("paper", n_runs, seed).trace.to_dict(),
        "rows": rows,
        "headline": _headline(rows),
    }


def _headline(rows: List[Dict[str, object]]) -> Dict[str, object]:
    by_placement = {r["placement"]: r["aggregate"] for r in rows}
    return {
        "paper_unrecoverable": by_placement["paper"][
            "unrecoverable_probability"],
        "rack_aware_unrecoverable": by_placement["rack_aware"][
            "unrecoverable_probability"],
        "copyset_unrecoverable": by_placement["copyset"][
            "unrecoverable_probability"],
    }


def check_gates(results: Dict[str, object]) -> List[str]:
    """The blocking assertions of the CI lane; returns failure messages."""
    failures: List[str] = []
    by_placement = {r["placement"]: r["aggregate"] for r in results["rows"]}
    for placement, aggregate in by_placement.items():
        counts = aggregate["counts"]
        unhandled = counts["worker_crashed"] + counts["error"] + \
            counts["timeout"]
        if unhandled:
            failures.append(
                f"{placement}: {unhandled} run(s) without a structured solve "
                f"outcome (crashed={counts['worker_crashed']}, "
                f"errors={counts['error']}, timeouts={counts['timeout']})")
    paper_loss = by_placement["paper"]["unrecoverable_probability"]
    for placement in GATED:
        loss = by_placement[placement]["unrecoverable_probability"]
        if not loss < paper_loss:
            failures.append(
                f"{placement}: unrecoverable probability {loss:.4f} is not "
                f"below the paper placement's {paper_loss:.4f} at equal "
                f"storage overhead")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (48 runs per placement)")
    parser.add_argument("--runs", type=int, default=None, metavar="N",
                        help="runs per placement (default: 48 smoke, "
                             "1000 full)")
    parser.add_argument("--seed", type=int, default=7,
                        help="campaign base seed (default 7)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="pool size (0 = inline, default: CPU-derived)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--check-determinism", action="store_true",
                        help="re-run one campaign and require byte-identical "
                             "aggregate JSON")
    args = parser.parse_args(argv)

    n_runs = args.runs if args.runs is not None else (48 if args.smoke
                                                      else 1000)
    print(f"Reliability campaign benchmark: M3 n=160, 8 nodes, phi=3, "
          f"{n_runs} runs/placement, seed={args.seed}")
    results = run_comparison(n_runs, args.seed, args.workers)

    headline = results["headline"]
    print(
        f"headline: unrecoverable-loss probability "
        f"paper={headline['paper_unrecoverable']:.4f} vs "
        f"rack_aware={headline['rack_aware_unrecoverable']:.4f} / "
        f"copyset={headline['copyset_unrecoverable']:.4f}"
    )

    failures = check_gates(results)

    if args.check_determinism:
        spec = campaign_spec(PLACEMENTS[0], n_runs, args.seed)
        first = next(r["aggregate"] for r in results["rows"]
                     if r["placement"] == PLACEMENTS[0])
        again = run_campaign(spec, workers=args.workers).aggregate()
        identical = json.dumps(first, sort_keys=True) == \
            json.dumps(again, sort_keys=True)
        print(f"determinism: aggregate JSON "
              f"{'bit-identical' if identical else 'DIFFERS'} across "
              f"invocations")
        if not identical:
            failures.append("campaign aggregates differ between two "
                            "invocations with the same seed")

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")

    for message in failures:
        print(f"ERROR: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
