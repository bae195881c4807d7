#!/usr/bin/env python3
"""Monte-Carlo reliability campaign over stochastic correlated failures.

The deterministic examples inject one hand-written failure schedule; this
one asks the distributional question operators actually care about: *what
fraction of solves survives* a stochastic failure process of independent
node lifetimes plus correlated rack-level bursts, and what does placement
buy?  It runs two small pinned-seed campaigns -- the paper's Eqn.-(5)
placement vs. the rack-aware spreading strategy -- at equal storage
overhead (same phi) and prints the aggregated survival statistics.

Run with:  python examples/reliability_campaign.py
"""

from repro.failures import LifetimeModel, TraceSpec, generate_trace
from repro.harness import CampaignSpec, run_campaign

N_RUNS = 24
SEED = 11


def campaign(placement: str) -> CampaignSpec:
    # M3 at n=160 over 8 nodes converges failure-free in ~32 iterations;
    # the trace horizon covers that window, with one whole-rack burst per
    # ~25 iterations in expectation on top of exponential node lifetimes.
    return CampaignSpec(
        matrix_id="M3", matrix_size=160, n_nodes=8, phi=3,
        placement=placement, rtol=1e-8,
        trace=TraceSpec(n_nodes=8, horizon=30, burst_rate=0.04,
                        lifetime=LifetimeModel(scale=400.0)),
        n_runs=N_RUNS, seed=SEED,
    )


def main() -> None:
    # One sample trace, to show what the campaign feeds each run.
    spec = campaign("paper")
    trace = generate_trace(spec.trace, seed=spec.run_seed(0))
    print(f"sample trace (run 0): {trace.n_failures} node failures "
          f"in {len(trace.events)} events")
    for event in trace.to_failure_events():
        print(f"  iteration {event.iteration:>3}: ranks "
              f"{list(event.ranks)}  [{event.label}]")
    print()

    for placement in ("paper", "rack_aware"):
        result = run_campaign(campaign(placement), workers=2)
        aggregate = result.aggregate()
        overhead = aggregate["overhead_pct"]
        print(f"{placement:>10}: survival "
              f"{aggregate['survival_probability']:.3f}, unrecoverable "
              f"{aggregate['unrecoverable_probability']:.3f}, "
              f"{aggregate['recoveries']['total']} recoveries"
              + (f", overhead p50 {overhead['p50']:.0f}%"
                 if overhead else ""))

    print("\nSame phi, same traces: spreading the redundant copies across "
          "racks is what turns correlated bursts survivable.")


if __name__ == "__main__":
    main()
