"""Benchmark: redundancy-scheme frontier -- full copies vs RS parity stripes.

For each failure tolerance ``phi`` the bench runs the resilient PCG under
every registered redundancy scheme and maps the overhead-vs-tolerance
frontier:

* **storage overhead** -- redundant elements stored per retained generation,
  as a fraction of the problem size (``phi`` for full copies, roughly
  ``1 + m/g`` for RS(g+m, g) parity stripes);
* **per-iteration traffic and time** -- the extra redundancy communication
  charged on the failure-free path (Sec. 4.2 charge model);
* **recovery time** -- simulated seconds to reconstruct after ``m = phi``
  simultaneous failures inside one parity stripe (the parity scheme's worst
  case, CR-SIM's ``repair``: ``g`` block downloads per stripe);
* **unrecoverable-loss rate** -- a seeded Monte-Carlo campaign striking
  random failure sets of size ``1 .. phi + 1``: both schemes survive any
  ``<= phi`` simultaneous failures by construction; the campaign measures
  how often each survives ``phi + 1`` (copies: whenever some copy set
  survives; parity: whenever no stripe loses more than ``m`` members).

The correctness contract rides along: under the same failure schedule the
RS-parity solve must be **bit-identical** to the copies solve (the GF(2^8)
byte coding makes the decoded blocks exact), and both must match the
failure-free reference to reconstruction accuracy.

Usage::

    python benchmarks/bench_redundancy_schemes.py                  # full sweep
    python benchmarks/bench_redundancy_schemes.py --smoke          # CI smoke
    python benchmarks/bench_redundancy_schemes.py --json out.json
    python benchmarks/bench_redundancy_schemes.py --smoke \\
        --require-parity-savings                                   # CI gate

The gate exits non-zero unless, at every swept ``phi``, the RS-parity
storage overhead is strictly below the copies overhead at equal failure
tolerance *and* the recovered solves are bit-identical to the copies path.

Environment knobs (full mode): ``REPRO_BENCH_RED_N`` (grid side, default
32), ``REPRO_BENCH_RED_NODES`` (cluster size, default 12),
``REPRO_BENCH_RED_PHIS`` (comma-separated, default "1,2,3"),
``REPRO_BENCH_RED_TRIALS`` (campaign trials per size, default 40).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - uninstalled checkout
        sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.cluster import (  # noqa: E402
    FailureEvent,
    MachineModel,
    Phase,
    UnrecoverableStateError,
)
from repro.core import ResilienceSpec, distribute_problem  # noqa: E402
from repro.core.redundancy import REDUNDANCY_SCHEMES  # noqa: E402
from repro.core.resilient_block_pcg import ResilientBlockPCG  # noqa: E402
from repro.core.rs_parity import GROUP_SIZE, RSParityScheme  # noqa: E402
from repro.matrices import poisson_2d  # noqa: E402
from repro.precond import make_preconditioner  # noqa: E402


def _solver(matrix, n_nodes: int, phi: int, scheme: str, rtol: float,
            failures: Optional[List[FailureEvent]] = None
            ) -> ResilientBlockPCG:
    problem = distribute_problem(matrix, n_nodes=n_nodes, seed=0,
                                 machine=MachineModel(jitter_rel_std=0.0))
    return ResilientBlockPCG(
        problem.matrix, problem.rhs, make_preconditioner("block_jacobi"),
        resilience=ResilienceSpec(phi=phi, scheme=scheme,
                                  failures=failures or ()),
        rtol=rtol,
    )


def _stripe_failure_ranks(matrix, n_nodes: int, phi: int) -> List[int]:
    """``phi`` members of one RS stripe -- the parity scheme's worst case."""
    problem = distribute_problem(matrix, n_nodes=n_nodes, seed=0,
                                 machine=MachineModel(jitter_rel_std=0.0))
    scheme = RSParityScheme(problem.context, phi)
    members = scheme.group_members(0)
    return sorted(members[:min(phi, len(members))])


def _campaign_loss_rate(matrix, n_nodes: int, phi: int, scheme: str,
                        rtol: float, trials: int, seed: int = 0
                        ) -> Dict[str, float]:
    """Empirical unrecoverable fraction for random failure-set sizes."""
    rng = np.random.default_rng(seed)
    rates: Dict[str, float] = {}
    for size in (phi, phi + 1):
        if size == 0 or size >= n_nodes:
            continue
        lost = 0
        for _ in range(trials):
            ranks = sorted(rng.choice(n_nodes, size=size, replace=False))
            solver = _solver(matrix, n_nodes, phi, scheme, rtol,
                             failures=[FailureEvent(5, [int(r) for r in ranks])])
            try:
                solver.solve()
            except UnrecoverableStateError:
                lost += 1
        rates[f"loss_rate_{size}_failures"] = lost / trials
    return rates


def run_phi_case(matrix, n_nodes: int, phi: int, rtol: float,
                 trials: int) -> Dict[str, object]:
    """The frontier row of one failure tolerance ``phi``."""
    n = matrix.shape[0]
    reference = _solver(matrix, n_nodes, phi, "copies", rtol).solve()
    failed = _stripe_failure_ranks(matrix, n_nodes, phi)
    schedule = [FailureEvent(10, failed)] if failed else None

    per_scheme: Dict[str, Dict[str, object]] = {}
    recovered_x: Dict[str, np.ndarray] = {}
    for scheme in sorted(REDUNDANCY_SCHEMES.names()):
        solver = _solver(matrix, n_nodes, phi, scheme, rtol)
        result = solver.solve()
        messages, elements = solver.scheme.extra_traffic_per_iteration()
        row: Dict[str, object] = {
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "free_run_bit_identical": bool(np.array_equal(result.x,
                                                          reference.x)),
            "storage_overhead_ratio":
                solver.scheme.redundant_elements_per_generation() / n,
            "traffic_elements_per_iteration": int(elements),
            "traffic_messages_per_iteration": int(messages),
            "per_iteration_overhead_time":
                result.info["redundancy"]["per_iteration_time"],
            "simulated_time_free": float(result.simulated_time),
        }
        if schedule:
            fsolver = _solver(matrix, n_nodes, phi, scheme, rtol,
                              failures=list(schedule))
            fresult = fsolver.solve()
            recovered_x[scheme] = fresult.x
            row.update({
                "failed_ranks": failed,
                "recovery_sim_time": float(sum(
                    rep.simulated_time for rep in fsolver.recovery_reports)),
                "recovery_traffic_elements": int(
                    fsolver.cluster.ledger.total_elements(
                        [Phase.RECOVERY_COMM])),
                "recovered_matches_reference": bool(np.allclose(
                    fresult.x, reference.x, rtol=1e-10, atol=1e-12)),
            })
        row.update(_campaign_loss_rate(matrix, n_nodes, phi, scheme, rtol,
                                       trials))
        per_scheme[scheme] = row

    bit_identical = ("copies" in recovered_x and "rs_parity" in recovered_x
                     and bool(np.array_equal(recovered_x["copies"],
                                             recovered_x["rs_parity"])))
    return {
        "phi": phi,
        "n": int(n),
        "n_nodes": int(n_nodes),
        "group_size": GROUP_SIZE,
        "schemes": per_scheme,
        "recovery_bit_identical_across_schemes": bit_identical,
    }


def run_sweep(n_side: int, n_nodes: int, phis: List[int], rtol: float,
              trials: int) -> Dict[str, object]:
    matrix = poisson_2d(n_side)
    rows = []
    for phi in phis:
        row = run_phi_case(matrix, n_nodes, phi, rtol, trials)
        rows.append(row)
        copies = row["schemes"]["copies"]
        rs = row["schemes"]["rs_parity"]
        print(
            f"  phi={phi}  storage: copies={copies['storage_overhead_ratio']:.2f}n "
            f"rs={rs['storage_overhead_ratio']:.2f}n  "
            f"traffic/iter: {copies['traffic_elements_per_iteration']:>6} vs "
            f"{rs['traffic_elements_per_iteration']:>6} elems  "
            f"recovery: {copies.get('recovery_sim_time', 0.0):.2e}s vs "
            f"{rs.get('recovery_sim_time', 0.0):.2e}s  "
            f"identical={row['recovery_bit_identical_across_schemes']}"
        )
    return {
        "n_side": n_side,
        "n_nodes": n_nodes,
        "phis": phis,
        "rtol": rtol,
        "campaign_trials": trials,
        "group_size": GROUP_SIZE,
        "rows": rows,
    }


def check_parity_savings(results: Dict[str, object]) -> List[str]:
    """The CI gate: cheaper storage at equal tolerance, bit-exact recovery.

    The storage comparison applies from ``phi >= 2`` on: parity pays a
    constant ``n`` for the owners' generation snapshots plus ``~n/g`` per
    tolerated failure, so a single full copy (``1.0n``) is the cheaper
    representation at ``phi = 1`` while every additional tolerated failure
    costs parity ``1/g`` of what it costs the copies scheme -- the frontier
    crosses at ``phi = 2`` and diverges from there.
    """
    errors: List[str] = []
    for row in results["rows"]:
        phi = row["phi"]
        copies = row["schemes"]["copies"]
        rs = row["schemes"]["rs_parity"]
        if phi >= 2 and not (rs["storage_overhead_ratio"]
                             < copies["storage_overhead_ratio"]):
            errors.append(
                f"phi={phi}: rs_parity storage "
                f"{rs['storage_overhead_ratio']:.3f}n is not below copies "
                f"{copies['storage_overhead_ratio']:.3f}n")
        for scheme_row, name in ((copies, "copies"), (rs, "rs_parity")):
            if not scheme_row["free_run_bit_identical"]:
                errors.append(f"phi={phi}: {name} failure-free run deviates "
                              "from the reference")
            key = f"loss_rate_{phi}_failures"
            if scheme_row.get(key, 0.0) != 0.0:
                errors.append(f"phi={phi}: {name} lost state within its "
                              f"advertised tolerance ({key}="
                              f"{scheme_row[key]:.2f})")
            if "recovered_matches_reference" in scheme_row and \
                    not scheme_row["recovered_matches_reference"]:
                errors.append(f"phi={phi}: {name} recovered solve deviates "
                              "from the failure-free reference")
        if copies.get("failed_ranks") and \
                not row["recovery_bit_identical_across_schemes"]:
            errors.append(f"phi={phi}: rs_parity recovery is not "
                          "bit-identical to the copies recovery")
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (small grid, few trials)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON to PATH")
    parser.add_argument("--require-parity-savings", action="store_true",
                        help="exit non-zero unless rs_parity beats copies "
                             "storage at equal tolerance with bit-identical "
                             "recovered solves")
    args = parser.parse_args(argv)

    if args.smoke:
        n_side, n_nodes, phis, trials, rtol = 16, 8, [1, 2], 8, 1e-6
    else:
        n_side = int(os.environ.get("REPRO_BENCH_RED_N", 32))
        n_nodes = int(os.environ.get("REPRO_BENCH_RED_NODES", 12))
        phis = [int(v) for v in
                os.environ.get("REPRO_BENCH_RED_PHIS", "1,2,3").split(",")]
        trials = int(os.environ.get("REPRO_BENCH_RED_TRIALS", 40))
        rtol = 1e-8

    print(f"Redundancy-scheme frontier: poisson n={n_side * n_side} "
          f"N={n_nodes} phis={phis} g={GROUP_SIZE} trials={trials}")
    results = run_sweep(n_side, n_nodes, phis, rtol, trials)

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"wrote {args.json}")
    if args.require_parity_savings:
        errors = check_parity_savings(results)
        if errors:
            for message in errors:
                print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print("gate: rs_parity storage < copies at equal tolerance, "
              "recovered solves bit-identical -- OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
