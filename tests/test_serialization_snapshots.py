"""Snapshots of every JSON-able dataclass's ``to_dict`` output.

One instance of each of the 17 serializable types -- the eleven spec and
record types that ``from_dict`` rebuilds, and the six result types that are
only written -- is serialized in every ``include_*`` variant its
``to_dict`` offers, and the sorted-key JSON text is compared with
``tests/serialization_snapshots.json``.  Key order carries no meaning in
these dictionaries (the one consumer that compares bytes, the solver
service's coalescing key, dumps with ``sort_keys=True``), so the snapshots
pin keys and values, not order.

The instances hold plain Python values in their own fields; numpy scalars
appear only inside the free-form ``info`` dictionaries, where every
version of the serializer has converted them.  The one host-clock field,
``RecoveryReport.wallclock_time``, is pinned to a constant.

Regenerate only for a deliberate change of the JSON form::

    PYTHONPATH=src python tests/test_serialization_snapshots.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro.cluster.failure import FailureEvent
from repro.core.block_pcg import BlockSolveResult, DistributedSolveResult
from repro.core.reconstruction import RecoveryReport
from repro.core.spec import BlockSpec, ResilienceSpec, SolveSpec
from repro.failures.traces import LifetimeModel, TraceSpec
from repro.harness.campaign import CampaignSpec, RunOutcome
from repro.service.accounting import ServiceStats, TenantUsage
from repro.service.jobs import RequestResult
from repro.service.traffic import TrafficSpec
from repro.solvers.local_solver import LocalSolveStats
from repro.solvers.result import SolveResult

SNAPSHOT_FILE = Path(__file__).with_name("serialization_snapshots.json")


def failure_event() -> FailureEvent:
    return FailureEvent(iteration=20, ranks=(5, 2), during_recovery_of=0,
                        label="late")


def resilience_spec() -> ResilienceSpec:
    return ResilienceSpec(
        phi=2, scheme="rs_parity", placement="rack_aware",
        failures=((10, (0, 1)), failure_event()))


def block_spec() -> BlockSpec:
    return BlockSpec(n_cols=4, fuse_reductions=True)


def solve_spec() -> SolveSpec:
    return SolveSpec(
        solver="resilient_pcg", rtol=1e-6, atol=1e-12,
        max_iterations=500, preconditioner="block_jacobi_ilu",
        resilience=resilience_spec(), block=block_spec())


def lifetime_model() -> LifetimeModel:
    return LifetimeModel(scale=120.0)


def trace_spec() -> TraceSpec:
    return TraceSpec(n_nodes=8, horizon=150, lifetime=lifetime_model(),
                     burst_rate=0.05, label="trace-a")


def campaign_spec() -> CampaignSpec:
    return CampaignSpec(
        matrix_id="M1", matrix_size=200, matrix_seed=3, n_nodes=8, phi=2,
        placement="copyset", preconditioner="block_jacobi_ilu",
        rtol=1e-7, trace=trace_spec(), n_runs=12, seed=5, timeout_s=30.0)


def run_outcome() -> RunOutcome:
    return RunOutcome(index=3, kind="unrecoverable", n_recoveries=1,
                      n_events=2, n_failures=5, loss_iteration=7,
                      detail="lost rank 4")


def traffic_spec() -> TrafficSpec:
    return TrafficSpec(n_requests=5, matrix_ids=("a", "b"),
                       tenants=("x", "y"), rate_per_s=10.0)


def tenant_usage(name: str = "alice") -> TenantUsage:
    return TenantUsage(tenant=name, n_requests=3, n_converged=2,
                       iterations=41, simulated_time=0.5,
                       charges={"compute.spmv": 0.125, "comm.halo": 0.375})


def service_stats() -> ServiceStats:
    return ServiceStats(
        n_requests=4, n_batches=2, n_coalesced=3, n_failed=1,
        batch_widths=[3, 1],
        tenants={"bob": tenant_usage("bob"), "alice": tenant_usage()},
        simulated_time=1.0, queue_waits_s=[0.001, 0.002],
        batch_waits_s=[0.0005, 0.0], solves_s=[0.01, 0.02],
        latencies_s=[0.011, 0.022])


def local_solve_stats() -> LocalSolveStats:
    return LocalSolveStats("pcg_ilu", 8, 20, 3, 1e-15, 240.0)


def recovery_report() -> RecoveryReport:
    return RecoveryReport(
        iteration=7, failed_ranks=[2, 3], restarts=1, simulated_time=0.5,
        wallclock_time=0.25, reconstruction_form="inverse",
        local_solve_stats=[local_solve_stats(),
                           LocalSolveStats("direct", 4, 10, 1, 0.0, 60.0)],
        notes=["overlapping failure"])


def info() -> Dict[str, Any]:
    return {"preconditioner": "block_jacobi", "k": np.int64(1),
            "threshold": np.float64(7.5e-08), "unfired_failures": [],
            "redundancy": {"phi": 2.0, "per_iteration_time": 7.1e-06},
            "breakdown_columns": (np.int32(2),), "placement": None,
            "flags": np.array([True, False])}


def solve_result(with_residual: bool = True) -> SolveResult:
    return SolveResult(
        x=np.array([1.0, 2.0]), converged=True, iterations=3,
        residual_norms=[1.0, 0.1, 0.01], final_residual_norm=0.01,
        true_residual_norm=0.0100001,
        solver_residual=np.array([0.0, 0.01]) if with_residual else None,
        info=info())


def distributed_solve_result() -> DistributedSolveResult:
    return DistributedSolveResult(
        x=np.array([0.5, -0.25, 0.125]), converged=False, iterations=9,
        residual_norms=[2.0, 1.0], final_residual_norm=1.0,
        true_residual_norm=1.25, info=info(), simulated_time=0.75,
        simulated_iteration_time=0.25, simulated_recovery_time=0.5,
        time_breakdown={"recovery.comm": 0.5, "comm.halo": 0.125,
                        "compute.spmv": 0.125},
        recoveries=[recovery_report()])


def block_solve_result(with_x: bool = True) -> BlockSolveResult:
    return BlockSolveResult(
        x=np.arange(6.0).reshape(3, 2) if with_x else None,
        converged=[True, False], iterations=[4, 6],
        residual_histories=[[1.0, 0.5], [2.0, 1.5, 1.0]],
        final_residual_norms=[0.5, 1.0], true_residual_norms=[0.5, 1.0000001],
        info=info(), global_iterations=6, simulated_time=0.75,
        simulated_iteration_time=0.5, simulated_recovery_time=0.25,
        time_breakdown={"compute.vector": 0.25, "comm.allreduce": 0.5},
        recoveries=[recovery_report()])


def request_result() -> RequestResult:
    return RequestResult(
        request_id=11, tenant="alice", matrix_id="m",
        x=np.array([1.0, -1.0]), converged=True, iterations=5,
        residual_norms=[1.0, 0.5, 0.25], final_residual_norm=0.25,
        true_residual_norm=0.2500001, solver="block_pcg", batch_id=2,
        batch_width=3, batch_column=1, simulated_time=0.125,
        charges={"compute.spmv": 0.0625, "comm.halo": 0.0625},
        queue_wait_s=0.003, batch_wait_s=0.001, solve_s=0.02)


def _variants(make: Callable[[], Any], name: str
              ) -> Dict[str, Callable[[], Dict[str, Any]]]:
    """The default ``to_dict()`` of *make*'s result and its four
    ``include_solution`` x ``include_history`` variants."""
    cases = {}
    for include_solution in (False, True):
        for include_history in (False, True):
            def case(s=include_solution, h=include_history):
                return make().to_dict(include_solution=s, include_history=h)
            cases[f"{name}[solution={include_solution},"
                  f"history={include_history}]"] = case
    cases[name] = lambda: make().to_dict()
    return cases


#: Case id -> the ``to_dict`` output it snapshots.
CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "FailureEvent": lambda: failure_event().to_dict(),
    "FailureEvent[defaults]": lambda: FailureEvent(3, (1,)).to_dict(),
    "ResilienceSpec": lambda: resilience_spec().to_dict(),
    "ResilienceSpec[defaults]": lambda: ResilienceSpec().to_dict(),
    "BlockSpec": lambda: block_spec().to_dict(),
    "SolveSpec": lambda: solve_spec().to_dict(),
    "SolveSpec[defaults]": lambda: SolveSpec().to_dict(),
    "LifetimeModel": lambda: lifetime_model().to_dict(),
    "TraceSpec": lambda: trace_spec().to_dict(),
    "CampaignSpec": lambda: campaign_spec().to_dict(),
    "RunOutcome": lambda: run_outcome().to_dict(),
    "RunOutcome[converged]": lambda: RunOutcome(
        index=0, kind="converged", iterations=40,
        simulated_time=0.125).to_dict(),
    "TrafficSpec": lambda: traffic_spec().to_dict(),
    "TenantUsage": lambda: tenant_usage().to_dict(),
    "ServiceStats": lambda: service_stats().to_dict(),
    "ServiceStats.aggregate": lambda: service_stats().aggregate(),
    "ServiceStats.aggregate[empty]": lambda: ServiceStats().aggregate(),
    "LocalSolveStats": lambda: local_solve_stats().to_dict(),
    "RecoveryReport": lambda: recovery_report().to_dict(),
    **_variants(solve_result, "SolveResult"),
    "SolveResult[no solver_residual]": lambda: solve_result(False).to_dict(
        include_solution=True),
    **_variants(distributed_solve_result, "DistributedSolveResult"),
    **_variants(block_solve_result, "BlockSolveResult"),
    "BlockSolveResult[no x]": lambda: block_solve_result(False).to_dict(
        include_solution=True),
    **_variants(request_result, "RequestResult"),
}


def snapshot(case_id: str) -> str:
    return json.dumps(CASES[case_id](), sort_keys=True)


def recorded() -> Dict[str, Any]:
    return json.loads(SNAPSHOT_FILE.read_text())


def test_every_case_is_recorded():
    assert sorted(recorded()) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_to_dict_matches_snapshot(case_id):
    assert snapshot(case_id) == json.dumps(recorded()[case_id],
                                           sort_keys=True)


if __name__ == "__main__":
    _lines = [f"{json.dumps(case_id)}: {snapshot(case_id)}"
              for case_id in sorted(CASES)]
    if sys.argv[1:] == ["--write"]:
        # One case per line, so a diff names the cases that moved.
        SNAPSHOT_FILE.write_text("{\n" + ",\n".join(_lines) + "\n}\n")
    else:
        print("\n".join(_lines))
