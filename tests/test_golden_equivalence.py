"""Golden hashes pinning the single-RHS solver paths bit-for-bit.

Each scenario solves one small system on a fresh problem and hashes the
solution bytes, the residual history and the cluster's whole cost ledger
(per-phase times, message and element counters).  The hashes were recorded
on the single-vector PCG implementation; any refactoring of the solver core
must reproduce every one of them exactly, so a changed rounding, a
reordered charge or one extra message shows up here.

Regenerate (only for a deliberate numerical or cost-model change) with::

    PYTHONPATH=src python tests/test_golden_equivalence.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict

import numpy as np
import pytest

import repro
from repro.baselines import (
    CheckpointConfig,
    CheckpointRestartPCG,
    FullRestartPCG,
    InterpolationRecoveryPCG,
)
from repro.cluster import FailureEvent
from repro.matrices import poisson_2d

SIDE = 16
N_NODES = 8
PHI = 3

FAILURES = {
    "none": (),
    "simultaneous": (FailureEvent(5, (1, 2, 3)),),
    "overlapping": (FailureEvent(5, (1, 2)),
                    FailureEvent(5, (6,), during_recovery_of=0)),
}


def _problem() -> repro.DistributedProblem:
    return repro.distribute_problem(poisson_2d(SIDE), n_nodes=N_NODES, seed=0)


def _digest(problem: repro.DistributedProblem, result) -> str:
    ledger = problem.cluster.ledger
    payload = {
        "x": hashlib.sha256(np.ascontiguousarray(
            result.x, dtype=np.float64).tobytes()).hexdigest(),
        "history": [float(v).hex() for v in result.residual_norms],
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "times": {k: float(v).hex() for k, v in sorted(ledger.times.items())},
        "messages": {k: int(v) for k, v in sorted(ledger.messages.items())},
        "elements": {k: int(v) for k, v in sorted(ledger.elements.items())},
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _run_pcg() -> str:
    problem = _problem()
    result = repro.solve(problem, spec=repro.SolveSpec(
        solver="pcg", preconditioner="block_jacobi"))
    return _digest(problem, result)


def _run_resilient(scheme: str, failures: str, overlap: bool) -> str:
    problem = _problem()
    result = repro.solve(problem, spec=repro.SolveSpec(
        solver="resilient_pcg", preconditioner="block_jacobi",
        overlap_spmv=overlap,
        resilience=repro.ResilienceSpec(phi=PHI, scheme=scheme,
                                        failures=FAILURES[failures])))
    assert len(result.recoveries) == (1 if FAILURES[failures] else 0)
    return _digest(problem, result)


def _run_baseline(cls, **kwargs) -> str:
    problem = _problem()
    precond = problem.resolve_preconditioner("block_jacobi")
    result = cls(problem.matrix, problem.rhs, precond,
                 failures=[FailureEvent(6, (1, 2))], **kwargs).solve()
    assert result.converged
    return _digest(problem, result)


SCENARIOS: Dict[str, Callable[[], str]] = {"pcg": _run_pcg}
for _scheme in ("copies", "rs_parity"):
    for _failures in FAILURES:
        for _overlap in (False, True):
            SCENARIOS[f"resilient_pcg-{_scheme}-{_failures}-"
                      f"overlap{int(_overlap)}"] = (
                lambda s=_scheme, f=_failures, o=_overlap:
                    _run_resilient(s, f, o))
SCENARIOS["full_restart"] = lambda: _run_baseline(FullRestartPCG)
SCENARIOS["checkpoint_restart"] = lambda: _run_baseline(
    CheckpointRestartPCG, config=CheckpointConfig(interval=4))
SCENARIOS["interpolation_li"] = lambda: _run_baseline(
    InterpolationRecoveryPCG, method="li")
SCENARIOS["interpolation_lsi"] = lambda: _run_baseline(
    InterpolationRecoveryPCG, method="lsi")

GOLDEN: Dict[str, str] = {
    "checkpoint_restart":
        "cc50d5a672fb82036cac00c93393685199e2585f5ba68198d2ea3307bdcb7b05",
    "full_restart":
        "12fe767589f62d4c870c31f3bb9ddd6ca44032054237c6ce74c6193d92653955",
    "interpolation_li":
        "fa206a817c27a7da957b7ffc4b584bbece7d48ed47c9325bfe57baec236a1f11",
    "interpolation_lsi":
        "62db385215a54bec227d0be910022599825d204b6010bd3e24fd94bc55ec7230",
    "pcg":
        "de5be5ba6abe6d97495cd5285294ca0ac2b92da8aab88067213e4c7f1971cb56",
    "resilient_pcg-copies-none-overlap0":
        "d9b087e90f666d7f26d564631e9c830ba29cf25062fbaf0640a47f2a3e102264",
    "resilient_pcg-copies-none-overlap1":
        "07af130ff5ed7acf50940aa6ad6c2ae95c4c6476cb5c438b7c8a70b92fa850bb",
    "resilient_pcg-copies-overlapping-overlap0":
        "b7bb2f06b685acc53f272c12a11a3cb0db9fd52dbaecc5d8665f099d09abc094",
    "resilient_pcg-copies-overlapping-overlap1":
        "90585271c65677c46dec208ab8657b7c0b7d8d666041bee06df12b4840d7890c",
    "resilient_pcg-copies-simultaneous-overlap0":
        "82011d06087a2a6095b484d109fea5e1e056e14fd15703c8dd1edd07c46afb67",
    "resilient_pcg-copies-simultaneous-overlap1":
        "2de99cc01a1ac5c94b81ee5af28e3ddc1653c79ddbc60552f7fdbebb8262fa36",
    "resilient_pcg-rs_parity-none-overlap0":
        "4294be3d1fa3b81b961ca6254b14175e2817499798e99f1b39e500dd6b0103f5",
    "resilient_pcg-rs_parity-none-overlap1":
        "413e3b42c77caadec1b5776d6f19794c777e38a71020c3a85bbf86eaed083b1b",
    "resilient_pcg-rs_parity-overlapping-overlap0":
        "5b724efc073821bd051835cb273b1b55aecb6bb015e53c6f7297b8492924676a",
    "resilient_pcg-rs_parity-overlapping-overlap1":
        "b29fb037556e1c745d9d8f98cff411c4fa3e78dd09a4fc97c67b64b56d5ddc94",
    "resilient_pcg-rs_parity-simultaneous-overlap0":
        "9d126b3302f0f9719bfbe8ef5f29a012c80f9e9ea74c35be90c48c413bcd148a",
    "resilient_pcg-rs_parity-simultaneous-overlap1":
        "235c364e4f7482dc56815ebc51f2ff633aee15fe381fdc55ad77f5c13a7f69c1",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_hash(name):
    assert SCENARIOS[name]() == GOLDEN[name]


if __name__ == "__main__":
    for _name in sorted(SCENARIOS):
        print(f'    "{_name}":\n        "{SCENARIOS[_name]()}",')
