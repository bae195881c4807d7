"""Golden hashes pinning the single-RHS solver paths bit-for-bit.

Each scenario solves one small system on a fresh problem and records two
hashes:

* the *charge* digest covers the cluster's whole cost ledger (per-phase
  times, message and element counters), the iteration count and the
  ``converged`` flag;
* the *iterate* digest covers the solution bytes and the residual history.

Together they pin every field of the solve, so a changed rounding, a
reordered charge or one extra message shows up here, and the half that
moved says which kind of change it was.  The charges go back to the
single-vector PCG implementation, and the iterates to block Jacobi's dense
kernel for blocks of at most 128 rows; any refactoring of the solver core
must reproduce every hash exactly.

Regenerate only for a deliberate change, and only the half it declares: a
cost-model change re-records the charge digests, a numerics change (a new
kernel whose results differ at rounding level) re-records the iterate
digests.  Both tables are printed by::

    PYTHONPATH=src python tests/test_golden_equivalence.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Callable, Dict, Tuple

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


def _sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _digest(problem: repro.DistributedProblem, result) -> Tuple[str, str]:
    """The ``(charge, iterate)`` digests of one solve."""
    ledger = problem.cluster.ledger
    charges = {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "times": {k: float(v).hex() for k, v in sorted(ledger.times.items())},
        "messages": {k: int(v) for k, v in sorted(ledger.messages.items())},
        "elements": {k: int(v) for k, v in sorted(ledger.elements.items())},
    }
    iterates = {
        "x": hashlib.sha256(np.ascontiguousarray(
            result.x, dtype=np.float64).tobytes()).hexdigest(),
        "history": [float(v).hex() for v in result.residual_norms],
    }
    return _sha256(charges), _sha256(iterates)


def _run_pcg() -> Tuple[str, str]:
    problem = _problem()
    result = repro.solve(problem, spec=repro.SolveSpec(
        solver="pcg", preconditioner="block_jacobi"))
    return _digest(problem, result)


def _run_resilient(scheme: str, failures: str) -> Tuple[str, str]:
    problem = _problem()
    result = repro.solve(problem, spec=repro.SolveSpec(
        solver="resilient_pcg", preconditioner="block_jacobi",
        resilience=repro.ResilienceSpec(phi=PHI, scheme=scheme,
                                        failures=FAILURES[failures])))
    assert len(result.recoveries) == (1 if FAILURES[failures] else 0)
    return _digest(problem, result)


def _run_baseline(cls, **kwargs) -> Tuple[str, str]:
    problem = _problem()
    precond = problem.resolve_preconditioner("block_jacobi")
    result = cls(problem.matrix, problem.rhs, precond,
                 failures=[FailureEvent(6, (1, 2))], **kwargs).solve()
    assert result.converged
    return _digest(problem, result)


SCENARIOS: Dict[str, Callable[[], Tuple[str, str]]] = {"pcg": _run_pcg}
for _scheme in ("copies", "rs_parity"):
    for _failures in FAILURES:
        SCENARIOS[f"resilient_pcg-{_scheme}-{_failures}"] = (
            lambda s=_scheme, f=_failures: _run_resilient(s, f))
SCENARIOS["full_restart"] = lambda: _run_baseline(FullRestartPCG)
SCENARIOS["checkpoint_restart"] = lambda: _run_baseline(
    CheckpointRestartPCG, config=CheckpointConfig(interval=4))
SCENARIOS["interpolation_li"] = lambda: _run_baseline(
    InterpolationRecoveryPCG, method="li")
SCENARIOS["interpolation_lsi"] = lambda: _run_baseline(
    InterpolationRecoveryPCG, method="lsi")

CHARGES: Dict[str, str] = {
    "checkpoint_restart":
        "e0d8e749e80557534f1e00a5f5b9edd6d373d87967b171403b0eb565ee270f0d",
    "full_restart":
        "abdf75be8d10500c00d8c06899bdc61c49e6c5b2c305b27e7f32b02c9497a714",
    "interpolation_li":
        "2ee46788de370ca5cff80d657c4fd81c4af60697c483b0623b7bb3bf690c773e",
    "interpolation_lsi":
        "d38833b72bd080bb997dbcfda912ea8f644eb5c41979e994a09ac91d36b9d77b",
    "pcg":
        "2df11f1e9d5f2c40c39f7243da4c23558270492183c232320be6f276dd675ea1",
    "resilient_pcg-copies-none":
        "490a3b48caff0bdbc87915eec25c77bbe0c3adca45d54f80dfa0af87141bbeb2",
    "resilient_pcg-copies-overlapping":
        "b6560299668689ca41b5a60917dfcb836b499b2e09821215e1cfad040aece500",
    "resilient_pcg-copies-simultaneous":
        "5a8db925801b9078bf62223728893ad029ff792a6b00a9d9d72adf6fb15ffa4e",
    "resilient_pcg-rs_parity-none":
        "35c31ba6669df04e260d3ba9af35f3ba5529e8de280abe005e41f325a539632d",
    "resilient_pcg-rs_parity-overlapping":
        "653b70e7ae397e51a8b4975dffd4bbac46633e637704a596dd2c16272d9086e2",
    "resilient_pcg-rs_parity-simultaneous":
        "5fa04c81f32bb0fddf184e06c7b5adb208c8e6b954ee299f5e14388db9cc565d",
}

ITERATES: Dict[str, str] = {
    "checkpoint_restart":
        "484dbc2cdf696b723c0d69e2dd53de13efc2ec5eaf9dc77d815f2aaaec5e29d8",
    "full_restart":
        "5bd7275a5d74796c1e7919fb9ed9354d4c6eae0af2ff49acd87ee6e9d3f826e0",
    "interpolation_li":
        "24b93d3f533ffbf7e6a8a3cd0edb055560dcafa2c20c8aaf202a3cb5f4b8a4cd",
    "interpolation_lsi":
        "5fc10b718fb9839a76a4741e8946e5ba4d6eca3f09fdfdb5ad2cfedf83b09c50",
    "pcg":
        "484dbc2cdf696b723c0d69e2dd53de13efc2ec5eaf9dc77d815f2aaaec5e29d8",
    "resilient_pcg-copies-none":
        "484dbc2cdf696b723c0d69e2dd53de13efc2ec5eaf9dc77d815f2aaaec5e29d8",
    "resilient_pcg-copies-overlapping":
        "52fa73e4a90907ab1ceb36638ed4df07bcfb08c126469f2bf92486f104eddc28",
    "resilient_pcg-copies-simultaneous":
        "72bcc0a2fc6c6fca122d35d5acf498491e06adf8deaedbc127fbae7ae48dac83",
    "resilient_pcg-rs_parity-none":
        "484dbc2cdf696b723c0d69e2dd53de13efc2ec5eaf9dc77d815f2aaaec5e29d8",
    "resilient_pcg-rs_parity-overlapping":
        "52fa73e4a90907ab1ceb36638ed4df07bcfb08c126469f2bf92486f104eddc28",
    "resilient_pcg-rs_parity-simultaneous":
        "72bcc0a2fc6c6fca122d35d5acf498491e06adf8deaedbc127fbae7ae48dac83",
}


@functools.lru_cache(maxsize=None)
def _digests(name: str) -> Tuple[str, str]:
    return SCENARIOS[name]()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_charge_digest(name):
    assert _digests(name)[0] == CHARGES[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_iterate_digest(name):
    assert _digests(name)[1] == ITERATES[name]


if __name__ == "__main__":
    for _table, _half in (("CHARGES", 0), ("ITERATES", 1)):
        print(f"{_table}: Dict[str, str] = {{")
        for _name in sorted(SCENARIOS):
            print(f'    "{_name}":\n        "{_digests(_name)[_half]}",')
        print("}\n")
