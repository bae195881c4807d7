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


def _run_resilient(scheme: str, failures: str,
                   overlap: bool) -> Tuple[str, str]:
    problem = _problem()
    result = repro.solve(problem, spec=repro.SolveSpec(
        solver="resilient_pcg", preconditioner="block_jacobi",
        overlap_spmv=overlap,
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
    "resilient_pcg-copies-none-overlap0":
        "490a3b48caff0bdbc87915eec25c77bbe0c3adca45d54f80dfa0af87141bbeb2",
    "resilient_pcg-copies-none-overlap1":
        "8f54c8f2014bcdedf3f5865389de906322e32d7f5dff8f135cd4e34aabd58f04",
    "resilient_pcg-copies-overlapping-overlap0":
        "b6560299668689ca41b5a60917dfcb836b499b2e09821215e1cfad040aece500",
    "resilient_pcg-copies-overlapping-overlap1":
        "0e8700fff2bf5c5d3f8cad7b553f0df342ae8cfba4194195bf3298a8b3524aca",
    "resilient_pcg-copies-simultaneous-overlap0":
        "5a8db925801b9078bf62223728893ad029ff792a6b00a9d9d72adf6fb15ffa4e",
    "resilient_pcg-copies-simultaneous-overlap1":
        "a244e94b98878116735653a056c7a791de88b40208b8f84225570769eaedd479",
    "resilient_pcg-rs_parity-none-overlap0":
        "35c31ba6669df04e260d3ba9af35f3ba5529e8de280abe005e41f325a539632d",
    "resilient_pcg-rs_parity-none-overlap1":
        "6e1d13cc3dd849e378bdd8c4103c8af12ad5bb35640aaf28a82ecd42efb80ec6",
    "resilient_pcg-rs_parity-overlapping-overlap0":
        "653b70e7ae397e51a8b4975dffd4bbac46633e637704a596dd2c16272d9086e2",
    "resilient_pcg-rs_parity-overlapping-overlap1":
        "ffee41b157998c55f4d1a5c3574fdc31aff01da787030bde9e66fb1ef6ae0b63",
    "resilient_pcg-rs_parity-simultaneous-overlap0":
        "5fa04c81f32bb0fddf184e06c7b5adb208c8e6b954ee299f5e14388db9cc565d",
    "resilient_pcg-rs_parity-simultaneous-overlap1":
        "ee508f528ec361b7a77e7c3098aa31de9eb1f02d97315923b589f90f8403f942",
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
    "resilient_pcg-copies-none-overlap0":
        "484dbc2cdf696b723c0d69e2dd53de13efc2ec5eaf9dc77d815f2aaaec5e29d8",
    "resilient_pcg-copies-none-overlap1":
        "15a01d755dbefdc94aa236ab856d392119c2486c98f91f840261b837bcdaec29",
    "resilient_pcg-copies-overlapping-overlap0":
        "52fa73e4a90907ab1ceb36638ed4df07bcfb08c126469f2bf92486f104eddc28",
    "resilient_pcg-copies-overlapping-overlap1":
        "e7ce350733ac8f2ffeeb946b10023b4ed8b631fe91ebb313cfe97c00f904e9fe",
    "resilient_pcg-copies-simultaneous-overlap0":
        "72bcc0a2fc6c6fca122d35d5acf498491e06adf8deaedbc127fbae7ae48dac83",
    "resilient_pcg-copies-simultaneous-overlap1":
        "9a9e919f370beb26a84dbde8034f455e2c80238903f881a0ccd0953baed33cde",
    "resilient_pcg-rs_parity-none-overlap0":
        "484dbc2cdf696b723c0d69e2dd53de13efc2ec5eaf9dc77d815f2aaaec5e29d8",
    "resilient_pcg-rs_parity-none-overlap1":
        "15a01d755dbefdc94aa236ab856d392119c2486c98f91f840261b837bcdaec29",
    "resilient_pcg-rs_parity-overlapping-overlap0":
        "52fa73e4a90907ab1ceb36638ed4df07bcfb08c126469f2bf92486f104eddc28",
    "resilient_pcg-rs_parity-overlapping-overlap1":
        "e7ce350733ac8f2ffeeb946b10023b4ed8b631fe91ebb313cfe97c00f904e9fe",
    "resilient_pcg-rs_parity-simultaneous-overlap0":
        "72bcc0a2fc6c6fca122d35d5acf498491e06adf8deaedbc127fbae7ae48dac83",
    "resilient_pcg-rs_parity-simultaneous-overlap1":
        "9a9e919f370beb26a84dbde8034f455e2c80238903f881a0ccd0953baed33cde",
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
