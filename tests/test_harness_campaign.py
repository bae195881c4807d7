"""Tests for the Monte-Carlo reliability campaign harness."""

import json
import os
import time

import pytest

from repro.failures.traces import LifetimeModel, TraceSpec
from repro.harness.campaign import (
    OUTCOME_KINDS,
    CampaignResult,
    CampaignSpec,
    RunOutcome,
    run_campaign,
    run_single,
)

QUIET_TRACE = TraceSpec(n_nodes=8, horizon=20,
                        lifetime=LifetimeModel(scale=1e9))

BURSTY_TRACE = TraceSpec(n_nodes=8, horizon=20, burst_rate=0.08,
                         lifetime=LifetimeModel(scale=200.0))


def small_spec(**overrides):
    defaults = dict(matrix_id="M3", matrix_size=96, n_nodes=8, phi=3,
                    placement="rack_aware", rtol=1e-6,
                    trace=BURSTY_TRACE, n_runs=6, seed=3, timeout_s=60.0)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


# -- injectable run functions (module level: pool workers pickle them) --------

def _fake_ok_run(payload, index):
    return {"index": index, "kind": "converged", "iterations": 5,
            "simulated_time": 2.0 + 0.1 * index, "n_recoveries": 1,
            "n_events": 1, "n_failures": 2}


def _raise_on_two(payload, index):
    if index == 2:
        raise RuntimeError("boom")
    return _fake_ok_run(payload, index)


def _die_on_one(payload, index):
    if index == 1:
        os._exit(13)
    return _fake_ok_run(payload, index)


class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(n_runs=0)
        with pytest.raises(ValueError):
            small_spec(phi=8)
        with pytest.raises(ValueError):
            small_spec(timeout_s=-1.0)
        with pytest.raises(ValueError):
            small_spec(trace=TraceSpec(n_nodes=4))
        # Checked here, not at the campaign's baseline solve.
        with pytest.raises(ValueError,
                           match="unknown preconditioner 'block_jacobi_ic'"):
            small_spec(preconditioner="block_jacobi_ic")

    @pytest.mark.parametrize("name", [
        "block_jacobi", "block_jacobi_ilu", "identity", "jacobi",
    ])
    def test_every_registered_preconditioner_accepted(self, name):
        """Any registered name builds, in any case, and reaches the solve."""
        for spelling in (name, name.upper()):
            spec = small_spec(preconditioner=spelling)
            assert CampaignSpec.from_dict(spec.to_dict()) == spec
            assert spec.solve_spec().preconditioner == spelling

    def test_round_trip(self):
        spec = small_spec()
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({"bogus": 1})

    def test_run_seeds_stable_and_distinct(self):
        spec = small_spec()
        seeds = [spec.run_seed(i) for i in range(16)]
        assert seeds == [spec.run_seed(i) for i in range(16)]
        assert len(set(seeds)) == len(seeds)
        assert seeds != [small_spec(seed=99).run_seed(i) for i in range(16)]

    def test_solve_spec_carries_resilience(self):
        solve_spec = small_spec().solve_spec()
        assert solve_spec.resilience.phi == 3
        assert solve_spec.resilience.placement == "rack_aware"
        assert solve_spec.max_iterations is None  # the solver's own cap


class TestRunOutcome:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RunOutcome(index=0, kind="exploded")

    def test_round_trip(self):
        outcome = RunOutcome(index=3, kind="unrecoverable",
                             loss_iteration=7, n_events=2, n_failures=5,
                             detail="x")
        assert RunOutcome.from_dict(outcome.to_dict()) == outcome
        with pytest.raises(ValueError):
            RunOutcome.from_dict({"index": 0, "kind": "error", "bogus": 1})

    def test_survival_classification(self):
        assert RunOutcome(index=0, kind="converged").survived
        assert RunOutcome(index=0, kind="not_converged").survived
        for kind in ("unrecoverable", "timeout", "error", "worker_crashed"):
            assert not RunOutcome(index=0, kind=kind).survived


class TestRunSingle:
    def test_bad_payload_is_structured_error(self):
        outcome = run_single({"bogus": 1}, 4)
        assert outcome["kind"] == "error"
        assert outcome["index"] == 4

    def test_bad_matrix_is_structured_error(self):
        outcome = run_single(small_spec(matrix_id="NOPE").to_dict(), 0)
        assert outcome["kind"] == "error"
        assert "NOPE" in outcome["detail"]

    def test_quiet_trace_converges(self):
        outcome = run_single(small_spec(trace=QUIET_TRACE).to_dict(), 0)
        assert outcome["kind"] == "converged"
        assert outcome["n_events"] == 0
        assert outcome["n_recoveries"] == 0
        assert outcome["simulated_time"] > 0.0

    def test_alarm_interrupts_overrunning_run(self):
        from repro.harness.campaign import (
            _RunTimeout,
            _clear_alarm,
            _install_alarm,
        )

        previous = _install_alarm(0.05)
        try:
            with pytest.raises(_RunTimeout):
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    pass
        finally:
            _clear_alarm(previous)


class TestRunCampaign:
    def test_inline_deterministic(self):
        spec = small_spec()
        a = run_campaign(spec, workers=0).aggregate()
        b = run_campaign(spec, workers=0).aggregate()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_pool_matches_inline(self):
        spec = small_spec()
        inline = run_campaign(spec, workers=0).aggregate()
        pooled = run_campaign(spec, workers=2).aggregate()
        assert json.dumps(inline, sort_keys=True) == \
            json.dumps(pooled, sort_keys=True)

    def test_unrecoverable_runs_classified(self):
        # phi = 1 cannot absorb a 4-rank burst: losses must come back as
        # typed outcomes with the loss iteration, never as exceptions.
        spec = small_spec(phi=1, placement="paper", n_runs=8,
                          trace=TraceSpec(n_nodes=8, horizon=20,
                                          burst_rate=0.2,
                                          lifetime=LifetimeModel(scale=1e9)))
        result = run_campaign(spec, workers=0)
        counts = result.counts()
        assert counts["unrecoverable"] > 0
        assert counts["error"] == counts["worker_crashed"] == 0
        assert result.loss_iteration_stats() is not None
        for outcome in result.outcomes:
            if outcome.kind == "unrecoverable":
                assert outcome.loss_iteration is not None
                assert outcome.detail

    def test_outcomes_ordered_and_complete(self):
        result = run_campaign(small_spec(), workers=0)
        assert [o.index for o in result.outcomes] == list(range(6))
        assert sum(result.counts().values()) == 6

    def test_injected_exception_isolated_inline(self):
        result = run_campaign(small_spec(), workers=0, run_fn=_raise_on_two)
        assert result.outcomes[2].kind == "worker_crashed"
        assert "boom" in result.outcomes[2].detail
        assert all(result.outcomes[i].kind == "converged"
                   for i in range(6) if i != 2)

    def test_injected_exception_isolated_in_pool(self):
        result = run_campaign(small_spec(), workers=2, run_fn=_raise_on_two)
        assert result.outcomes[2].kind == "worker_crashed"
        assert all(result.outcomes[i].kind == "converged"
                   for i in range(6) if i != 2)

    def test_dead_worker_isolated_in_pool(self):
        # A worker that dies mid-run breaks the shared pool; the campaign
        # must retry the innocent runs in isolation and pin the crash on
        # exactly the misbehaving one.
        result = run_campaign(small_spec(), workers=2, run_fn=_die_on_one)
        assert result.outcomes[1].kind == "worker_crashed"
        assert all(result.outcomes[i].kind == "converged"
                   for i in range(6) if i != 1)


class TestAggregation:
    def fake_result(self, kinds):
        spec = small_spec(n_runs=len(kinds))
        outcomes = tuple(
            RunOutcome(index=i, kind=kind,
                       iterations=10 if kind == "converged" else None,
                       simulated_time=4.0 + i if kind == "converged" else None,
                       n_recoveries=1 if kind == "converged" else 0,
                       loss_iteration=5 if kind == "unrecoverable" else None)
            for i, kind in enumerate(kinds)
        )
        baseline = RunOutcome(index=-1, kind="converged", iterations=8,
                              simulated_time=4.0)
        return CampaignResult(spec=spec, baseline=baseline, outcomes=outcomes)

    def test_probabilities(self):
        result = self.fake_result(["converged", "converged", "not_converged",
                                   "unrecoverable"])
        assert result.survival_probability == 0.75
        assert result.unrecoverable_probability == 0.25
        assert result.converged_fraction == 0.5
        assert result.counts()["timeout"] == 0
        assert set(result.counts()) == set(OUTCOME_KINDS)

    def test_overhead_over_converged_runs(self):
        result = self.fake_result(["converged", "converged", "unrecoverable"])
        overhead = result.overhead_percentiles()
        # simulated times 4.0 and 5.0 over a 4.0 baseline: 0 % and 25 %.
        assert overhead["p50"] == pytest.approx(12.5)
        assert overhead["max"] == pytest.approx(25.0)

    def test_overhead_none_without_converged_runs(self):
        assert self.fake_result(["unrecoverable"]).overhead_percentiles() \
            is None

    def test_aggregate_is_json_serializable(self):
        aggregate = self.fake_result(["converged", "unrecoverable",
                                      "worker_crashed"]).aggregate()
        assert json.loads(json.dumps(aggregate)) == aggregate
        assert aggregate["loss_iteration"]["p50"] == 5.0

    def test_describe_mentions_counts(self):
        text = self.fake_result(["converged", "unrecoverable"]).describe()
        assert "survival=0.500" in text and "unrecoverable=1" in text
