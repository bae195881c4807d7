"""Cost attribution and service statistics.

The load-bearing contract is *exact* floating-point conservation:
:func:`exact_shares` / :func:`split_charges` must return shares whose
left-to-right ``sum()`` reproduces the batch total bit-for-bit (property
test below), so per-tenant ledgers reconcile exactly against the service
ledger.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    ServiceStats,
    TenantUsage,
    exact_shares,
    percentile,
    split_charges,
)
from repro.service.jobs import RequestResult


def make_result(request_id=0, tenant="t0", *, width=2, column=0,
                iterations=5, converged=True, simulated_time=1.0,
                charges=None, queue_wait=0.0, batch_wait=0.0, solve=0.0):
    return RequestResult(
        request_id=request_id, tenant=tenant, matrix_id="m", x=None,
        converged=converged, iterations=iterations,
        residual_norms=[1.0, 0.1], final_residual_norm=0.1,
        true_residual_norm=0.1, solver="pcg", batch_id=0, batch_width=width,
        batch_column=column, simulated_time=simulated_time,
        charges=charges if charges is not None else {"compute.spmv": 0.5},
        queue_wait_s=queue_wait, batch_wait_s=batch_wait, solve_s=solve)


# -- exact_shares --------------------------------------------------------------

#: Inputs on which no number of one-ulp steps of the largest prefix share
#: reconciles the total: that share's own addition to the prefix sum is a
#: round-to-even tie, so each step moves the prefix sum by 0 or 2 of its ulps
#: and the complement stays unreachable.  The first was found by the property
#: test below, the rest by a random search.
UNBREAKABLE_TIES = [
    (519449.737032887, [153.0, 218.5, 5056.5, 2.0, 10000.0]),
    (508579.2406512, [1446.196, 5858.0, 1179.0, 9571.0]),
    (7934.146523, [3835.0, 19.5, 5004.5, 358.5, 9885.0]),
    (511699.0119616, [5485.946, 1168.0, 604.0, 9398.5]),
    (932156.515187, [4178.0, 270.0, 773.0, 8946.0]),
    (505453.295, [44.324, 4961.5, 1053.0, 7954.0]),
]


class TestExactShares:
    def test_single_request_gets_everything(self):
        assert exact_shares(1.2345, [3.0]) == [1.2345]

    def test_zero_requests_raise(self):
        with pytest.raises(ValueError):
            exact_shares(1.0, [])

    def test_zero_total_splits_to_zeros(self):
        shares = exact_shares(0.0, [1.0, 2.0, 3.0])
        assert sum(shares) == 0.0

    def test_zero_weights_fall_back_to_equal(self):
        shares = exact_shares(3.0, [0.0, 0.0, 0.0])
        assert shares[0] == shares[1] == pytest.approx(1.0)
        total = 0.0
        for s in shares:
            total += s
        assert total == 3.0

    def test_proportionality_is_approximate(self):
        shares = exact_shares(10.0, [1.0, 3.0])
        assert shares[0] == pytest.approx(2.5)
        assert shares[1] == pytest.approx(7.5)

    @given(total=st.floats(min_value=0.0, max_value=1e6,
                           allow_nan=False, allow_infinity=False),
           weights=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                      allow_nan=False, allow_infinity=False),
                            min_size=1, max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_left_to_right_sum_is_exact(self, total, weights):
        shares = exact_shares(total, weights)
        assert len(shares) == len(weights)
        acc = 0.0
        for share in shares:
            acc += share
        assert acc == total

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize("total, weights", UNBREAKABLE_TIES)
    def test_tie_that_nudging_cannot_break(self, total, weights, sign):
        """Stepping the largest prefix share never moves the prefix sum off
        these ties; the grid fallback still conserves the total exactly and
        keeps every share within 128 ulps of its proportional value."""
        total *= sign
        shares = exact_shares(total, weights)
        assert len(shares) == len(weights)
        acc = 0.0
        for share in shares:
            acc += share
        assert acc == total
        w_sum = math.fsum(weights)
        for share, weight in zip(shares, weights):
            assert abs(share - total * weight / w_sum) <= 128 * math.ulp(total)

    def test_nan_total_raises(self):
        """No shares sum back to NaN, so none are returned."""
        with pytest.raises(ArithmeticError, match="could not reconcile"):
            exact_shares(math.nan, [1.0, 2.0])


# -- split_charges -------------------------------------------------------------

class TestSplitCharges:
    BREAKDOWN = {
        "compute.spmv": 0.37, "compute.vector": 0.11,
        "compute.precond": 0.23, "comm.halo": 0.05,
        "comm.allreduce": 0.41, "recovery.compute": 0.07,
    }

    def test_every_phase_conserved_exactly(self):
        weights = [6.0, 3.0, 11.0, 1.0]
        per_request = split_charges(self.BREAKDOWN, weights)
        assert len(per_request) == 4
        for phase, total in self.BREAKDOWN.items():
            acc = 0.0
            for request in per_request:
                acc += request[phase]
            assert acc == total

    def test_volume_phases_follow_weights(self):
        per_request = split_charges({"compute.spmv": 9.0}, [1.0, 2.0])
        assert per_request[0]["compute.spmv"] == pytest.approx(3.0)
        assert per_request[1]["compute.spmv"] == pytest.approx(6.0)

    def test_message_phases_amortized_equally(self):
        per_request = split_charges({"comm.allreduce": 9.0}, [1.0, 2.0])
        assert per_request[0]["comm.allreduce"] == \
            pytest.approx(per_request[1]["comm.allreduce"])

    def test_zero_requests_raise(self):
        with pytest.raises(ValueError):
            split_charges({"comm.halo": 1.0}, [])

    def test_unbreakable_tie_conserved_in_every_phase(self):
        total, weights = UNBREAKABLE_TIES[0]
        breakdown = {"compute.spmv": total, "comm.halo": total}
        per_request = split_charges(breakdown, weights)
        for phase, phase_total in breakdown.items():
            acc = 0.0
            for request in per_request:
                acc += request[phase]
            assert acc == phase_total

    @given(breakdown=st.dictionaries(
        st.sampled_from(["compute.spmv", "compute.precond", "comm.halo",
                         "comm.allreduce", "checkpoint"]),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        min_size=1, max_size=5),
        weights=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                   allow_nan=False),
                         min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_property_per_phase_exact_conservation(self, breakdown, weights):
        per_request = split_charges(breakdown, weights)
        for phase, total in breakdown.items():
            acc = 0.0
            for request in per_request:
                acc += request[phase]
            assert acc == total


# -- percentile ----------------------------------------------------------------

class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 99.0) == 4.0
        assert percentile(values, 0.0) == 1.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


# -- ServiceStats --------------------------------------------------------------

class TestServiceStats:
    def make_stats(self):
        stats = ServiceStats()
        stats.record_batch(2)
        stats.record_request(make_result(0, "alice", width=2, column=0,
                                         simulated_time=0.6,
                                         charges={"compute.spmv": 0.4,
                                                  "comm.halo": 0.2},
                                         queue_wait=0.01, solve=0.05))
        stats.record_request(make_result(1, "bob", width=2, column=1,
                                         simulated_time=0.4,
                                         charges={"compute.spmv": 0.3,
                                                  "comm.halo": 0.1},
                                         queue_wait=0.02, solve=0.05))
        stats.record_batch(1)
        stats.record_request(make_result(2, "alice", width=1,
                                         simulated_time=0.5,
                                         charges={"compute.spmv": 0.5},
                                         queue_wait=0.03, solve=0.04))
        stats.record_failure()
        return stats

    def test_counters(self):
        stats = self.make_stats()
        assert stats.n_requests == 3
        assert stats.n_batches == 2
        assert stats.n_coalesced == 2
        assert stats.n_failed == 1
        assert stats.batch_widths == [2, 1]
        assert stats.mean_batch_width == pytest.approx(1.5)

    def test_tenant_ledgers_accumulate(self):
        stats = self.make_stats()
        alice = stats.tenants["alice"]
        assert alice.n_requests == 2
        assert alice.simulated_time == pytest.approx(1.1)
        assert alice.charges["compute.spmv"] == pytest.approx(0.9)
        assert stats.tenants["bob"].charges["comm.halo"] == pytest.approx(0.1)

    def test_aggregate_excludes_wallclock(self):
        aggregate = self.make_stats().aggregate()
        assert "latencies_s" not in aggregate
        assert not any("wait" in key for key in aggregate)
        assert aggregate["tenants"]["alice"]["n_requests"] == 2
        # Tenants are emitted in sorted order for byte-stable JSON.
        assert list(aggregate["tenants"]) == ["alice", "bob"]

    def test_latency_summary(self):
        summary = self.make_stats().latency_summary()
        assert summary["queue_wait_p50_s"] == 0.02
        assert summary["latency_p99_s"] == pytest.approx(0.07)

    def test_json_round_trip(self):
        stats = self.make_stats()
        payload = json.dumps(stats.to_dict())
        restored = ServiceStats.from_dict(json.loads(payload))
        assert restored.to_dict() == stats.to_dict()
        assert restored.aggregate() == stats.aggregate()

    def test_tenant_usage_round_trip(self):
        usage = TenantUsage("t", n_requests=2, n_converged=2, iterations=10,
                            simulated_time=1.5, charges={"comm.halo": 0.3})
        assert TenantUsage.from_dict(
            json.loads(json.dumps(usage.to_dict()))).to_dict() \
            == usage.to_dict()
