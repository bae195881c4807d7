"""Batching-policy registry and the built-in policies.

Covers the policy contract of :mod:`repro.service.policies` -- disjoint
batches, FIFO member order, ``k_max`` respected, drain flushes everything --
for the registered policies ``"fifo_window"`` and ``"greedy_width"`` (the
string literals double as the R003 registered-name coverage).
"""

from __future__ import annotations

import pytest

from repro.service import BATCHING_POLICIES
from repro.service.jobs import JobHandle, ServiceRequest
from repro.service.policies import fifo_window, greedy_width


def make_request(seq, key="k", *, coalescable=True, enqueued_at=0.0):
    return ServiceRequest(
        seq=seq, matrix_id="m", rhs=None, spec=None, key=key,
        coalescable=coalescable, tenant="t",
        handle=JobHandle(seq, "m", "t"), enqueued_at=enqueued_at)


def seqs(batches):
    return [[req.seq for req in batch] for batch in batches]


# -- registry ------------------------------------------------------------------

class TestRegistry:
    def test_builtin_names_registered(self):
        names = BATCHING_POLICIES.names()
        assert "fifo_window" in names
        assert "greedy_width" in names

    def test_get_returns_the_policy_function(self):
        assert BATCHING_POLICIES.get("fifo_window") is fifo_window
        assert BATCHING_POLICIES.get("greedy_width") is greedy_width


# -- shared contract -----------------------------------------------------------

@pytest.mark.parametrize("policy_name", ["fifo_window", "greedy_width"])
class TestPolicyContract:
    def test_empty_queue_yields_no_batches(self, policy_name):
        policy = BATCHING_POLICIES.get(policy_name)
        assert policy([], now=10.0, window_s=1.0, k_max=4) == []

    def test_batches_disjoint_and_bounded(self, policy_name):
        policy = BATCHING_POLICIES.get(policy_name)
        pending = [make_request(i, key="a" if i % 2 else "b")
                   for i in range(11)]
        batches = policy(pending, now=100.0, window_s=1.0, k_max=3)
        seen = [req.seq for batch in batches for req in batch]
        assert len(seen) == len(set(seen))
        assert all(len(batch) <= 3 for batch in batches)

    def test_members_in_fifo_order(self, policy_name):
        policy = BATCHING_POLICIES.get(policy_name)
        pending = [make_request(i) for i in range(9)]
        batches = policy(pending, now=100.0, window_s=1.0, k_max=4)
        for batch in batches:
            order = [req.seq for req in batch]
            assert order == sorted(order)

    def test_drain_flushes_everything(self, policy_name):
        policy = BATCHING_POLICIES.get(policy_name)
        pending = [make_request(i, key=f"k{i % 3}", enqueued_at=99.9)
                   for i in range(7)]
        batches = policy(pending, now=100.0, window_s=60.0, k_max=4,
                         drain=True)
        assert sorted(req.seq for b in batches for req in b) == list(range(7))

    def test_keys_never_mix(self, policy_name):
        policy = BATCHING_POLICIES.get(policy_name)
        pending = [make_request(i, key=f"k{i % 2}") for i in range(8)]
        batches = policy(pending, now=100.0, window_s=0.0, k_max=8)
        for batch in batches:
            assert len({req.key for req in batch}) == 1

    def test_non_coalescable_dispatch_alone(self, policy_name):
        policy = BATCHING_POLICIES.get(policy_name)
        pending = [make_request(0), make_request(1, coalescable=False),
                   make_request(2)]
        batches = policy(pending, now=100.0, window_s=0.0, k_max=8)
        solo = [b for b in batches if any(not r.coalescable for r in b)]
        assert solo and all(len(b) == 1 for b in solo)

    def test_deterministic_given_same_queue(self, policy_name):
        policy = BATCHING_POLICIES.get(policy_name)
        pending = [make_request(i, key=f"k{i % 3}", enqueued_at=0.1 * i)
                   for i in range(10)]
        first = seqs(policy(list(pending), now=5.0, window_s=1.0, k_max=4))
        second = seqs(policy(list(pending), now=5.0, window_s=1.0, k_max=4))
        assert first == second


# -- fifo_window ---------------------------------------------------------------

class TestFifoWindow:
    def test_waits_inside_window(self):
        pending = [make_request(0, enqueued_at=10.0)]
        assert fifo_window(pending, now=10.5, window_s=1.0, k_max=4) == []

    def test_dispatches_after_window_expiry(self):
        pending = [make_request(0, enqueued_at=10.0)]
        batches = fifo_window(pending, now=11.0, window_s=1.0, k_max=4)
        assert seqs(batches) == [[0]]

    def test_full_batch_dispatches_before_expiry(self):
        pending = [make_request(i, enqueued_at=10.0) for i in range(4)]
        batches = fifo_window(pending, now=10.1, window_s=60.0, k_max=4)
        assert seqs(batches) == [[0, 1, 2, 3]]

    def test_overflow_splits_deterministically(self):
        # 10 key-mates with k_max=4: the expired head drains as 4+4+2 in
        # strict FIFO order.
        pending = [make_request(i, enqueued_at=0.0) for i in range(10)]
        batches = fifo_window(pending, now=100.0, window_s=1.0, k_max=4)
        assert seqs(batches) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_young_head_blocks_younger_requests(self):
        # Nothing overtakes the unexpired head, even a full younger group.
        pending = [make_request(0, key="a", enqueued_at=10.0)] + [
            make_request(i, key="b", enqueued_at=10.0) for i in range(1, 5)]
        assert fifo_window(pending, now=10.2, window_s=1.0, k_max=4) == []

    def test_expired_head_releases_queue(self):
        pending = [make_request(0, key="a", enqueued_at=0.0)] + [
            make_request(i, key="b", enqueued_at=9.9) for i in range(1, 5)]
        batches = fifo_window(pending, now=10.0, window_s=1.0, k_max=4)
        assert seqs(batches) == [[0], [1, 2, 3, 4]]

    def test_non_coalescable_head_dispatches_immediately(self):
        pending = [make_request(0, coalescable=False, enqueued_at=10.0)]
        batches = fifo_window(pending, now=10.0, window_s=60.0, k_max=4)
        assert seqs(batches) == [[0]]


# -- greedy_width --------------------------------------------------------------

class TestGreedyWidth:
    def test_widest_group_first(self):
        pending = [make_request(0, key="narrow", enqueued_at=0.0)] + [
            make_request(i, key="wide", enqueued_at=0.0)
            for i in range(1, 4)]
        batches = greedy_width(pending, now=100.0, window_s=1.0, k_max=8)
        assert seqs(batches) == [[1, 2, 3], [0]]

    def test_full_chunks_ship_before_expiry(self):
        pending = [make_request(i, enqueued_at=10.0) for i in range(9)]
        batches = greedy_width(pending, now=10.0, window_s=60.0, k_max=4)
        # Two full chunks dispatch now; the remainder waits out its window.
        assert seqs(batches) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_remainder_dispatches_after_expiry(self):
        pending = [make_request(i, enqueued_at=10.0) for i in range(9)]
        batches = greedy_width(pending, now=70.1, window_s=60.0, k_max=4)
        assert seqs(batches) == [[0, 1, 2, 3], [4, 5, 6, 7], [8]]

    def test_width_ties_broken_by_oldest(self):
        pending = [make_request(0, key="b"), make_request(1, key="a")]
        batches = greedy_width(pending, now=100.0, window_s=1.0, k_max=8)
        assert seqs(batches) == [[0], [1]]
