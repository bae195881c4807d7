"""Tests for failure events, the injector and the ULFM-like runtime."""

import numpy as np
import pytest

from repro.cluster import FailureEvent, FailureInjector, NodeStatus, VirtualCluster
from repro.cluster.failure import UlfmRuntime
from repro.utils.validation import ValidationError


@pytest.fixture
def cluster():
    return VirtualCluster(6)


class TestFailureEvent:
    def test_basic(self):
        event = FailureEvent(iteration=10, ranks=(1, 2))
        assert event.n_failures == 2

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValidationError):
            FailureEvent(iteration=-1, ranks=(0,))

    def test_empty_ranks_rejected(self):
        with pytest.raises(ValidationError):
            FailureEvent(iteration=0, ranks=())

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValidationError):
            FailureEvent(iteration=0, ranks=(1, 1))

    def test_overlap_marker(self):
        event = FailureEvent(iteration=5, ranks=(3,), during_recovery_of=0)
        assert event.during_recovery_of == 0


class TestFailureInjector:
    def test_events_due_by_iteration(self):
        injector = FailureInjector([
            FailureEvent(10, (0,)), FailureEvent(20, (1,)),
        ])
        assert len(injector.events_due(5)) == 0
        assert len(injector.events_due(10)) == 1
        assert len(injector.events_due(25)) == 2

    def test_trigger_fails_nodes(self, cluster):
        injector = FailureInjector([FailureEvent(0, (2, 4))])
        (idx, _event), = injector.events_due(0)
        injector.trigger(idx, cluster.nodes)
        assert cluster.node(2).is_failed and cluster.node(4).is_failed
        assert cluster.node(0).is_alive

    def test_trigger_skips_already_failed_ranks(self, cluster):
        # Stochastic schedules can name a rank twice before a recovery
        # replaced it; the second strike must be a deterministic no-op for
        # that rank (one failure episode, one memory wipe), not a crash or
        # a double-kill.
        injector = FailureInjector([
            FailureEvent(0, (2, 4)), FailureEvent(1, (4, 5)),
        ])
        injector.trigger(0, cluster.nodes)
        assert cluster.node(4).failure_count == 1
        event = injector.trigger(1, cluster.nodes)
        assert event.ranks == (4, 5)
        assert cluster.node(4).is_failed and cluster.node(5).is_failed
        assert cluster.node(4).failure_count == 1
        assert cluster.node(5).failure_count == 1
        assert not injector.pending_events()

    def test_trigger_twice_rejected(self, cluster):
        injector = FailureInjector([FailureEvent(0, (1,))])
        injector.trigger(0, cluster.nodes)
        with pytest.raises(ValidationError):
            injector.trigger(0, cluster.nodes)

    def test_triggered_events_not_due_again(self, cluster):
        injector = FailureInjector([FailureEvent(0, (1,))])
        injector.trigger(0, cluster.nodes)
        assert injector.events_due(100) == []
        assert not injector.pending_events()

    def test_overlapping_events_separate_queue(self):
        injector = FailureInjector([
            FailureEvent(10, (0,)),
            FailureEvent(10, (1,), during_recovery_of=0),
        ])
        assert len(injector.events_due(10, overlapping=False)) == 1
        assert len(injector.events_due(10, overlapping=True)) == 1

    def test_max_simultaneous(self):
        injector = FailureInjector([
            FailureEvent(10, (0, 1, 2)), FailureEvent(20, (3,)),
        ])
        assert injector.max_simultaneous_failures() == 3

    def test_max_simultaneous_counts_all_events_of_one_iteration(self):
        split = FailureInjector([FailureEvent(5, (1, 2)),
                                 FailureEvent(5, (3, 4))])
        assert split.max_simultaneous_failures() == 4
        # Overlapping events fail before the same recovery ends; a rank
        # named twice fails once.
        overlap = FailureInjector([
            FailureEvent(5, (1, 2)),
            FailureEvent(5, (2, 3), during_recovery_of=0),
            FailureEvent(9, (4,)),
        ])
        assert overlap.max_simultaneous_failures() == 3

    def test_empty_schedule(self):
        injector = FailureInjector()
        assert injector.events == []
        assert injector.events_due(10**6) == []
        assert not injector.pending_events()
        assert injector.max_simultaneous_failures() == 0

    def test_out_of_range_rank_rejected(self, cluster):
        injector = FailureInjector([FailureEvent(0, (99,))])
        with pytest.raises(ValidationError):
            injector.trigger(0, cluster.nodes)


class TestUlfmRuntime:
    def test_detect_failures(self, cluster):
        runtime = UlfmRuntime(cluster.nodes)
        assert runtime.detect_failures() == []
        cluster.fail_nodes([1, 3])
        assert runtime.detect_failures() == [1, 3]
        # already reported -> not reported again
        assert runtime.detect_failures() == []

    def test_provide_replacements(self, cluster):
        runtime = cluster.ulfm
        cluster.fail_nodes([1])
        runtime.detect_failures()
        replaced = runtime.provide_replacements([1])
        assert replaced == [1]
        assert cluster.node(1).status is NodeStatus.REPLACEMENT
        assert runtime.detect_failures() == []
        # A replaced rank that fails again is reported again.
        cluster.fail_nodes([1])
        assert runtime.detect_failures() == [1]

    def test_replace_alive_node_rejected(self, cluster):
        with pytest.raises(ValidationError):
            cluster.ulfm.provide_replacements([0])

    def test_detect_failures_reports_each_batch_sorted(self, cluster):
        runtime = UlfmRuntime(cluster.nodes)
        cluster.fail_nodes([5, 1])
        assert runtime.detect_failures() == [1, 5]
        cluster.fail_nodes([3])
        assert runtime.detect_failures() == [3]

    def test_provide_replacements_sorts_and_deduplicates(self, cluster):
        cluster.fail_nodes([4, 2])
        assert cluster.ulfm.provide_replacements([4, 2, 4]) == [2, 4]
        assert [cluster.node(r).status for r in (2, 4)] == \
            [NodeStatus.REPLACEMENT] * 2
        assert cluster.failed_ranks() == []

    def test_replacement_starts_with_empty_memory(self, cluster):
        cluster.node(3).memory["block"] = np.ones(4)
        cluster.fail_nodes([3])
        cluster.ulfm.provide_replacements([3])
        node = cluster.node(3)
        assert node.is_alive
        assert len(node.memory) == 0
        assert "block" not in node.memory


class TestClusterFacade:
    def test_fail_and_replace(self, cluster):
        cluster.fail_nodes([0, 5])
        assert cluster.failed_ranks() == [0, 5]
        cluster.replace_nodes([0, 5])
        assert cluster.failed_ranks() == []

    def test_describe(self, cluster):
        assert "N=6" in cluster.describe()

    def test_invalid_rank(self, cluster):
        with pytest.raises(Exception):
            cluster.node(17)

    def test_simulated_time_accumulates(self, cluster):
        assert cluster.simulated_time() == 0.0
        cluster.comm.allreduce_sum(np.ones((cluster.n_nodes, 1)))
        assert cluster.simulated_time() > 0.0
        cluster.ledger.reset()
        assert cluster.simulated_time() == 0.0
