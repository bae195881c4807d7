"""Tests for nodes and node memories (failure semantics)."""

import numpy as np
import pytest

from repro.cluster.errors import NodeFailedError
from repro.cluster.node import Node, NodeStatus


class TestNodeLifecycle:
    def test_initial_state(self):
        node = Node(rank=3)
        assert node.rank == 3
        assert node.status is NodeStatus.ALIVE
        assert node.is_alive and not node.is_failed
        assert node.failure_count == 0

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            Node(rank=-1)

    def test_fail_erases_memory(self):
        node = Node(rank=0)
        node.memory["key"] = np.arange(5)
        node.fail()
        assert node.is_failed
        assert node.failure_count == 1

    def test_replace_requires_failed(self):
        node = Node(rank=0)
        with pytest.raises(ValueError):
            node.replace()

    def test_replace_after_failure(self):
        node = Node(rank=0)
        node.memory["key"] = 1
        node.fail()
        node.replace()
        assert node.status is NodeStatus.REPLACEMENT
        assert node.is_alive
        assert "key" not in node.memory

    def test_multiple_failures_counted(self):
        node = Node(rank=0)
        node.fail()
        node.replace()
        node.fail()
        assert node.failure_count == 2


class TestNodeMemory:
    def test_set_get_delete(self):
        node = Node(rank=0)
        node.memory["a"] = 42
        assert node.memory["a"] == 42
        assert "a" in node.memory
        del node.memory["a"]
        assert "a" not in node.memory

    def test_get_default(self):
        node = Node(rank=0)
        assert node.memory.get("missing", "fallback") == "fallback"

    def test_len_and_iter(self):
        node = Node(rank=0)
        node.memory["x"] = 1
        node.memory["y"] = 2
        assert len(node.memory) == 2
        assert set(iter(node.memory)) == {"x", "y"}

    def test_access_after_failure_raises(self):
        node = Node(rank=2)
        node.memory["data"] = np.ones(3)
        node.fail()
        with pytest.raises(NodeFailedError):
            _ = node.memory["data"]
        with pytest.raises(NodeFailedError):
            node.memory["new"] = 1
        with pytest.raises(NodeFailedError):
            "data" in node.memory

    def test_failed_error_carries_rank(self):
        node = Node(rank=7)
        node.fail()
        with pytest.raises(NodeFailedError) as excinfo:
            node.memory.keys()
        assert excinfo.value.rank == 7

    def test_nbytes_counts_arrays(self):
        node = Node(rank=0)
        node.memory["arr"] = np.zeros(100, dtype=np.float64)
        assert node.memory.nbytes() >= 800

    def test_pop(self):
        node = Node(rank=0)
        node.memory["a"] = 5
        assert node.memory.pop("a") == 5
        assert node.memory.pop("a", None) is None
