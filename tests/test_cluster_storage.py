"""Tests for the reliable storage of static data."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import MachineModel, Phase, VirtualCluster
from repro.cluster.cost_model import CostLedger
from repro.cluster.reliable_storage import ReliableStorage


@pytest.fixture
def storage():
    model = MachineModel(jitter_rel_std=0.0)
    return ReliableStorage(CostLedger(model=model)), model


class TestReliableStorage:
    def test_put_and_retrieve(self, storage):
        store, _ = storage
        store.put("b", np.arange(10.0))
        out = store.retrieve("b")
        assert np.array_equal(out, np.arange(10.0))

    def test_missing_key_raises(self, storage):
        store, _ = storage
        with pytest.raises(KeyError):
            store.retrieve("missing")

    def test_block_convention(self, storage):
        store, _ = storage
        store.put_block("A_rows", 3, np.ones(5))
        assert ("A_rows", 3) in store
        out = store.retrieve_block("A_rows", 3)
        assert out.shape == (5,)

    def test_retrieval_charged_to_recovery(self, storage):
        store, _ = storage
        store.put("x", np.ones(1000))
        store.retrieve("x")
        ledger = store._ledger
        assert ledger.total_time([Phase.STORAGE_RETRIEVE]) > 0
        assert ledger.total_elements([Phase.STORAGE_RETRIEVE]) == 1000

    def test_uncharged_retrieval(self, storage):
        store, _ = storage
        store.put("x", np.ones(10))
        store.retrieve("x", charge=False)
        assert store._ledger.total_time() == 0.0

    def test_sparse_matrix_element_count(self, storage):
        store, _ = storage
        block = sp.random(50, 50, density=0.1, format="csr", random_state=0)
        store.put("block", block)
        store.retrieve("block")
        assert store._ledger.total_elements([Phase.STORAGE_RETRIEVE]) == block.nnz

    def test_survives_node_failures(self):
        cluster = VirtualCluster(4)
        cluster.storage.put("data", np.arange(4.0))
        cluster.fail_nodes([0, 1, 2, 3])
        assert np.array_equal(cluster.storage.retrieve("data"), np.arange(4.0))

    def test_retrieval_counter(self, storage):
        store, _ = storage
        store.put("a", 1.0)
        store.retrieve("a")
        store.retrieve("a")
        assert store.retrieval_count == 2

    def test_keys_and_items(self, storage):
        store, _ = storage
        store.put("a", 1)
        store.put("b", 2)
        assert set(store.keys()) == {"a", "b"}
        assert dict(store.items()) == {"a": 1, "b": 2}
