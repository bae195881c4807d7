"""Tests for the latency-bandwidth cost model and ledger."""

import numpy as np
import pytest

from repro.cluster.cost_model import CostLedger, MachineModel, Phase


@pytest.fixture
def model():
    return MachineModel(jitter_rel_std=0.0)


@pytest.fixture
def ledger(model):
    return CostLedger(model=model)


class TestMachineModel:
    def test_message_time_formula(self, model):
        latency, k = 2e-6, 100
        expected = latency + k * model.element_transfer_time
        assert model.message_time(latency, k) == pytest.approx(expected)

    def test_message_time_zero_elements_is_free(self, model):
        assert model.message_time(1e-6, 0) == 0.0

    def test_spmv_time_scales_with_nnz(self, model):
        assert model.spmv_time(2000) == pytest.approx(2 * model.spmv_time(1000))

    def test_vector_op_time(self, model):
        assert model.vector_op_time(1000, 2.0) == pytest.approx(
            2000 / model.vector_flop_rate
        )

    def test_allreduce_grows_with_nodes(self, model):
        assert model.allreduce_time(16) > model.allreduce_time(4)

    def test_allreduce_single_node_free(self, model):
        assert model.allreduce_time(1) == 0.0

    def test_allreduce_log_scaling(self, model):
        # 8 nodes -> 3 levels, 2 nodes -> 1 level
        assert model.allreduce_time(8, 1) == pytest.approx(
            3 * model.allreduce_time(2, 1)
        )

    def test_storage_time(self, model):
        assert model.storage_retrieve_time(0) == 0.0
        assert model.storage_retrieve_time(10) > model.storage_latency

    def test_invalid_parameters_rejected(self):
        with pytest.raises(Exception):
            MachineModel(latency_intra=-1.0)
        with pytest.raises(Exception):
            MachineModel(spmv_flop_rate=0.0)


class TestCostLedger:
    def test_add_and_total(self, ledger):
        ledger.add_time(Phase.SPMV_COMPUTE, 1.0)
        ledger.add_time(Phase.HALO_COMM, 0.5)
        assert ledger.total_time() == pytest.approx(1.5)

    def test_negative_time_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.add_time(Phase.SPMV_COMPUTE, -1.0)

    def test_phase_filtering(self, ledger):
        ledger.add_time(Phase.SPMV_COMPUTE, 1.0)
        ledger.add_time(Phase.RECOVERY_COMM, 2.0)
        assert ledger.iteration_time() == pytest.approx(1.0)
        assert ledger.recovery_time() == pytest.approx(2.0)

    def test_traffic_counters(self, ledger):
        ledger.add_traffic(Phase.HALO_COMM, 3, 300)
        ledger.add_traffic(Phase.HALO_COMM, 2, 200)
        assert ledger.total_messages() == 5
        assert ledger.total_elements() == 500
        assert ledger.total_elements([Phase.RECOVERY_COMM]) == 0

    def test_snapshot_and_since(self, ledger):
        ledger.add_time(Phase.SPMV_COMPUTE, 1.0)
        snap = ledger.snapshot()
        ledger.add_time(Phase.SPMV_COMPUTE, 0.25)
        ledger.add_time(Phase.HALO_COMM, 0.5)
        assert ledger.since(snap) == pytest.approx(0.75)
        assert ledger.since(snap, [Phase.HALO_COMM]) == pytest.approx(0.5)

    def test_since_accumulates_in_sorted_key_order(self, ledger):
        """Regression (lint R005): ``since`` must sum per-phase deltas in
        sorted-key order, not set-iteration order -- float addition does not
        commute bitwise and set order is hash-randomised per process."""
        deltas = {
            Phase.SPMV_COMPUTE: 0.1,
            Phase.HALO_COMM: 1e-17,
            Phase.ALLREDUCE_COMM: 0.3,
            Phase.RECOVERY_COMM: 1e-16,
            Phase.VECTOR_COMPUTE: 0.7,
        }
        snap = ledger.snapshot()
        for phase, delta in deltas.items():
            ledger.add_time(phase, delta)
        expected = 0.0
        for phase in sorted(deltas):
            expected += deltas[phase]
        assert ledger.since(snap) == expected  # exact, not approx

    def test_reset(self, ledger):
        ledger.add_time(Phase.SPMV_COMPUTE, 1.0)
        ledger.add_traffic(Phase.SPMV_COMPUTE, 1, 1)
        ledger.reset()
        assert ledger.total_time() == 0.0
        assert ledger.total_messages() == 0

    def test_breakdown_sorted(self, ledger):
        ledger.add_time(Phase.HALO_COMM, 1.0)
        ledger.add_time(Phase.SPMV_COMPUTE, 1.0)
        assert list(ledger.breakdown().keys()) == sorted(ledger.times.keys())

    def test_jitter_applied_when_rng_set(self, model):
        noisy_model = MachineModel(jitter_rel_std=0.2)
        ledger = CostLedger(model=noisy_model, rng=np.random.default_rng(0))
        charged = [ledger.add_time(Phase.SPMV_COMPUTE, 1.0) for _ in range(20)]
        assert len(set(charged)) > 1
        assert all(c > 0 for c in charged)
