"""Tests for the ESR protocol (redundant storage and block recovery).

Single right-hand-side operands are ``(n, 1)`` multi-vectors (the protocol's
default ``n_cols=1``); ``TestBlockStaging`` covers ``k > 1``.
"""

import numpy as np
import pytest

from repro.cluster import MachineModel, Phase, UnrecoverableStateError, VirtualCluster
from repro.core.esr import _ESR_KEY, _SCALAR_KEY, ESRProtocol
from repro.core.redundancy import REDUNDANCY_SCHEMES, RedundancyScheme
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedMultiVector,
    distributed_spmv,
)
from repro.matrices import poisson_2d


@pytest.fixture
def setup():
    cluster = VirtualCluster(6, machine=MachineModel(jitter_rel_std=0.0))
    a = poisson_2d(12)  # n = 144
    partition = BlockRowPartition(144, 6)
    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    context = CommunicationContext.from_matrix(dist)
    return cluster, partition, dist, context


def make_p(cluster, partition, iteration):
    """A k = 1 search-direction block."""
    return make_block(cluster, partition, iteration, k=1)


def make_block(cluster, partition, iteration, k=3):
    values = (np.arange(partition.n * k, dtype=float).reshape(partition.n, k)
              + 1000.0 * iteration)
    return DistributedMultiVector.from_global(cluster, partition,
                                              f"P{iteration}", values)


class TestStorage:
    def test_after_spmv_charges_redundancy(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        p = make_p(cluster, partition, 0)
        esr.after_spmv(p, 0)
        assert cluster.ledger.total_time([Phase.REDUNDANCY_COMM]) > 0

    def test_phi_zero_charges_nothing(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 0))
        esr.after_spmv(make_p(cluster, partition, 0), 0)
        assert cluster.ledger.total_time([Phase.REDUNDANCY_COMM]) == 0.0

    def test_two_generations_retained(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        for j in range(4):
            esr.after_spmv(make_p(cluster, partition, j), j)
        assert esr.available_generations() == [2, 3]

    def test_scalar_replication(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        esr.store_replicated_scalars(5, beta=0.25)
        assert esr.recover_replicated_vector("beta") == [0.25]

    def test_scalar_survives_failures(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        esr.store_replicated_scalars(5, beta=0.75)
        cluster.fail_nodes([0, 1, 2])
        assert esr.recover_replicated_vector("beta") == [0.75]

    def test_missing_scalar_raises(self, setup):
        cluster, _, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        with pytest.raises(UnrecoverableStateError):
            esr.recover_replicated_vector("beta")


class TestRecovery:
    @pytest.mark.parametrize("phi,failed", [
        (1, [2]),
        (2, [2, 3]),
        (3, [0, 1, 2]),
        (3, [1, 3, 5]),
    ])
    def test_recover_blocks_after_failures(self, setup, phi, failed):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, phi))
        p_prev = make_p(cluster, partition, 6)
        p_cur = make_p(cluster, partition, 7)
        esr.after_spmv(p_prev, 6)
        esr.after_spmv(p_cur, 7)
        expected_prev = p_prev.to_global()
        expected_cur = p_cur.to_global()
        cluster.fail_nodes(failed)
        for rank in failed:
            start, stop = partition.range_of(rank)
            rec_cur = esr.recover_block(rank, 7)
            rec_prev = esr.recover_block(rank, 6)
            assert np.array_equal(rec_cur, expected_cur[start:stop])
            assert np.array_equal(rec_prev, expected_prev[start:stop])

    def test_recovery_charges_communication(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        esr.after_spmv(make_p(cluster, partition, 0), 0)
        cluster.fail_nodes([3])
        esr.recover_block(3, 0)
        assert cluster.ledger.total_time([Phase.RECOVERY_COMM]) > 0

    def test_unretained_generation_rejected(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        for j in range(3):
            esr.after_spmv(make_p(cluster, partition, j), j)
        cluster.fail_nodes([1])
        with pytest.raises(UnrecoverableStateError):
            esr.recover_block(1, 0)  # generation 0 was dropped

    def test_too_many_failures_unrecoverable(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        esr.after_spmv(make_p(cluster, partition, 0), 0)
        # phi = 1 cannot tolerate the loss of three adjacent nodes: some
        # elements only had copies on the failed neighbours.
        cluster.fail_nodes([1, 2, 3])
        with pytest.raises(UnrecoverableStateError):
            esr.recover_block(2, 0)

    def test_holders_listing(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        esr.after_spmv(make_p(cluster, partition, 0), 0)
        holders = esr.holders_with_copies(2, 0)
        assert len(holders) >= 2
        assert 2 not in holders
        cluster.fail_nodes([holders[0]])
        assert holders[0] not in esr.holders_with_copies(2, 0)

    def test_failed_holder_does_not_store(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        p = make_p(cluster, partition, 0)
        cluster.fail_nodes([0])
        # Storing with a failed holder present must not raise.
        esr.after_spmv(p, 0)
        assert 0 not in esr.holders_with_copies(1, 0)

    @pytest.mark.parametrize("scheme", ["copies", "rs_parity"])
    def test_failed_store_does_not_claim_its_generation(self, setup, scheme):
        """A store that raises leaves its slot empty: recovering from it
        fails loudly instead of returning the slot's older copies."""
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, REDUNDANCY_SCHEMES.get(scheme)(context, 2))
        esr.after_spmv(make_p(cluster, partition, 0), 0)
        p2 = make_p(cluster, partition, 2)  # same slot as iteration 0
        cluster.fail_nodes([4])
        cluster.replace_nodes([4])  # p2's block on rank 4 is not restored
        with pytest.raises(KeyError):
            esr.after_spmv(p2, 2)
        assert esr.available_generations() == []
        cluster.fail_nodes([1])
        with pytest.raises(UnrecoverableStateError):
            esr.recover_block(1, 2)


class TestRegistration:
    """Stores refill per-slot buffers whose views the holders keep; the
    views are registered per slot and per protocol."""

    def test_replaced_holder_does_not_gain_other_slot(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        esr.after_spmv(make_p(cluster, partition, 0), 0)
        esr.after_spmv(make_p(cluster, partition, 1), 1)
        owner = 2
        holder = esr.holders_with_copies(owner, 1)[0]
        cluster.fail_nodes([holder])
        cluster.replace_nodes([holder])
        esr.after_spmv(make_p(cluster, partition, 2), 2)  # slot 0 only
        assert holder in esr.holders_with_copies(owner, 2)
        # The replacement never received p^(1): it must not count as a
        # holder of that generation.
        assert holder not in esr.holders_with_copies(owner, 1)

    def test_interleaved_protocols_keep_their_own_copies(self, setup):
        """Protocols A, B, A storing into one slot of one cluster: A's
        recovery reads A's latest copies and coefficients, not B's."""
        cluster, partition, _, context = setup
        a = ESRProtocol(cluster, RedundancyScheme(context, 2))
        b = ESRProtocol(cluster, RedundancyScheme(context, 2))
        a.after_spmv(make_p(cluster, partition, 0), 0)
        a.store_replicated_scalars(0, beta=np.array([0.5]))
        b.after_spmv(make_p(cluster, partition, 10), 10)
        b.store_replicated_scalars(10, beta=np.array([7.0]))
        p2 = make_p(cluster, partition, 2)
        a.after_spmv(p2, 2)
        a.store_replicated_scalars(2, beta=np.array([0.25]))
        expected = p2.to_global()
        cluster.fail_nodes([3])
        start, stop = partition.range_of(3)
        assert np.array_equal(a.recover_block(3, 2), expected[start:stop])
        assert np.array_equal(a.recover_replicated_vector("beta"), [0.25])

    def test_interleaved_protocols_keep_their_own_copies_across_a_replacement(
            self, setup):
        """As above, with a failure and replacement between B's store and
        A's: the memory epoch has moved and B's records hold the slot, so
        A's store puts its entries on every holder again, not only on the
        replaced one."""
        cluster, partition, _, context = setup
        a = ESRProtocol(cluster, RedundancyScheme(context, 2))
        b = ESRProtocol(cluster, RedundancyScheme(context, 2))
        a.after_spmv(make_p(cluster, partition, 0), 0)
        a.store_replicated_scalars(0, beta=np.array([0.5]))
        b.after_spmv(make_p(cluster, partition, 10), 10)
        b.store_replicated_scalars(10, beta=np.array([7.0]))
        cluster.fail_nodes([4])
        cluster.replace_nodes([4])
        p2 = make_p(cluster, partition, 2)
        a.after_spmv(p2, 2)
        a.store_replicated_scalars(2, beta=np.array([0.25]))
        expected = p2.to_global()
        cluster.fail_nodes([3])
        start, stop = partition.range_of(3)
        assert np.array_equal(a.recover_block(3, 2), expected[start:stop])
        assert np.array_equal(a.recover_replicated_vector("beta"), [0.25])

    def test_replicated_holder_swaps_its_payload(self, setup):
        """The nodes keep one holder; each store replaces what it reads."""
        cluster, _, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        esr.store_replicated_scalars(1, beta=np.array([0.5]))
        holder = cluster.node(0).memory[_SCALAR_KEY]
        esr.store_replicated_scalars(2, beta=np.array([0.25]))
        assert all(node.memory[_SCALAR_KEY] is holder
                   for node in cluster.nodes)
        assert sorted(holder) == ["beta", "iteration"] and len(holder) == 2
        assert holder["iteration"] == 2
        assert np.array_equal(holder["beta"], [0.25])


def legacy_stores(esr, p, slot):
    """Reference implementation of the former per-(owner, holder) loop."""
    from repro.cluster.errors import NodeFailedError

    stores = {}
    for (owner, holder), local_idx in esr._pattern_local.items():
        if not esr.cluster.node(holder).is_alive:
            continue
        try:
            values = p.get_block(owner)[local_idx]
        except NodeFailedError:
            continue
        stores[(holder, (_ESR_KEY, slot, owner))] = values.copy()
    return stores


def stored_snapshot(esr, slot):
    """Copies of all ESR stores of *slot* currently present on alive nodes.

    The stores are views of a buffer the next store of the slot refills in
    place, so a snapshot taken before that store must copy them.
    """
    out = {}
    for (owner, holder) in esr._pattern_local:
        node = esr.cluster.node(holder)
        if not node.is_alive:
            continue
        key = (_ESR_KEY, slot, owner)
        if key in node.memory:
            out[(holder, key)] = node.memory[key].copy()
    return out


class TestFusedStaging:
    """The one-gather staging must be byte-identical to the former
    per-(owner, holder) gather loop, with or without an SpMV before it, and
    under node failures mid-iteration."""

    def assert_stores_equal(self, actual, expected):
        assert sorted(actual) == sorted(expected)
        for key in expected:
            assert actual[key].tobytes() == expected[key].tobytes()

    def test_byte_identical_without_engine(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        p = make_p(cluster, partition, 3)
        expected = legacy_stores(esr, p, slot=1)
        esr.after_spmv(p, 3)
        self.assert_stores_equal(stored_snapshot(esr, 1), expected)

    def test_byte_identical_after_spmv(self, setup):
        cluster, partition, dist, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        p = make_p(cluster, partition, 4)
        ap = DistributedMultiVector.zeros(cluster, partition, "ap", 1)
        distributed_spmv(dist, p, ap)
        expected = legacy_stores(esr, p, slot=0)
        esr.after_spmv(p, 4)
        self.assert_stores_equal(stored_snapshot(esr, 0), expected)

    def test_byte_identical_after_spmv_of_another_vector(self, setup):
        """The copies come from the stored vector, not from whatever the
        preceding SpMV read."""
        cluster, partition, dist, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 1))
        other = make_p(cluster, partition, 9)
        ap = DistributedMultiVector.zeros(cluster, partition, "ap", 1)
        distributed_spmv(dist, other, ap)
        p = make_p(cluster, partition, 5)
        expected = legacy_stores(esr, p, slot=1)
        esr.after_spmv(p, 5)
        self.assert_stores_equal(stored_snapshot(esr, 1), expected)

    def test_failed_owner_mid_iteration(self, setup):
        """Stores of a failed owner are skipped; the surviving owners'
        copies still match the legacy loop byte for byte."""
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        p0 = make_p(cluster, partition, 0)
        esr.after_spmv(p0, 0)
        baseline = stored_snapshot(esr, 0)
        p2 = make_p(cluster, partition, 2)  # same parity slot as iteration 0
        cluster.fail_nodes([2])
        expected = legacy_stores(esr, p2, slot=0)
        esr.after_spmv(p2, 2)
        actual = stored_snapshot(esr, 0)
        # Fresh stores byte-identical to the legacy loop ...
        for key in expected:
            assert actual[key].tobytes() == expected[key].tobytes()
        # ... and pairs owned by the failed rank keep the previous slot
        # content on surviving holders (legacy semantics: skip, not delete).
        for (holder, key), values in baseline.items():
            if key[2] == 2 and cluster.node(holder).is_alive:
                assert actual[(holder, key)].tobytes() == values.tobytes()

    def test_failed_holder_stores_nothing_fused(self, setup):
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        p = make_p(cluster, partition, 0)
        cluster.fail_nodes([1])
        expected = legacy_stores(esr, p, slot=0)
        esr.after_spmv(p, 0)
        self.assert_stores_equal(stored_snapshot(esr, 0), expected)
        assert all(holder != 1 for holder, _key in stored_snapshot(esr, 0))

    def test_staging_extras_cover_unsent_elements(self, setup):
        """Pattern elements no SpMV message carries (e.g. Chen-style unsent
        extras) must still be stored and recoverable."""
        cluster, partition, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 3))
        p = make_p(cluster, partition, 1)
        esr.after_spmv(p, 1)
        expected = p.to_global()
        cluster.fail_nodes([0])
        rec = esr.recover_block(0, 1)
        start, stop = partition.range_of(0)
        assert np.array_equal(rec, expected[start:stop])


class TestBlockStaging:
    """Block (multi-RHS) redundant stores: byte-identical to the per-pair
    gather loop, per-column identical to k = 1 stores, and whole (rows, k)
    slices under mid-iteration owner failures."""

    def make_esr(self, cluster, context, phi=2, k=3):
        return ESRProtocol(cluster, RedundancyScheme(context, phi), n_cols=k)

    def assert_stores_equal(self, actual, expected):
        assert sorted(actual) == sorted(expected)
        for key in expected:
            assert actual[key].tobytes() == expected[key].tobytes()

    def test_byte_identical_without_engine(self, setup):
        cluster, partition, _, context = setup
        esr = self.make_esr(cluster, context)
        p = make_block(cluster, partition, 3)
        expected = legacy_stores(esr, p, slot=1)
        esr.after_spmv(p, 3)
        self.assert_stores_equal(stored_snapshot(esr, 1), expected)

    def test_per_column_identical_to_k1_protocol(self, setup):
        """Column j of every block store equals what a k = 1 protocol stores
        for column j alone."""
        cluster, partition, _, context = setup
        k = 3
        esr = self.make_esr(cluster, context, k=k)
        p = make_block(cluster, partition, 0, k=k)
        esr.after_spmv(p, 0)
        block_stores = stored_snapshot(esr, 0)
        for j in range(k):
            col_esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
            pj = DistributedMultiVector.from_global(
                cluster, partition, f"col{j}", p.to_global()[:, j:j + 1])
            col_esr.after_spmv(pj, 0)
            col_stores = stored_snapshot(col_esr, 0)
            assert sorted(col_stores) == sorted(block_stores)
            for key, values in col_stores.items():
                assert np.array_equal(block_stores[key][:, j], values[:, 0])

    def test_byte_identical_after_block_spmv(self, setup):
        cluster, partition, dist, context = setup
        esr = self.make_esr(cluster, context)
        p = make_block(cluster, partition, 4)
        ap = DistributedMultiVector.zeros(cluster, partition, "AP", p.n_cols)
        distributed_spmv(dist, p, ap)
        expected = legacy_stores(esr, p, slot=0)
        esr.after_spmv(p, 4)
        self.assert_stores_equal(stored_snapshot(esr, 0), expected)

    def test_byte_identical_after_spmv_of_another_block(self, setup):
        cluster, partition, dist, context = setup
        esr = self.make_esr(cluster, context)
        other = make_block(cluster, partition, 9)
        ap = DistributedMultiVector.zeros(cluster, partition, "AP",
                                          other.n_cols)
        distributed_spmv(dist, other, ap)
        p = make_block(cluster, partition, 5)
        expected = legacy_stores(esr, p, slot=1)
        esr.after_spmv(p, 5)
        self.assert_stores_equal(stored_snapshot(esr, 1), expected)

    def test_failed_owner_pairs_skipped_block(self, setup):
        """With an owner failing mid-iteration the surviving pairs still
        store whole (rows, k) slices, byte-identical to the legacy loop."""
        cluster, partition, _, context = setup
        esr = self.make_esr(cluster, context)
        p0 = make_block(cluster, partition, 0)
        esr.after_spmv(p0, 0)
        baseline = stored_snapshot(esr, 0)
        p2 = make_block(cluster, partition, 2)  # same parity slot as iter 0
        cluster.fail_nodes([2])
        expected = legacy_stores(esr, p2, slot=0)
        esr.after_spmv(p2, 2)
        actual = stored_snapshot(esr, 0)
        for key in expected:
            assert actual[key].shape[1] == p2.n_cols
            assert actual[key].tobytes() == expected[key].tobytes()
        # Pairs owned by the failed rank keep the previous slot content on
        # surviving holders (legacy semantics: skip, not delete).
        for (holder, key), values in baseline.items():
            if key[2] == 2 and cluster.node(holder).is_alive:
                assert actual[(holder, key)].tobytes() == values.tobytes()

    def test_recover_block_returns_all_columns(self, setup):
        cluster, partition, _, context = setup
        esr = self.make_esr(cluster, context, phi=2)
        p_prev = make_block(cluster, partition, 6)
        p_cur = make_block(cluster, partition, 7)
        esr.after_spmv(p_prev, 6)
        esr.after_spmv(p_cur, 7)
        expected_prev = p_prev.to_global()
        expected_cur = p_cur.to_global()
        cluster.fail_nodes([2, 3])
        for rank in (2, 3):
            start, stop = partition.range_of(rank)
            rec_cur = esr.recover_block(rank, 7)
            rec_prev = esr.recover_block(rank, 6)
            assert rec_cur.shape == (stop - start, 3)
            assert np.array_equal(rec_cur, expected_cur[start:stop])
            assert np.array_equal(rec_prev, expected_prev[start:stop])

    def test_replicated_vector_roundtrip(self, setup):
        cluster, partition, _, context = setup
        esr = self.make_esr(cluster, context)
        beta = np.array([0.25, -1.5, 3.0])
        esr.store_replicated_scalars(5, beta=beta)
        beta[0] = 99.0  # driver-side mutation must not leak into the copies
        cluster.fail_nodes([0, 1])
        recovered = esr.recover_replicated_vector("beta")
        assert np.array_equal(recovered, [0.25, -1.5, 3.0])

    def test_replicated_copies_are_read_only(self, setup):
        """One read-only payload serves every alive node: an in-place write
        to a stored copy raises instead of rewriting the others."""
        cluster, partition, _, context = setup
        esr = self.make_esr(cluster, context)
        esr.store_replicated_scalars(5, beta=np.array([0.25, -1.5, 3.0]))
        stored = cluster.node(0).memory[_SCALAR_KEY]
        assert cluster.node(1).memory[_SCALAR_KEY] is stored
        with pytest.raises(ValueError):
            stored["beta"][0] = 99.0
        with pytest.raises(TypeError):
            stored["beta"] = np.zeros(3)
        assert np.array_equal(esr.recover_replicated_vector("beta"),
                              [0.25, -1.5, 3.0])

    def test_redundancy_charge_messages_constant_volume_scales(self, setup):
        cluster, partition, _, context = setup
        from repro.cluster import Phase as P

        stats = {}
        for k in (1, 4):
            fresh = VirtualCluster(6, machine=MachineModel(jitter_rel_std=0.0))
            esr = ESRProtocol(fresh, RedundancyScheme(context, 2), n_cols=k)
            esr.after_spmv(make_block(fresh, partition, 0, k=k), 0)
            stats[k] = (fresh.ledger.messages.get(P.REDUNDANCY_COMM, 0),
                        fresh.ledger.elements.get(P.REDUNDANCY_COMM, 0))
        assert stats[1][0] == stats[4][0]
        assert stats[4][1] == 4 * stats[1][1]

    def test_mismatched_operand_rejected(self, setup):
        cluster, partition, _, context = setup
        esr = self.make_esr(cluster, context, k=3)
        with pytest.raises(ValueError):
            esr.after_spmv(make_p(cluster, partition, 0), 0)
        with pytest.raises(ValueError):
            esr.after_spmv(make_block(cluster, partition, 0, k=2), 0)

    def test_invalid_n_cols_rejected(self, setup):
        cluster, _, _, context = setup
        with pytest.raises(ValueError):
            ESRProtocol(cluster, RedundancyScheme(context, 1), n_cols=0)


class TestOverheadSummary:
    def test_summary_fields(self, setup):
        cluster, _, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 2))
        summary = esr.overhead_summary()
        assert summary["phi"] == 2.0
        assert summary["lower_bound"] <= summary["per_iteration_time"] + 1e-15
        assert summary["per_iteration_time"] <= summary["upper_bound"] + 1e-15

    def test_overhead_time_matches_property(self, setup):
        cluster, _, _, context = setup
        esr = ESRProtocol(cluster, RedundancyScheme(context, 3))
        assert esr.per_iteration_overhead_time == pytest.approx(
            esr.overhead_summary()["per_iteration_time"]
        )
