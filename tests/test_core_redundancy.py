"""Tests for the redundancy scheme (Eqns. 2-6 of the paper)."""

import numpy as np
import pytest

from repro.cluster import MachineModel, VirtualCluster
from repro.core.placement import paper_backup_target
from repro.core.redundancy import RedundancyScheme, backup_targets
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
)
from repro.matrices import graph_laplacian_spd, poisson_1d, poisson_2d, banded_spd


def make_scheme(matrix, n_nodes, phi, placement="paper"):
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(matrix.shape[0], n_nodes)
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    context = CommunicationContext.from_matrix(dist)
    return cluster, dist, RedundancyScheme(context, phi, placement=placement)


class TestBackupTargets:
    def test_paper_formula_eqn5(self):
        # d_ik = (i + ceil(k/2)) mod N for odd k, (i - k/2) mod N for even k
        n = 8
        assert paper_backup_target(3, 1, n) == 4
        assert paper_backup_target(3, 2, n) == 2
        assert paper_backup_target(3, 3, n) == 5
        assert paper_backup_target(3, 4, n) == 1
        assert paper_backup_target(3, 5, n) == 6

    def test_paper_formula_wraps(self):
        assert paper_backup_target(7, 1, 8) == 0
        assert paper_backup_target(0, 2, 8) == 7

    def test_invalid_round_index(self):
        with pytest.raises(ValueError):
            paper_backup_target(0, 0, 8)

    @pytest.mark.parametrize("placement", ["paper", "next_ranks", "random"])
    @pytest.mark.parametrize("phi", [1, 2, 3, 5])
    def test_targets_distinct_and_exclude_owner(self, placement, phi):
        n = 8
        for owner in range(n):
            targets = backup_targets(owner, phi, n, placement)
            assert len(targets) == phi
            assert len(set(targets)) == phi
            assert owner not in targets

    def test_alternating_neighbours(self):
        targets = backup_targets(4, 4, 10, "paper")
        assert targets == [5, 3, 6, 2]

    def test_next_ranks_placement(self):
        targets = backup_targets(6, 3, 8, "next_ranks")
        assert targets == [7, 0, 1]

    def test_phi_too_large_rejected(self):
        with pytest.raises(ValueError):
            backup_targets(0, 8, 8)

    def test_phi_zero(self):
        assert backup_targets(0, 0, 8) == []

    def test_invalid_owner(self):
        with pytest.raises(ValueError):
            backup_targets(9, 1, 8)


class TestChenSingleFailure:
    def test_phi1_paper_scheme_matches_chen(self):
        # For phi = 1 and the paper placement (d_i1 = i+1), the extra set of
        # round 1 equals Chen's R^c_i (elements with m_i(s) = 0) whenever the
        # element is not naturally sent to node i+1 -- for banded matrices the
        # two sets coincide exactly.
        a = poisson_1d(60)
        _, _, scheme = make_scheme(a, 6, 1)
        for owner in range(6):
            # Chen's R^c_i = {s : m_i(s) = 0}: the elements never sent.
            assert np.array_equal(scheme.extra_indices(owner, 1),
                                  scheme.context.unsent_indices(owner))

    def test_chen_loses_data_for_adjacent_double_failure(self):
        # Sec. 3: if nodes i and i+1 fail simultaneously and R^c_i != {}, the
        # elements of R^c_i (kept only on i and i+1) are lost.
        a = poisson_1d(60)
        _, _, scheme = make_scheme(a, 6, 1)
        owner = 2
        chen_set = scheme.context.unsent_indices(owner)
        assert chen_set.size > 0
        # copies exist only on the owner and on owner+1 under Chen's scheme,
        # so a simultaneous failure of both loses them; the phi = 2 scheme
        # places an additional copy elsewhere.
        _, _, scheme2 = make_scheme(a, 6, 2)
        counts = scheme2.copy_count(owner)
        start, _ = scheme2.partition.range_of(owner)
        assert np.all(counts[chen_set - start] >= 2)


class TestEqn6:
    @pytest.mark.parametrize("matrix_builder, n_nodes", [
        (lambda: poisson_1d(64), 8),
        (lambda: poisson_2d(12), 6),
        (lambda: graph_laplacian_spd(240, avg_degree=5, seed=0), 8),
        (lambda: banded_spd(160, half_bandwidth=30, seed=1), 8),
    ])
    @pytest.mark.parametrize("phi", [1, 2, 3])
    def test_redundancy_invariant(self, matrix_builder, n_nodes, phi):
        """Every element ends up on >= phi distinct non-owner nodes."""
        _, _, scheme = make_scheme(matrix_builder(), n_nodes, phi)
        assert scheme.verify_invariant()

    def test_round_condition_gets_stricter(self):
        # The multiplicity condition of Eqn. (6), m_i(s) - g_i(s) <= phi - k,
        # admits fewer and fewer elements as the round index k grows; for
        # elements that are never sent anywhere (Chen's R^c_i) it holds in
        # every round, so they are shipped to every designated backup.
        a = banded_spd(240, half_bandwidth=40, fill=0.9, seed=0)
        _, _, scheme = make_scheme(a, 8, 3)
        for owner in range(8):
            info = scheme.owner(owner)
            deficit = info.multiplicity - info.natural_backup_count
            eligible = [int(np.sum(deficit <= 3 - k)) for k in (1, 2, 3)]
            assert eligible == sorted(eligible, reverse=True)
            start, _ = scheme.partition.range_of(owner)
            never_sent = scheme.context.unsent_indices(owner)
            for k in (1, 2, 3):
                assert np.isin(never_sent, scheme.extra_indices(owner, k)).all()

    def test_extras_exclude_naturally_sent_to_target(self):
        a = poisson_2d(16)
        _, _, scheme = make_scheme(a, 8, 3)
        for owner in range(8):
            for k in range(1, 4):
                target = scheme.owner(owner).targets[k - 1]
                extra = scheme.extra_indices(owner, k)
                natural = scheme.context.send_indices(owner, target)
                assert np.intersect1d(extra, natural).size == 0

    def test_no_extras_when_naturally_covered(self):
        # A dense-enough matrix sends everything to >= phi nodes already.
        import scipy.sparse as sp
        dense = sp.csr_matrix(np.ones((32, 32)) + 32 * np.eye(32))
        _, _, scheme = make_scheme(dense, 4, 3)
        assert scheme.total_extra_elements() == 0
        assert scheme.verify_invariant()

    def test_phi_zero_scheme_is_empty(self):
        a = poisson_2d(8)
        _, _, scheme = make_scheme(a, 4, 0)
        assert scheme.total_extra_elements() == 0
        assert scheme.verify_invariant()

    def test_phi_must_be_less_than_n(self):
        a = poisson_2d(8)
        with pytest.raises(ValueError):
            make_scheme(a, 4, 4)

    def test_copies_are_minimal_for_unsent_elements(self):
        # An element that is never sent naturally gets exactly phi copies.
        a = poisson_1d(60)
        _, _, scheme = make_scheme(a, 6, 3)
        for owner in range(6):
            counts = scheme.copy_count(owner)
            start, _ = scheme.partition.range_of(owner)
            never_sent = scheme.context.unsent_indices(owner) - start
            if never_sent.size:
                assert np.all(counts[never_sent] == 3)


class TestOverheadAccounting:
    def test_round_overheads_within_bounds(self):
        a = poisson_2d(16)
        cluster, _, scheme = make_scheme(a, 8, 3)
        times = scheme.round_overhead_times(cluster.topology, cluster.machine)
        assert len(times) == 3
        lower, upper = scheme.overhead_bounds(cluster.topology, cluster.machine)
        total = scheme.per_iteration_overhead_time(cluster.topology, cluster.machine)
        assert lower - 1e-15 <= total <= upper + 1e-15

    def test_overhead_grows_with_phi(self):
        a = poisson_2d(16)
        cluster, _, s1 = make_scheme(a, 8, 1)
        _, _, s3 = make_scheme(a, 8, 3)
        t1 = s1.per_iteration_overhead_time(cluster.topology, cluster.machine)
        t3 = s3.per_iteration_overhead_time(cluster.topology, cluster.machine)
        assert t3 > t1

    def test_extra_traffic_counts(self):
        a = poisson_2d(16)
        _, _, scheme = make_scheme(a, 8, 2)
        messages, elements = scheme.extra_traffic_per_iteration()
        assert elements == scheme.total_extra_elements()
        assert messages >= 0

    def test_max_extra_per_round_bounded_by_block(self):
        a = poisson_2d(16)
        _, _, scheme = make_scheme(a, 8, 3)
        block = scheme.partition.max_block_size()
        assert all(m <= block for m in scheme.max_extra_per_round())

    def test_held_pattern_consistency(self):
        a = poisson_2d(12)
        _, _, scheme = make_scheme(a, 6, 2)
        pattern = scheme.held_pattern()
        for (owner, holder), idx in pattern.items():
            assert owner != holder
            owners = scheme.partition.owner_of(idx)
            assert np.all(owners == owner)

    def test_describe(self):
        a = poisson_2d(8)
        _, _, scheme = make_scheme(a, 4, 2)
        assert "phi=2" in scheme.describe()

    def test_held_pattern_memoized_and_isolated(self):
        """The pattern is computed once; callers get fresh dicts so key-level
        mutation cannot corrupt the scheme's internal state."""
        a = poisson_2d(12)
        _, _, scheme = make_scheme(a, 6, 2)
        first = scheme.held_pattern()
        second = scheme.held_pattern()
        assert first is not second
        assert sorted(first) == sorted(second)
        for key in first:
            assert first[key] is second[key]  # arrays are shared (immutable)
        first.clear()
        assert sorted(scheme.held_pattern()) == sorted(second)

    def test_copy_count_matches_pattern_recount(self):
        """The precomputed counts equal a from-scratch recount and returned
        arrays are private copies."""
        a = poisson_2d(12)
        _, _, scheme = make_scheme(a, 6, 3)
        pattern = scheme.held_pattern()
        for owner in range(6):
            start, _ = scheme.partition.range_of(owner)
            expected = np.zeros(scheme.partition.size_of(owner), dtype=np.int64)
            for (own, _holder), idx in pattern.items():
                if own == owner and idx.size:
                    expected[idx - start] += 1
            counts = scheme.copy_count(owner)
            assert np.array_equal(counts, expected)
            counts[:] = -1  # mutating the returned array must be harmless
            assert np.array_equal(scheme.copy_count(owner), expected)
