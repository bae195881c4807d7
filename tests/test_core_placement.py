"""Tests for the placement registry and the rack-aware strategies.

A placement maps ``(owner, phi, n_nodes)`` to its targets; the rack-aware
ones read the default rack layout of the node count, so each case picks a
node count whose layout reaches the branch it tests.
"""

import pytest

from repro.core.placement import PLACEMENTS, RackLayout, register_placement
from repro.core.redundancy import RedundancyScheme, backup_targets
from repro.core.spec import ResilienceSpec
from repro.matrices import poisson_2d

#: Every strategy shipped in the default registry (string literals on
#: purpose: the R003 lint rule requires registered names in the tests).
ALL_PLACEMENTS = ("paper", "next_ranks", "random", "rack_aware", "copyset")

#: Things that are not a placement's registered name: the placement is
#: chosen by name only.
NOT_A_NAME = pytest.mark.parametrize(
    "placement", [None, PLACEMENTS.get("paper")], ids=["None", "function"])


class TestRegistry:
    def test_default_registry_names(self):
        assert PLACEMENTS.names() == tuple(sorted(ALL_PLACEMENTS))

    @NOT_A_NAME
    def test_backup_targets_takes_names_only(self, placement):
        with pytest.raises(ValueError, match="unknown placement"):
            backup_targets(0, 1, 8, placement)

    def test_registered_function_is_picked_by_name(self):
        @register_placement("Mine_Test_Only", "test strategy")
        def _mine(owner, phi, n_nodes):
            return [(owner + k) % n_nodes for k in range(1, phi + 1)]

        try:
            assert backup_targets(0, 2, 8, "MINE_TEST_ONLY") == [1, 2]
            assert ResilienceSpec(placement="Mine_Test_Only").placement \
                == "mine_test_only"
        finally:
            del PLACEMENTS._entries["mine_test_only"]
        with pytest.raises(ValueError, match="unknown placement"):
            backup_targets(0, 2, 8, "mine_test_only")

    def test_invalid_targets_of_a_registered_function_raise(self):
        @register_placement("broken_test_only")
        def _broken(owner, phi, n_nodes):
            return [owner] * phi

        try:
            with pytest.raises(ValueError, match="'broken_test_only' "
                                                 "returned invalid backup"):
                backup_targets(1, 2, 8, "Broken_Test_Only")
        finally:
            del PLACEMENTS._entries["broken_test_only"]


class TestRackLayout:
    def test_contiguous_racks(self):
        layout = RackLayout(10, 4)
        assert layout.n_racks == 3
        assert layout.ranks_in(0) == [0, 1, 2, 3]
        assert layout.ranks_in(2) == [8, 9]
        assert layout.racks() == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert [layout.rack_of(r) for r in range(10)] == \
            [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        assert layout.position_in_rack(6) == 2

    def test_striding_order(self):
        """One rank per rack, then the next rank of every rack: consecutive
        entries lie in distinct racks, and the short last rack drops out
        once it runs out of ranks."""
        layout = RackLayout(10, 4)
        order = layout.striding_order()
        assert order == [0, 4, 8, 1, 5, 9, 2, 6, 3, 7]
        assert all(layout.rack_of(a) != layout.rack_of(b)
                   for a, b in zip(order, order[1:]))
        assert RackLayout(4, 4).striding_order() == [0, 1, 2, 3]

    def test_default_keeps_two_racks(self):
        assert RackLayout.default(8).rack_size == 4
        assert RackLayout.default(6).rack_size == 3
        assert RackLayout.default(4).rack_size == 2
        assert RackLayout.default(2).rack_size == 1
        assert RackLayout.default(16).rack_size == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RackLayout(0, 4)
        with pytest.raises(ValueError):
            RackLayout(8, 0)
        with pytest.raises(ValueError):
            RackLayout(8, 4).rack_of(8)
        with pytest.raises(ValueError):
            RackLayout(8, 4).ranks_in(2)


class TestStrategyProperties:
    @pytest.mark.parametrize("name", ALL_PLACEMENTS)
    @pytest.mark.parametrize("n_nodes,phi", [
        (8, 1), (8, 3), (8, 7), (12, 3), (10, 4), (6, 2), (5, 2), (4, 3),
    ])
    def test_distinct_non_owner_length_phi(self, name, n_nodes, phi):
        for owner in range(n_nodes):
            targets = backup_targets(owner, phi, n_nodes, name)
            assert len(targets) == phi
            assert len(set(targets)) == phi
            assert owner not in targets

    def test_rack_aware_avoids_owner_rack(self):
        # 3 racks of 4, phi = 3: every backup fits outside the owner's rack.
        racks = RackLayout.default(12)
        for owner in range(12):
            targets = backup_targets(owner, 3, 12, "rack_aware")
            assert racks.rack_of(owner) not in \
                {racks.rack_of(t) for t in targets}

    def test_rack_aware_one_backup_per_rack_first(self):
        # 4 racks of 4, phi = 3: pass 1 alone suffices, so the backups land
        # in three *distinct* foreign racks.
        racks = RackLayout.default(16)
        for owner in range(16):
            targets = backup_targets(owner, 3, 16, "rack_aware")
            target_racks = [racks.rack_of(t) for t in targets]
            assert len(set(target_racks)) == 3
            assert racks.rack_of(owner) not in target_racks

    def test_rack_aware_degenerates_gracefully(self):
        # 2 racks of 2, phi = 3: the one foreign rack holds two ranks, so
        # the third backup must come from the owner's own rack (pass 3).
        assert backup_targets(0, 3, 4, "rack_aware") == [2, 3, 1]
        assert backup_targets(2, 3, 4, "rack_aware") == [0, 1, 3]

    def test_copyset_targets_stay_in_one_copyset(self):
        # 8 nodes, phi = 3 -> two copysets of 4; backups of every owner in
        # the same group are the other three group members.
        for owner in range(8):
            targets = backup_targets(owner, 3, 8, "copyset")
            group = {owner} | set(targets)
            for member in sorted(group - {owner}):
                assert {member} | set(backup_targets(
                    member, 3, 8, "copyset")) == group

    def test_copyset_groups_span_racks(self):
        # The rack-striding order makes each copyset span both racks, so the
        # owner always has at least one backup outside its own rack.
        racks = RackLayout.default(8)
        for owner in range(8):
            targets = backup_targets(owner, 3, 8, "copyset")
            assert any(racks.rack_of(t) != racks.rack_of(owner)
                       for t in targets)

    def test_copyset_off_rack_backups_first(self):
        racks = RackLayout.default(8)
        for owner in range(8):
            targets = backup_targets(owner, 3, 8, "copyset")
            rack_flags = [racks.rack_of(t) == racks.rack_of(owner)
                          for t in targets]
            # Once an in-rack backup shows up, no off-rack one follows.
            assert rack_flags == sorted(rack_flags)

    def test_copyset_phi_zero(self):
        assert backup_targets(0, 0, 8, "copyset") == []

    def test_copyset_sorts_the_striding_order_once_per_node_count(
            self, monkeypatch):
        # Placing every owner must not re-sort the order per owner: that
        # made one scheme build O(N^2 log N).
        calls = []
        striding_order = RackLayout.striding_order

        def counted(layout):
            calls.append(layout.n_nodes)
            return striding_order(layout)

        monkeypatch.setattr(RackLayout, "striding_order", counted)
        for owner in range(64):
            backup_targets(owner, 3, 64, "copyset")
        assert len(calls) <= 1

    def test_legacy_results_unchanged(self):
        # The registry refactor must not move any pre-existing placement.
        assert backup_targets(4, 4, 10, "paper") == [5, 3, 6, 2]
        assert backup_targets(6, 3, 8, "next_ranks") == [7, 0, 1]
        assert backup_targets(2, 3, 8, "random") == [1, 0, 5]


class TestSchemeIntegration:
    @pytest.mark.parametrize("name", ["rack_aware", "copyset"])
    def test_scheme_invariant_holds(self, name):
        from repro.cluster import MachineModel, VirtualCluster
        from repro.distributed import (
            BlockRowPartition,
            CommunicationContext,
            DistributedMatrix,
        )

        matrix = poisson_2d(12)
        cluster = VirtualCluster(8, machine=MachineModel(jitter_rel_std=0.0))
        partition = BlockRowPartition(matrix.shape[0], 8)
        dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
        context = CommunicationContext.from_matrix(dist)
        scheme = RedundancyScheme(context, 2, placement=name.upper())
        assert scheme.verify_invariant()
        assert scheme.placement == name
        assert f"placement={name}," in scheme.describe()

    @pytest.mark.parametrize("name", ALL_PLACEMENTS)
    def test_scheme_uses_the_named_placement(self, name):
        from repro.cluster import VirtualCluster
        from repro.distributed import BlockRowPartition, DistributedMatrix

        matrix = poisson_2d(12)
        cluster = VirtualCluster(8)
        dist = DistributedMatrix.from_global(
            cluster, BlockRowPartition(matrix.shape[0], 8), "A", matrix)
        scheme = RedundancyScheme(dist.context, 3, placement=name)
        assert scheme.placement == name
        for owner in range(8):
            assert list(scheme.owner(owner).targets) == backup_targets(
                owner, 3, 8, name)

    @NOT_A_NAME
    def test_scheme_takes_names_only(self, placement):
        from repro.cluster import VirtualCluster
        from repro.distributed import BlockRowPartition, DistributedMatrix

        matrix = poisson_2d(8)
        cluster = VirtualCluster(4)
        dist = DistributedMatrix.from_global(
            cluster, BlockRowPartition(matrix.shape[0], 4), "A", matrix)
        with pytest.raises(ValueError, match="unknown placement"):
            RedundancyScheme(dist.context, 1, placement=placement)

    def test_solve_reports_registered_placement(self):
        import repro

        result = repro.solve(poisson_2d(12), n_nodes=8, phi=2,
                             placement="rack_aware",
                             failures=[(4, [1, 5])])
        assert result.converged
        assert result.info["placement"] == "rack_aware"


class TestResilienceSpecPlacement:
    @pytest.mark.parametrize("name", ["copyset", "rack_aware"])
    def test_round_trip_registry_names(self, name):
        spec = ResilienceSpec(phi=3, placement=name)
        assert spec.placement == name
        rebuilt = ResilienceSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_names_are_stored_lower_case(self):
        spec = ResilienceSpec(placement="Next_Ranks")
        assert spec.placement == "next_ranks"
        assert spec.to_dict()["placement"] == "next_ranks"
        assert ResilienceSpec.from_dict(spec.to_dict()) == spec
        assert ResilienceSpec().placement == "paper"

    @NOT_A_NAME
    def test_non_name_placement_rejected(self, placement):
        with pytest.raises(ValueError, match="unknown placement"):
            ResilienceSpec(placement=placement)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            ResilienceSpec(placement="no_such_strategy")

