"""Tests for the placement registry and the rack-aware strategies."""

import pytest

from repro.core.placement import (
    PLACEMENTS,
    BackupPlacement,
    PlacementStrategy,
    RackLayout,
    normalize_placement,
    placement_name,
    register_placement,
    resolve_placement,
)
from repro.core.redundancy import RedundancyScheme, backup_targets
from repro.core.spec import ResilienceSpec
from repro.matrices import poisson_2d

#: Every strategy shipped in the default registry (string literals on
#: purpose: the R003 lint rule requires registered names in the tests).
ALL_PLACEMENTS = ("paper", "next_ranks", "random", "rack_aware", "copyset")


class TestRegistry:
    def test_default_registry_names(self):
        assert PLACEMENTS.names() == tuple(sorted(ALL_PLACEMENTS))

    def test_register_decorator_wraps_function(self):
        @register_placement("Mine_Test_Only", "test strategy")
        def _mine(owner, phi, n_nodes, *, racks=None, rng=None):
            return [(owner + k) % n_nodes for k in range(1, phi + 1)]

        try:
            strategy = PLACEMENTS.get("mine_test_only")
        finally:
            del PLACEMENTS._entries["mine_test_only"]
        assert isinstance(strategy, PlacementStrategy)
        assert strategy.name == "mine_test_only"
        assert strategy.value == "mine_test_only"
        assert strategy.fn is _mine
        assert strategy.description == "test strategy"
        assert strategy.targets(0, 2, 8) == [1, 2]

    @pytest.mark.parametrize("name", ALL_PLACEMENTS)
    def test_resolve_accepts_names_and_strategies(self, name):
        strategy = resolve_placement(name)
        assert strategy.name == name
        assert resolve_placement(strategy) is strategy

    def test_resolve_accepts_enum_members(self):
        for member in BackupPlacement:
            assert resolve_placement(member).name == member.value

    def test_normalize_legacy_names_to_enum(self):
        assert normalize_placement("paper") is BackupPlacement.PAPER
        assert normalize_placement("NEXT_RANKS") is BackupPlacement.NEXT_RANKS
        assert normalize_placement(BackupPlacement.RANDOM) \
            is BackupPlacement.RANDOM

    def test_normalize_registry_only_names_to_string(self):
        assert normalize_placement("rack_aware") == "rack_aware"
        assert normalize_placement("Copyset") == "copyset"

    def test_normalize_unknown_raises(self):
        with pytest.raises(ValueError):
            normalize_placement("no_such_strategy")

    def test_normalize_accepts_the_registered_strategy_object(self):
        assert normalize_placement(PLACEMENTS.get("copyset")) == "copyset"
        assert normalize_placement(PLACEMENTS.get("paper")) \
            is BackupPlacement.PAPER

    def test_spec_rejects_unregistered_strategy_object(self):
        # A spec stores only the name: an unregistered strategy would be
        # dropped, and ``repro.solve`` / ``from_dict`` would then fail on
        # the unknown name.
        adhoc = PlacementStrategy("adhoc", lambda o, phi, n, **kw: [])
        with pytest.raises(ValueError, match="'adhoc'.*register"):
            ResilienceSpec(phi=1, placement=adhoc)

    def test_spec_rejects_strategy_shadowing_a_registered_name(self):
        # Same name as a registered strategy, different function: the spec
        # would silently run the registered one instead.
        def fn(owner, phi, n_nodes, *, racks=None, rng=None):
            return [(owner + 2) % n_nodes, (owner - 2) % n_nodes][:phi]

        shadow = PlacementStrategy("paper", fn)
        with pytest.raises(ValueError, match="'paper'.*register"):
            ResilienceSpec(phi=2, placement=shadow)

    def test_placement_name(self):
        assert placement_name(BackupPlacement.PAPER) == "paper"
        assert placement_name("rack_aware") == "rack_aware"


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
        assert RackLayout.default(4).rack_size == 2
        assert RackLayout.default(2).rack_size == 1
        assert RackLayout.default(16, rack_size=8).rack_size == 8

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
    @pytest.mark.parametrize("n_nodes,phi,rack_size", [
        (8, 1, 4), (8, 3, 4), (8, 7, 4), (12, 3, 4), (10, 4, 3), (6, 2, 2),
    ])
    def test_distinct_non_owner_length_phi(self, name, n_nodes, phi,
                                           rack_size):
        racks = RackLayout(n_nodes, rack_size)
        for owner in range(n_nodes):
            targets = backup_targets(owner, phi, n_nodes, name, racks=racks)
            assert len(targets) == phi
            assert len(set(targets)) == phi
            assert owner not in targets

    def test_rack_aware_avoids_owner_rack(self):
        # 3 racks of 4, phi = 3: every backup fits outside the owner's rack.
        racks = RackLayout(12, 4)
        for owner in range(12):
            targets = backup_targets(owner, 3, 12, "rack_aware", racks=racks)
            assert racks.rack_of(owner) not in \
                {racks.rack_of(t) for t in targets}

    def test_rack_aware_one_backup_per_rack_first(self):
        # 4 racks of 2, phi = 3: pass 1 alone suffices, so the backups land
        # in three *distinct* foreign racks.
        racks = RackLayout(8, 2)
        for owner in range(8):
            targets = backup_targets(owner, 3, 8, "rack_aware", racks=racks)
            target_racks = [racks.rack_of(t) for t in targets]
            assert len(set(target_racks)) == 3
            assert racks.rack_of(owner) not in target_racks

    def test_rack_aware_degenerates_gracefully(self):
        # One single rack: no foreign failure domain exists; the strategy
        # must still return phi distinct non-owner ranks (pass 3).
        racks = RackLayout(6, 6)
        targets = backup_targets(2, 3, 6, "rack_aware", racks=racks)
        assert len(set(targets)) == 3 and 2 not in targets

    def test_copyset_targets_stay_in_one_copyset(self):
        # 8 nodes, phi = 3 -> two copysets of 4; backups of every owner in
        # the same group are the other three group members.
        racks = RackLayout(8, 4)
        for owner in range(8):
            targets = backup_targets(owner, 3, 8, "copyset", racks=racks)
            group = {owner} | set(targets)
            for member in sorted(group - {owner}):
                assert {member} | set(backup_targets(
                    member, 3, 8, "copyset", racks=racks)) == group

    def test_copyset_groups_span_racks(self):
        # The rack-striding order makes each copyset span both racks, so the
        # owner always has at least one backup outside its own rack.
        racks = RackLayout(8, 4)
        for owner in range(8):
            targets = backup_targets(owner, 3, 8, "copyset", racks=racks)
            assert any(racks.rack_of(t) != racks.rack_of(owner)
                       for t in targets)

    def test_copyset_off_rack_backups_first(self):
        racks = RackLayout(8, 4)
        for owner in range(8):
            targets = backup_targets(owner, 3, 8, "copyset", racks=racks)
            rack_flags = [racks.rack_of(t) == racks.rack_of(owner)
                          for t in targets]
            # Once an in-rack backup shows up, no off-rack one follows.
            assert rack_flags == sorted(rack_flags)

    def test_copyset_phi_zero(self):
        assert backup_targets(0, 0, 8, "copyset") == []

    def test_legacy_results_unchanged(self):
        # The registry refactor must not move any pre-existing placement.
        assert backup_targets(4, 4, 10, "paper") == [5, 3, 6, 2]
        assert backup_targets(6, 3, 8, "next_ranks") == [7, 0, 1]
        assert backup_targets(2, 3, 8, "random") == \
            backup_targets(2, 3, 8, BackupPlacement.RANDOM)


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
        scheme = RedundancyScheme(context, 2, placement=name, rack_size=4)
        assert scheme.verify_invariant()
        assert name in scheme.describe()

    def test_solve_reports_registered_placement(self):
        import repro

        result = repro.solve(poisson_2d(12), n_nodes=8, phi=2,
                             placement="rack_aware", rack_size=4,
                             failures=[(4, [1, 5])])
        assert result.converged
        assert result.info["placement"] == "rack_aware"


class TestResilienceSpecPlacement:
    @pytest.mark.parametrize("name", ["copyset", "rack_aware"])
    def test_round_trip_registry_names(self, name):
        spec = ResilienceSpec(phi=3, placement=name, rack_size=4)
        assert spec.placement == name
        rebuilt = ResilienceSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.rack_size == 4

    def test_legacy_names_normalise_to_enum(self):
        spec = ResilienceSpec(placement="next_ranks")
        assert spec.placement is BackupPlacement.NEXT_RANKS
        assert ResilienceSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            ResilienceSpec(placement="no_such_strategy")

    def test_invalid_rack_size_rejected(self):
        with pytest.raises(ValueError):
            ResilienceSpec(rack_size=0)
