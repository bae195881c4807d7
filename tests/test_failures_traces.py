"""Tests for the stochastic failure-trace generator."""

import numpy as np
import pytest

from repro.cluster import FailureInjector, MachineModel, VirtualCluster
from repro.core.placement import RackLayout
from repro.core.redundancy import backup_targets
from repro.failures.traces import (
    FailureTrace,
    LifetimeModel,
    TraceEvent,
    TraceSpec,
    generate_trace,
)
from repro.utils.rng import as_rng


class TestLifetimeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LifetimeModel(scale=0.0)

    def test_round_trip(self):
        model = LifetimeModel(scale=120.0)
        assert LifetimeModel.from_dict(model.to_dict()) == model
        with pytest.raises(ValueError):
            LifetimeModel.from_dict({"scale": 120.0, "bogus": 1})

    def test_sample_mean_matches_model_mean(self):
        """Lifetimes are exponential with mean ``scale``."""
        model = LifetimeModel(scale=80.0)
        rng = as_rng(123)
        draws = np.array([model.sample(rng) for _ in range(4000)])
        assert np.all(draws >= 0.0)
        assert abs(draws.mean() - model.scale) < 0.1 * model.scale


class TestTraceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(n_nodes=1)
        with pytest.raises(ValueError):
            TraceSpec(horizon=0)
        with pytest.raises(ValueError):
            TraceSpec(burst_rate=-0.1)

    def test_round_trip(self):
        spec = TraceSpec(n_nodes=16, horizon=120, burst_rate=0.02, label="x",
                         lifetime=LifetimeModel(scale=300.0))
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("n_nodes,n_racks", [(10, 3), (8, 2), (6, 2),
                                                 (4, 2)])
    def test_racks_layout(self, n_nodes, n_racks):
        """Bursts strike the default rack layout, the one the rack-aware
        placements and the parity stripes use."""
        racks = TraceSpec(n_nodes=n_nodes).racks
        assert racks == RackLayout.default(n_nodes)
        assert racks.n_racks == n_racks


class TestGenerateTrace:
    SPEC = TraceSpec(n_nodes=8, horizon=100, burst_rate=0.03,
                     lifetime=LifetimeModel(scale=60.0))

    def test_same_seed_bit_identical(self):
        a = generate_trace(self.SPEC, seed=42)
        b = generate_trace(self.SPEC, seed=42)
        assert a == b
        assert a.to_failure_events() == b.to_failure_events()

    def test_different_seeds_differ(self):
        a = generate_trace(self.SPEC, seed=1)
        b = generate_trace(self.SPEC, seed=2)
        assert a.events != b.events

    def test_events_time_ordered_within_horizon(self):
        trace = generate_trace(self.SPEC, seed=3)
        times = [ev.time for ev in trace.events]
        assert times == sorted(times)
        assert all(0.0 < t <= self.SPEC.horizon for t in times)
        assert all(ev.cause in ("lifetime", "burst") for ev in trace.events)

    def test_burst_takes_out_whole_alive_rack(self):
        # Lifetimes far beyond the horizon: every event is a burst, and a
        # failed node is replaced at once, so each burst's rank set is
        # exactly one full rack.
        spec = TraceSpec(n_nodes=12, horizon=200, burst_rate=0.05,
                         lifetime=LifetimeModel(scale=1e9))
        trace = generate_trace(spec, seed=5)
        racks = {tuple(r) for r in ([0, 1, 2, 3], [4, 5, 6, 7],
                                    [8, 9, 10, 11])}
        assert trace.events
        for ev in trace.events:
            assert ev.cause == "burst"
            assert tuple(sorted(ev.ranks)) in racks

    @pytest.mark.parametrize("n_nodes", [4, 5, 6])
    def test_bursts_spare_the_rack_aware_backup(self, n_nodes):
        """A burst and the rack-aware placement share one rack layout, so no
        burst takes an owner together with its phi = 1 backup (on 4-6
        nodes the default layout has racks of 2 or 3)."""
        spec = TraceSpec(n_nodes=n_nodes, horizon=200, burst_rate=0.05,
                         lifetime=LifetimeModel(scale=1e9))
        n_bursts = 0
        for seed in range(20):
            for ev in generate_trace(spec, seed=seed).events:
                assert ev.cause == "burst"
                n_bursts += 1
                for owner in ev.ranks:
                    (backup,) = backup_targets(owner, 1, n_nodes, "rack_aware")
                    assert backup not in ev.ranks
        assert n_bursts > 100

    def test_empirical_mean_lifetime(self):
        # Statistical sanity: each node's *first* failure time is one clean
        # draw from the lifetime distribution; over many seeds the sample
        # mean must approach the model mean (3-sigma tolerance ~ 9 %).
        spec = TraceSpec(n_nodes=16, horizon=2000,
                         lifetime=LifetimeModel(scale=50.0))
        first_failures = []
        for seed in range(40):
            trace = generate_trace(spec, seed=seed)
            seen = set()
            for ev in trace.events:
                for rank in ev.ranks:
                    if rank not in seen:
                        seen.add(rank)
                        first_failures.append(ev.time)
        assert len(first_failures) > 500
        mean = float(np.mean(first_failures))
        assert abs(mean - 50.0) < 0.15 * 50.0


class TestToFailureEvents:
    SPEC = TraceSpec(n_nodes=8, horizon=50, label="mc")

    def test_resolution_validity(self):
        spec = TraceSpec(n_nodes=8, horizon=60, burst_rate=0.05,
                         lifetime=LifetimeModel(scale=40.0))
        trace = generate_trace(spec, seed=11)
        events = trace.to_failure_events()
        assert events
        iterations = [ev.iteration for ev in events]
        assert iterations == sorted(iterations)
        assert len(set(iterations)) == len(iterations)
        for ev in events:
            assert 1 <= ev.iteration <= spec.horizon
            assert len(set(ev.ranks)) == len(ev.ranks)
            assert len(ev.ranks) <= spec.n_nodes - 1
            assert ev.label.startswith("trace:")

    def test_same_iteration_events_merge(self):
        trace = FailureTrace(self.SPEC, seed=0, events=(
            TraceEvent(time=2.1, ranks=(3,), cause="lifetime"),
            TraceEvent(time=2.9, ranks=(4, 5), cause="burst"),
        ))
        events = trace.to_failure_events()
        assert len(events) == 1
        assert events[0].iteration == 2
        assert events[0].ranks == (3, 4, 5)
        assert events[0].label == "mc:burst+lifetime"

    def test_duplicate_ranks_dedupe_in_time_order(self):
        trace = FailureTrace(self.SPEC, seed=0, events=(
            TraceEvent(time=3.2, ranks=(6, 1), cause="lifetime"),
            TraceEvent(time=3.8, ranks=(1, 2), cause="burst"),
        ))
        (event,) = trace.to_failure_events()
        assert event.ranks == (6, 1, 2)

    def test_rank_cap_keeps_one_survivor(self):
        spec = TraceSpec(n_nodes=4, horizon=10)
        trace = FailureTrace(spec, seed=0, events=(
            TraceEvent(time=1.5, ranks=(0, 1, 2, 3), cause="burst"),
        ))
        (event,) = trace.to_failure_events()
        assert event.ranks == (0, 1, 2)

    def test_sub_iteration_times_clamp_to_one(self):
        trace = FailureTrace(self.SPEC, seed=0, events=(
            TraceEvent(time=0.4, ranks=(2,), cause="lifetime"),
        ))
        (event,) = trace.to_failure_events()
        assert event.iteration == 1

    def test_feeds_the_injector(self):
        spec = TraceSpec(n_nodes=8, horizon=40, burst_rate=0.06,
                         lifetime=LifetimeModel(scale=30.0))
        trace = generate_trace(spec, seed=13)
        events = trace.to_failure_events()
        cluster = VirtualCluster(8, machine=MachineModel(jitter_rel_std=0.0))
        injector = FailureInjector(events)
        for idx, _ in injector.events_due(spec.horizon):
            injector.trigger(idx, cluster.nodes)
        assert not injector.pending_events()
