"""The one serialization path, :mod:`repro.utils.serde`.

* Every type ``from_dict`` rebuilds round-trips through actual JSON,
  ``cls.from_dict(json.loads(json.dumps(x.to_dict()))) == x``, with
  registered names spelled in mixed case and numpy scalars in its fields.
* One key policy for all of them: an unknown key raises
  :class:`ValidationError` naming the class, a missing key takes the field
  default, and a missing required field raises the constructor's
  ``TypeError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureEvent
from repro.core.placement import PLACEMENTS
from repro.core.redundancy import REDUNDANCY_SCHEMES
from repro.core.registry import SOLVERS
from repro.core.spec import BlockSpec, ResilienceSpec, SolveSpec
from repro.failures.traces import LifetimeModel, TraceSpec
from repro.harness.campaign import OUTCOME_KINDS, CampaignSpec, RunOutcome
from repro.precond.factory import PRECONDITIONERS
from repro.service.accounting import ServiceStats, TenantUsage
from repro.service.traffic import TrafficSpec
from repro.utils.validation import ValidationError


def mixed_case(names):
    """A registered name with each letter drawn in either case."""
    def respell(name):
        return st.lists(st.booleans(), min_size=len(name),
                        max_size=len(name)).map(
            lambda upper: "".join(c.upper() if u else c
                                  for c, u in zip(name, upper)))
    return st.sampled_from(sorted(names)).flatmap(respell)


def ints(low, high):
    """An int in ``[low, high]`` as a Python or a numpy scalar."""
    return st.tuples(st.integers(low, high),
                     st.sampled_from([int, np.int64, np.int32])
                     ).map(lambda t: t[1](t[0]))


def floats(low, high):
    """A finite float in ``[low, high]`` as a Python or a numpy scalar."""
    return st.tuples(
        st.floats(low, high, allow_nan=False, allow_infinity=False),
        st.sampled_from([float, np.float64, np.float32])
    ).map(lambda t: t[1](t[0]))


def optional(strategy):
    return st.none() | strategy


labels = st.text(max_size=6)

failure_events = st.builds(
    FailureEvent, iteration=ints(0, 500),
    ranks=st.lists(ints(0, 31), min_size=1, max_size=4,
                   unique_by=int).map(tuple),
    during_recovery_of=optional(ints(0, 3)), label=labels)

resilience_specs = st.builds(
    ResilienceSpec, phi=ints(0, 6),
    scheme=mixed_case(REDUNDANCY_SCHEMES.names()),
    placement=mixed_case(PLACEMENTS.names()),
    failures=st.lists(failure_events | st.tuples(
        ints(0, 500), st.lists(ints(0, 31), min_size=1, max_size=3,
                               unique_by=int)), max_size=3).map(tuple))

block_specs = st.builds(BlockSpec, n_cols=optional(ints(1, 16)),
                        fuse_reductions=st.booleans())

solve_specs = st.builds(
    SolveSpec, solver=optional(mixed_case(SOLVERS.names())),
    rtol=floats(0.0, 1e-2), atol=floats(0.0, 1e-6),
    max_iterations=optional(ints(1, 10_000)),
    preconditioner=mixed_case(PRECONDITIONERS.names()),
    resilience=optional(resilience_specs), block=optional(block_specs))

lifetime_models = st.builds(LifetimeModel, scale=floats(1.0, 1e4))


def trace_specs(n_nodes=ints(2, 64)):
    return st.builds(
        TraceSpec, n_nodes=n_nodes, horizon=ints(1, 1000),
        lifetime=lifetime_models, burst_rate=floats(0.0, 1.0), label=labels)


@st.composite
def campaign_specs(draw):
    n_nodes = draw(ints(2, 32))
    return CampaignSpec(
        matrix_id=draw(st.sampled_from(["M1", "M3", "M8"])),
        matrix_size=draw(ints(16, 4000)), matrix_seed=draw(ints(0, 99)),
        n_nodes=n_nodes, phi=draw(ints(0, int(n_nodes) - 1)),
        placement=draw(mixed_case(PLACEMENTS.names())),
        preconditioner=draw(mixed_case(PRECONDITIONERS.names())),
        rtol=draw(floats(1e-12, 1e-2)),
        trace=draw(trace_specs(st.just(n_nodes))),
        n_runs=draw(ints(1, 500)), seed=draw(ints(0, 2**31 - 1)),
        timeout_s=draw(floats(0.0, 600.0)))


run_outcomes = st.builds(
    RunOutcome, index=ints(-1, 500), kind=st.sampled_from(OUTCOME_KINDS),
    iterations=optional(ints(0, 5000)),
    simulated_time=optional(floats(0.0, 10.0)), n_recoveries=ints(0, 9),
    n_events=ints(0, 9), n_failures=ints(0, 30),
    loss_iteration=optional(ints(0, 5000)), detail=labels)

names = st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=3)

traffic_specs = st.builds(
    TrafficSpec, n_requests=ints(0, 100), matrix_ids=names.map(tuple),
    tenants=names.map(tuple), rate_per_s=floats(0.0, 100.0))

tenant_usages = st.builds(
    TenantUsage, tenant=labels, n_requests=ints(0, 50),
    n_converged=ints(0, 50), iterations=ints(0, 5000),
    simulated_time=floats(0.0, 10.0),
    charges=st.dictionaries(st.sampled_from(["comm.halo", "compute.spmv"]),
                            floats(0.0, 1.0)))

samples = st.lists(floats(0.0, 1.0), max_size=3)

service_stats = st.builds(
    ServiceStats, n_requests=ints(0, 50), n_batches=ints(0, 50),
    n_coalesced=ints(0, 50), n_failed=ints(0, 50),
    batch_widths=st.lists(ints(1, 8), max_size=4),
    tenants=st.dictionaries(labels, tenant_usages, max_size=2),
    simulated_time=floats(0.0, 10.0), queue_waits_s=samples,
    batch_waits_s=samples, solves_s=samples, latencies_s=samples)

#: One strategy per type that ``from_dict`` rebuilds.
ROUND_TRIP = {
    FailureEvent: failure_events,
    ResilienceSpec: resilience_specs,
    BlockSpec: block_specs,
    SolveSpec: solve_specs,
    LifetimeModel: lifetime_models,
    TraceSpec: trace_specs(),
    CampaignSpec: campaign_specs(),
    RunOutcome: run_outcomes,
    TrafficSpec: traffic_specs,
    TenantUsage: tenant_usages,
    ServiceStats: service_stats,
}

TWO_WAY = sorted(ROUND_TRIP, key=lambda cls: cls.__name__)

#: The fields without a default, per type that has any.
REQUIRED = {
    FailureEvent: {"iteration": 1, "ranks": (0,)},
    RunOutcome: {"index": 0, "kind": "converged"},
    TenantUsage: {"tenant": "t"},
}


@pytest.mark.parametrize("cls", TWO_WAY, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_round_trips_through_json(cls, data):
    spec = data.draw(ROUND_TRIP[cls])
    assert cls.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


@pytest.mark.parametrize("cls", TWO_WAY, ids=lambda cls: cls.__name__)
def test_unknown_key_raises_naming_the_class(cls):
    with pytest.raises(ValidationError,
                       match=rf"unknown {cls.__name__} keys \['bogus'\]"):
        cls.from_dict({**REQUIRED.get(cls, {}), "bogus": 1})


@pytest.mark.parametrize("cls", TWO_WAY, ids=lambda cls: cls.__name__)
def test_missing_keys_take_the_field_defaults(cls):
    required = REQUIRED.get(cls, {})
    assert cls.from_dict(required) == cls(**required)


@pytest.mark.parametrize("cls", sorted(REQUIRED, key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
def test_missing_required_field_raises_the_constructors_error(cls):
    with pytest.raises(TypeError, match="required"):
        cls.from_dict({})


def test_nested_values_are_rebuilt_from_the_annotations():
    stats = ServiceStats.from_dict(
        {"tenants": {"a": {"tenant": "a", "charges": {"comm.halo": 0.5}}}})
    assert stats.tenants == {"a": TenantUsage("a", charges={"comm.halo": 0.5})}
    traffic = TrafficSpec.from_dict({"matrix_ids": ["m", "n"]})
    assert traffic.matrix_ids == ("m", "n")
    spec = SolveSpec.from_dict({"resilience": {"failures": [
        {"iteration": 4, "ranks": [1]}, [9, [2, 3]]]}})
    assert spec.resilience.failures == (FailureEvent(4, (1,)),
                                        FailureEvent(9, (2, 3)))
