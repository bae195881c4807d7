"""Tests for the declarative solver configuration (`repro.core.spec`).

Contract: every spec validates on construction, round-trips through
``to_dict``/``from_dict`` (including through an actual JSON encode/decode),
``with_overrides`` routes extension fields to the right sub-spec, and
``resolved_solver`` implements the documented auto-selection rules.
"""

import dataclasses
import json
import math

import pytest

import repro
from repro.cluster import FailureEvent
from repro.core import BlockSpec, ResilienceSpec, SolveSpec
from repro.core.spec import build_failure_events
from repro.failures.traces import LifetimeModel, TraceSpec
from repro.harness.campaign import CampaignSpec
from repro.matrices import poisson_2d
from repro.precond import make_preconditioner
from repro.utils.validation import ValidationError


class TestValidation:
    def test_defaults_are_the_paper_reference(self):
        spec = SolveSpec()
        assert spec.solver is None
        assert spec.rtol == 1e-8
        assert spec.atol == 0.0
        assert spec.max_iterations is None
        assert spec.preconditioner == "block_jacobi"
        assert spec.resilience is None
        assert spec.block is None

    @pytest.mark.parametrize("kwargs", [
        {"rtol": -1e-8},
        {"atol": -1.0},
        # A non-finite tolerance would stop or never stop the solve: rtol =
        # inf reported a wrong answer as converged after 0 iterations.
        {"rtol": math.inf},
        {"rtol": math.nan},
        {"atol": math.inf},
        {"atol": "nan"},
        {"max_iterations": 0},
        {"max_iterations": -3},
    ])
    def test_bad_solve_spec_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveSpec(**kwargs)

    @pytest.mark.parametrize("cls,name", [(SolveSpec, "rtol"),
                                          (SolveSpec, "atol")])
    def test_tolerances_are_cast_to_float(self, cls, name):
        """A tolerance given as a string is the number it spells, from the
        constructor and from JSON alike, so it compares (and keys a
        coalesced batch) like that number instead of failing at the first
        recovery."""
        spec = cls(**{name: "1e-10"})
        assert type(getattr(spec, name)) is float
        assert spec == cls(**{name: 1e-10})
        assert cls.from_dict({name: "1e-10"}) == spec
        assert spec.to_dict() == cls(**{name: 1e-10}).to_dict()

    @pytest.mark.parametrize("preconditioner", [None, 3, make_preconditioner],
                             ids=["None", "int", "function"])
    def test_preconditioner_is_a_name_or_an_instance(self, preconditioner):
        # ``None`` is no spelling of the default block Jacobi.
        with pytest.raises(TypeError, match="registered name"):
            SolveSpec(preconditioner=preconditioner)

    @pytest.mark.parametrize("kwargs", [
        {"phi": -1},
    ])
    def test_bad_resilience_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceSpec(**kwargs)

    def test_resilience_spec_has_the_four_layout_and_schedule_fields(self):
        """The reconstruction's local solve is the paper's, not a knob, and
        the rack layout and stripe width derive from the node count."""
        assert [f.name for f in dataclasses.fields(ResilienceSpec)] == [
            "phi", "scheme", "placement", "failures"]

    def test_solve_spec_has_seven_fields(self):
        """A preconditioner name is its whole configuration."""
        assert [f.name for f in dataclasses.fields(SolveSpec)] == [
            "solver", "rtol", "atol", "max_iterations", "preconditioner",
            "resilience", "block"]

    @pytest.mark.parametrize("n_cols", [0, -2])
    def test_bad_block_fields_rejected(self, n_cols):
        with pytest.raises(ValueError):
            BlockSpec(n_cols=n_cols)

    def test_failure_tuples_normalised_to_events(self):
        spec = ResilienceSpec(failures=[(10, 3), (20, [4, 5])])
        assert all(isinstance(e, FailureEvent) for e in spec.failures)
        assert spec.failures[0].iteration == 10
        assert spec.failures[0].ranks == (3,)
        assert spec.failures[1].ranks == (4, 5)

    def test_placement_coerced_from_string(self):
        spec = ResilienceSpec(placement="NEXT_RANKS")
        assert spec.placement == "next_ranks"

    def test_nested_specs_coerced_from_mappings(self):
        spec = SolveSpec(resilience={"phi": 2}, block={"n_cols": 3})
        assert isinstance(spec.resilience, ResilienceSpec)
        assert spec.resilience.phi == 2
        assert isinstance(spec.block, BlockSpec)
        assert spec.block.n_cols == 3

    def test_build_failure_events_passthrough(self):
        event = FailureEvent(5, (1,), label="x")
        assert build_failure_events([event]) == [event]


#: Pinned snapshots of the registry contents.  ``repro.lint`` rule R003
#: requires every registered name to appear as a literal in the test suite;
#: these lists (checked against the live registries below) are that
#: round-trip coverage -- extend them when registering a new name.
REGISTERED_SOLVER_NAMES = ["pcg", "resilient_pcg"]
REGISTERED_PRECONDITIONER_NAMES = [
    "block_jacobi", "block_jacobi_ilu", "identity", "jacobi",
]
REGISTERED_REDUNDANCY_SCHEME_NAMES = ["copies", "rs_parity"]


class TestRegistryRoundTrip:
    """Every registered name stays reachable through a spec round-trip."""

    def test_pinned_solver_names_match_registry(self):
        from repro.core.registry import SOLVERS
        assert sorted(SOLVERS.names()) == REGISTERED_SOLVER_NAMES

    def test_pinned_preconditioner_names_match_registry(self):
        from repro.precond.factory import PRECONDITIONERS
        assert sorted(PRECONDITIONERS.names()) == \
            REGISTERED_PRECONDITIONER_NAMES

    @pytest.mark.parametrize("name", REGISTERED_SOLVER_NAMES)
    def test_registered_solver_round_trips(self, name):
        spec = SolveSpec(solver=name)
        rebuilt = SolveSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.solver == name

    @pytest.mark.parametrize("name", REGISTERED_PRECONDITIONER_NAMES)
    def test_registered_preconditioner_round_trips(self, name):
        spec = SolveSpec(preconditioner=name)
        rebuilt = SolveSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.preconditioner == name

    @pytest.mark.parametrize("name", REGISTERED_PRECONDITIONER_NAMES)
    def test_registered_preconditioner_builds(self, name):
        preconditioner = make_preconditioner(name)
        assert not preconditioner.is_set_up

    def test_pinned_redundancy_scheme_names_match_registry(self):
        from repro.core.redundancy import REDUNDANCY_SCHEMES
        assert sorted(REDUNDANCY_SCHEMES.names()) == \
            REGISTERED_REDUNDANCY_SCHEME_NAMES

    @pytest.mark.parametrize("name", REGISTERED_REDUNDANCY_SCHEME_NAMES)
    def test_registered_redundancy_scheme_round_trips(self, name):
        spec = SolveSpec(solver="resilient_pcg",
                         resilience=ResilienceSpec(scheme=name))
        rebuilt = SolveSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.resilience.scheme == name

    def test_scheme_name_normalised_to_registry_case(self):
        spec = ResilienceSpec(scheme="RS_Parity")
        assert spec.scheme == "rs_parity"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="redundancy scheme"):
            ResilienceSpec(scheme="raid6")


#: The removed spec fields: ``(spec class, field, a value it once took)``.
REMOVED_KNOBS = [(SolveSpec, "overlap_spmv", True),
                 (ResilienceSpec, "reconstruction_form", "forward"),
                 (ResilienceSpec, "local_solver_method", "direct"),
                 (ResilienceSpec, "local_rtol", 1e-12),
                 (SolveSpec, "preconditioner_options", {"drop_tol": 1e-3}),
                 (ResilienceSpec, "rack_size", 2),
                 (ResilienceSpec, "scheme_options", {"group_size": 3}),
                 (CampaignSpec, "rack_size", 2),
                 (CampaignSpec, "max_iterations", 100),
                 (TraceSpec, "rack_size", 2),
                 (TraceSpec, "repair_delay", 5.0),
                 (LifetimeModel, "distribution", "weibull"),
                 (LifetimeModel, "shape", 0.7)]


class TestRoundTrip:
    def full_spec(self):
        return SolveSpec(
            solver="resilient_pcg", rtol=1e-10, atol=1e-30,
            max_iterations=500,
            preconditioner="block_jacobi_ilu",
            resilience=ResilienceSpec(
                phi=3, placement="next_ranks", scheme="rs_parity",
                failures=[FailureEvent(20, (2, 3), label="outage"),
                          FailureEvent(20, (5,), during_recovery_of=0)],
            ),
        )

    def test_default_spec_round_trips(self):
        spec = SolveSpec()
        assert SolveSpec.from_dict(spec.to_dict()) == spec

    def test_full_spec_round_trips(self):
        spec = self.full_spec()
        assert SolveSpec.from_dict(spec.to_dict()) == spec

    def test_block_spec_round_trips(self):
        spec = SolveSpec(block=BlockSpec(n_cols=4, fuse_reductions=True))
        assert SolveSpec.from_dict(spec.to_dict()) == spec

    def test_round_trips_through_actual_json(self):
        spec = self.full_spec()
        rebuilt = SolveSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_instance_preconditioner_not_serializable(self):
        spec = SolveSpec(preconditioner=make_preconditioner("jacobi"))
        with pytest.raises(ValueError, match="not\\s+serializable"):
            spec.to_dict()

    @pytest.mark.parametrize("cls", [SolveSpec, ResilienceSpec, BlockSpec])
    def test_unknown_keys_rejected(self, cls):
        with pytest.raises(ValueError, match="unknown"):
            cls.from_dict({"definitely_not_a_field": 1})

    def test_removed_engine_key_rejected(self):
        """The ``engine`` switch is gone with the dense-gather SpMV; a
        spec that still names it fails loudly instead of being ignored."""
        with pytest.raises(ValueError, match="engine"):
            SolveSpec.from_dict({"engine": True})

    @pytest.mark.parametrize("cls,key,value", REMOVED_KNOBS)
    def test_removed_knobs_rejected(self, cls, key, value):
        """The split-phase solver SpMV, the forced reconstruction form,
        the reconstruction's local-solver method and tolerance, the
        preconditioner options, the rack size, the scheme options, the
        campaign's iteration cap, the trace's repair delay and the Weibull
        lifetimes are gone with their fields; naming one fails loudly."""
        with pytest.raises(TypeError, match=key):
            cls(**{key: value})
        with pytest.raises(ValidationError, match=cls.__name__):
            cls.from_dict({key: value})

    def test_unknown_failure_event_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ResilienceSpec.from_dict(
                {"failures": [{"iteration": 1, "ranks": [0], "oops": 2}]})


class TestWithOverrides:
    def test_top_level_override(self):
        spec = SolveSpec().with_overrides(rtol=1e-6, max_iterations=50)
        assert spec.rtol == 1e-6
        assert spec.max_iterations == 50

    def test_resilience_fields_routed_and_extension_created(self):
        spec = SolveSpec().with_overrides(phi=2, failures=[(10, [1])])
        assert spec.resilience is not None
        assert spec.resilience.phi == 2
        assert spec.resilience.failures[0].ranks == (1,)

    def test_resilience_fields_merge_into_existing_extension(self):
        base = SolveSpec(resilience=ResilienceSpec(
            phi=3, placement="next_ranks"))
        spec = base.with_overrides(phi=1)
        assert spec.resilience.phi == 1
        assert spec.resilience.placement == "next_ranks"

    def test_block_fields_routed(self):
        spec = SolveSpec().with_overrides(fuse_reductions=True)
        assert spec.block is not None
        assert spec.block.fuse_reductions is True

    def test_original_spec_unchanged(self):
        base = SolveSpec()
        base.with_overrides(rtol=1e-4, phi=5)
        assert base.rtol == 1e-8
        assert base.resilience is None

    def test_unknown_override_rejected_listing_fields(self):
        with pytest.raises(ValueError) as excinfo:
            SolveSpec().with_overrides(not_a_knob=1)
        message = str(excinfo.value)
        assert "not_a_knob" in message
        assert "rtol" in message and "phi" in message

    def test_removed_engine_override_rejected_by_solve(self):
        problem = repro.distribute_problem(poisson_2d(8), n_nodes=2)
        with pytest.raises(ValueError, match="engine"):
            repro.solve(problem, engine=False)

    @pytest.mark.parametrize("key,value",
                             [knob[1:] for knob in REMOVED_KNOBS
                              if knob[0] in (SolveSpec, ResilienceSpec)])
    def test_removed_knob_rejected_by_solve_before_any_charge(self, key,
                                                              value):
        problem = repro.distribute_problem(poisson_2d(8), n_nodes=2)
        before = problem.cluster.ledger.snapshot()
        with pytest.raises(ValueError, match=key) as excinfo:
            repro.solve(problem, **{key: value})
        assert "top-level fields" in str(excinfo.value)
        assert problem.cluster.ledger.snapshot() == before


class TestResolvedSolver:
    def test_plain_default(self):
        assert SolveSpec().resolved_solver() == "pcg"

    def test_resilience_selects_resilient(self):
        spec = SolveSpec(resilience=ResilienceSpec())
        assert spec.resolved_solver() == "resilient_pcg"

    def test_block_extension_selects_no_solver(self):
        assert SolveSpec(block=BlockSpec()).resolved_solver() == "pcg"
        spec = SolveSpec(block=BlockSpec(), resilience=ResilienceSpec())
        assert spec.resolved_solver() == "resilient_pcg"

    def test_explicit_name_wins(self):
        spec = SolveSpec(solver="pcg", resilience=ResilienceSpec())
        assert spec.resolved_solver() == "pcg"
