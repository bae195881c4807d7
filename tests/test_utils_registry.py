"""The one name-registry contract, checked on every registry.

Solvers, preconditioners, placements, redundancy schemes and batching
policies all resolve names through :class:`repro.utils.registry.Registry`.
The contract below is parametrized over the five registries: each stores
the decorated object itself, so a name is the one spelling of a choice.
The per-domain test files keep only what is particular to one registry
(``scheme_name``, ``make_preconditioner``'s ``TypeError``).  The last
test ties the registries to lint rule R003: its registration scan must
find exactly the names the registries hold.
"""

from pathlib import Path

import pytest

from repro.core.placement import PLACEMENTS, register_placement
from repro.core.redundancy import (
    REDUNDANCY_SCHEMES,
    RedundancySchemeBase,
    register_redundancy_scheme,
)
from repro.core.registry import SOLVERS, register_solver
from repro.lint import Project, SourceFile
from repro.lint.engine import discover_files
from repro.lint.rules_structure import RegisteredNameCoverageRule
from repro.precond.factory import PRECONDITIONERS, register_preconditioner
from repro.service.policies import BATCHING_POLICIES, register_batching_policy
from repro.utils.registry import Registry

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _function():
    def registered(*args, **kwargs):
        return None
    return registered


def _scheme_class():
    return type("ContractScheme", (RedundancySchemeBase,), {})


#: ``(registry, kind, its registration decorator, a fresh registrable)``.
REGISTRIES = {
    "solvers": (SOLVERS, "solver", register_solver, _function),
    "preconditioners": (PRECONDITIONERS, "preconditioner",
                        register_preconditioner, _function),
    "placements": (PLACEMENTS, "placement", register_placement, _function),
    "redundancy_schemes": (REDUNDANCY_SCHEMES, "redundancy scheme",
                           register_redundancy_scheme, _scheme_class),
    "batching_policies": (BATCHING_POLICIES, "batching policy",
                          register_batching_policy, _function),
}

TEST_ONLY = "contract_test_only"


@pytest.fixture(params=sorted(REGISTRIES))
def entry(request):
    return REGISTRIES[request.param]


class TestRegistryContract:
    def test_names_are_a_sorted_tuple_of_lower_case_names(self, entry):
        registry = entry[0]
        names = registry.names()
        assert isinstance(names, tuple) and names
        assert names == tuple(sorted(names))
        assert all(name == name.lower() for name in names)

    def test_get_is_case_insensitive(self, entry):
        registry = entry[0]
        for name in registry.names():
            assert registry.get(name.upper()) is registry.get(name)
            assert registry.get(name.title()) is registry.get(name)

    def test_unknown_name_lists_every_registered_name(self, entry):
        registry, kind = entry[:2]
        with pytest.raises(ValueError) as excinfo:
            registry.get("no_such_entry")
        message = str(excinfo.value)
        assert message.startswith(f"unknown {kind} 'no_such_entry'")
        for name in registry.names():
            assert repr(name) in message

    def test_membership_iteration_and_descriptions_agree(self, entry):
        registry = entry[0]
        names = registry.names()
        assert tuple(registry) == names
        assert tuple(registry.descriptions()) == names
        for name in names:
            assert name in registry
            assert name.upper() in registry
        assert "no_such_entry" not in registry
        assert None not in registry

    def test_decorator_returns_its_argument_unchanged(self, entry):
        registry, _, decorator, make = entry
        obj = make()
        try:
            assert decorator(TEST_ONLY.upper(), "contract stub")(obj) is obj
            assert TEST_ONLY in registry
            assert registry.get(TEST_ONLY) is obj
            assert registry.descriptions()[TEST_ONLY] == "contract stub"
        finally:
            registry._entries.pop(TEST_ONLY, None)
        assert TEST_ONLY not in registry


class TestRegistryClass:
    def test_add_replaces_an_earlier_entry(self):
        registry = Registry("widget")
        registry.add("Gear", 1)
        registry.add("GEAR", 2, "the second gear")
        assert registry.names() == ("gear",)
        assert registry.get("gear") == 2
        assert registry.descriptions() == {"gear": "the second gear"}

    def test_register_defaults_to_an_empty_description(self):
        registry = Registry("widget")
        registry.register("cog")(len)
        assert registry.descriptions() == {"cog": ""}

    def test_empty_registry_lists_no_names(self):
        registry = Registry("widget")
        with pytest.raises(ValueError, match=r"unknown widget 'x'; "
                                             r"available: \(\)"):
            registry.get("x")
        assert list(registry) == []


def test_r003_scan_finds_exactly_the_registered_names():
    """A registration R003 cannot see would escape its test-coverage check."""
    files = [SourceFile.parse(path, rel)
             for path, rel in discover_files([SRC_ROOT])]
    found = RegisteredNameCoverageRule()._registrations(Project(files))
    scanned = sorted(name.lower() for name, _, _ in found)
    registered = sorted(name for registry, *_ in REGISTRIES.values()
                        for name in registry.names())
    assert scanned == registered
