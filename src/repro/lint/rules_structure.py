"""Structural rules: registry test coverage, storage-layer access, specs.

These rules keep the architectural seams honest: every name reachable
through the solver/preconditioner registries stays covered by the spec
round-trip tests, node-local memory is only touched through the storage
layer that enforces the failure semantics, and frozen configuration specs
stay frozen.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from .engine import Project, Rule, SourceFile, Violation, dotted_name

#: Decorators whose application registers a name (R003).
REGISTRATION_DECORATORS = frozenset({
    "register_solver", "register_preconditioner", "register_placement",
    "register_batching_policy", "register_redundancy_scheme",
})


class RegisteredNameCoverageRule(Rule):
    """R003: every registered solver/preconditioner/placement name is
    test-covered.

    Walks the scanned tree for registrations through any of
    :data:`REGISTRATION_DECORATORS`
    (``@register_solver("name")``, ``@register_placement("name", ...)``,
    ...) and requires each registered name to appear as a string literal
    somewhere in the test suite -- which, given the spec round-trip tests
    parametrise over the registered names, means a name that never shows
    up in ``tests/`` has silently dropped out of round-trip coverage.  A
    missing ``tests`` directory is itself a finding (the rule cannot vouch
    for anything).
    """

    id = "R003"
    title = "registered names must be test-covered"

    def check_project(self, project: Project) -> Iterator[Violation]:
        registrations = self._registrations(project)
        if not registrations:
            return
        literals = project.test_string_literals()
        if literals is None:
            first_name, src, node = registrations[0]
            yield self.violation(
                src, node,
                f"cannot verify registered name {first_name!r}: no tests/ "
                "directory found (pass --tests-dir)")
            return
        for name, src, node in registrations:
            if name.lower() not in literals:
                yield self.violation(
                    src, node,
                    f"registered name {name!r} does not appear in any test "
                    "file; add it to the spec round-trip tests")

    def _registrations(self, project: Project
                       ) -> List[Tuple[str, SourceFile, ast.AST]]:
        found: List[Tuple[str, SourceFile, ast.AST]] = []
        for src in project.files:
            for node in ast.walk(src.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                for decorator in node.decorator_list:
                    if not isinstance(decorator, ast.Call):
                        continue
                    name = dotted_name(decorator.func)
                    if name is None or name.split(".")[-1] \
                            not in REGISTRATION_DECORATORS:
                        continue
                    if decorator.args and isinstance(
                            decorator.args[0], ast.Constant) and isinstance(
                            decorator.args[0].value, str):
                        found.append(
                            (decorator.args[0].value, src, decorator))
        return found


class NodeMemoryAccessRule(Rule):
    """R004: no direct node-memory access outside the storage layer.

    ``NodeMemory`` enforces the failure semantics (reads on failed nodes
    raise instead of returning stale values) and ``NodeBlockStore`` layers
    the block bookkeeping on top; the solvers must go through
    ``get_block``/``set_block``/``restore_block`` so that every access is
    liveness-checked and recovery-aware.  Flags ``<node>.memory`` attribute
    access and imports of ``NodeMemory``/``NodeBlockStore`` outside the
    pinned storage-layer allowlist.
    """

    id = "R004"
    title = "no direct node-memory access"

    _NAMES = frozenset({"NodeMemory", "NodeBlockStore"})

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute) and node.attr == "memory":
                yield self.violation(
                    src, node,
                    "direct .memory access outside the storage layer; go "
                    "through get_block/set_block/restore_block")
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in self._NAMES:
                        yield self.violation(
                            src, node,
                            f"importing {alias.name} outside the storage "
                            "layer; use the distributed containers instead")


class FrozenSpecRule(Rule):
    """R006: no mutable default arguments; frozen specs stay frozen.

    A mutable default (``def f(x, acc=[])``) is shared across calls --
    state that survives between solves is exactly what the deterministic
    replay contract forbids.  And ``object.__setattr__`` is the documented
    backdoor around frozen dataclasses: outside the spec module's own
    ``__post_init__`` normalisation it silently mutates configuration that
    callers (and the solve caches keyed on it) assume immutable.
    """

    id = "R006"
    title = "no mutable defaults / frozen-spec writes"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray",
                                "defaultdict", "OrderedDict", "Counter"})

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None]
                for default in defaults:
                    if self._is_mutable(default):
                        yield self.violation(
                            src, default,
                            f"mutable default argument in {node.name}(); "
                            "default to None and create the object in the "
                            "body")
            elif isinstance(node, ast.Call):
                if dotted_name(node.func) == "object.__setattr__":
                    yield self.violation(
                        src, node,
                        "object.__setattr__ bypasses a frozen spec outside "
                        "the spec module; use dataclasses.replace/"
                        "with_overrides")

    @classmethod
    def _is_mutable(cls, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and \
                name.split(".")[-1] in cls._MUTABLE_CALLS
        return False
