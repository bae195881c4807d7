"""Tests for the project-wide symbol table / call graph (`repro.lint.callgraph`).

Contract: module-level functions and class methods are indexed under
stable qualified names; call expressions resolve through module-local
names, import aliases, ``self`` dispatch (static target plus descendant
overrides), and ``super()`` (ancestors, else cooperative-MRO siblings).
"""

import ast
import textwrap

from repro.lint.callgraph import (
    ATTR_CANDIDATE_CAP,
    CallGraph,
    get_callgraph,
)
from repro.lint.engine import Project, SourceFile


def build(tmp_path, modules):
    """CallGraph over a synthetic tree of ``{rel_path: source}`` modules."""
    files = []
    for rel, source in modules.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        files.append(SourceFile.parse(path, rel))
    project = Project(files)
    return project, CallGraph(project)


def call_in(graph, qualname):
    """The first call expression of the function *qualname*, resolved."""
    func = graph.functions[qualname]
    for node in ast.walk(func.node):
        if isinstance(node, ast.Call):
            return [t.qualname for t in graph.resolve_call(func, node)]
    return []


class TestSymbolTable:
    def test_functions_and_methods_indexed(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": """\
            def helper():
                pass

            class Solver:
                def solve(self):
                    pass
        """})
        assert "mod.py::helper" in graph.functions
        assert "mod.py::Solver.solve" in graph.functions
        info = graph.functions["mod.py::Solver.solve"]
        assert info.class_name == "Solver"
        assert info.path == "mod.py"
        assert info.location() == f"mod.py:{info.line}"
        assert "Solver" in graph.classes
        assert "solve" in graph.classes["Solver"].methods

    def test_class_bases_recorded(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": """\
            import pkg

            class Base:
                pass

            class Child(Base, pkg.External):
                pass
        """})
        assert graph.classes["Child"].base_names == ("Base", "pkg.External")


class TestNameResolution:
    def test_module_local_call(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": """\
            def target():
                pass

            def caller():
                target()
        """})
        assert call_in(graph, "mod.py::caller") == ["mod.py::target"]

    def test_imported_name(self, tmp_path):
        _, graph = build(tmp_path, {
            "helpers.py": "def util():\n    pass\n",
            "mod.py": """\
                from helpers import util

                def caller():
                    util()
            """,
        })
        assert call_in(graph, "mod.py::caller") == ["helpers.py::util"]

    def test_import_alias(self, tmp_path):
        _, graph = build(tmp_path, {
            "helpers.py": "def util():\n    pass\n",
            "mod.py": """\
                from helpers import util as u

                def caller():
                    u()
            """,
        })
        assert call_in(graph, "mod.py::caller") == ["helpers.py::util"]

    def test_unique_project_wide_fallback(self, tmp_path):
        _, graph = build(tmp_path, {
            "helpers.py": "def only_here():\n    pass\n",
            "mod.py": "def caller():\n    only_here()\n",
        })
        assert call_in(graph, "mod.py::caller") == ["helpers.py::only_here"]

    def test_ambiguous_unimported_name_unresolved(self, tmp_path):
        _, graph = build(tmp_path, {
            "a.py": "def twin():\n    pass\n",
            "b.py": "def twin():\n    pass\n",
            "mod.py": "def caller():\n    twin()\n",
        })
        assert call_in(graph, "mod.py::caller") == []

    def test_constructor_calls_not_traversed(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": """\
            class Thing:
                pass

            def caller():
                Thing()
        """})
        assert call_in(graph, "mod.py::caller") == []


class TestSelfAndSuperDispatch:
    HIERARCHY = """\
        class Base:
            def hook(self):
                pass

            def loop(self):
                self.hook()

        class Child(Base):
            def hook(self):
                super().hook()
    """

    def test_self_call_links_static_target_and_overrides(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": self.HIERARCHY})
        targets = call_in(graph, "mod.py::Base.loop")
        assert targets == ["mod.py::Base.hook", "mod.py::Child.hook"]

    def test_super_resolves_to_ancestor(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": self.HIERARCHY})
        assert call_in(graph, "mod.py::Child.hook") == ["mod.py::Base.hook"]

    def test_resolve_method_walks_ancestors(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": self.HIERARCHY})
        found = graph.resolve_method("Child", "loop")
        assert found is not None and found.qualname == "mod.py::Base.loop"
        assert graph.resolve_method("Child", "missing") is None

    def test_descendants_are_transitive(self, tmp_path):
        _, graph = build(tmp_path, {"mod.py": """\
            class A:
                pass

            class B(A):
                pass

            class C(B):
                pass
        """})
        assert [c.name for c in graph.descendants("A")] == ["B", "C"]

    def test_bare_mixin_super_lands_on_cobase(self, tmp_path):
        # Cooperative MRO: the mixin has no project-local ancestors, but a
        # concrete class mixes it in before Base, so super() from the mixin
        # reaches Base's method at runtime.
        _, graph = build(tmp_path, {"mod.py": """\
            class Base:
                def hook(self):
                    pass

            class Mixin:
                def hook(self):
                    super().hook()

            class Concrete(Mixin, Base):
                pass
        """})
        assert call_in(graph, "mod.py::Mixin.hook") == ["mod.py::Base.hook"]


class TestAttributeCandidates:
    @staticmethod
    def _classes_with_method(n):
        return "\n".join(
            f"class C{i}:\n    def frob(self):\n        pass\n"
            for i in range(n))

    def test_few_candidates_fan_out(self, tmp_path):
        source = self._classes_with_method(2) + \
            "def caller(obj):\n    obj.frob()\n"
        _, graph = build(tmp_path, {"mod.py": source})
        assert sorted(call_in(graph, "mod.py::caller")) == \
            ["mod.py::C0.frob", "mod.py::C1.frob"]

    def test_too_many_candidates_unresolved(self, tmp_path):
        source = self._classes_with_method(ATTR_CANDIDATE_CAP + 1) + \
            "def caller(obj):\n    obj.frob()\n"
        _, graph = build(tmp_path, {"mod.py": source})
        assert call_in(graph, "mod.py::caller") == []


class TestCaching:
    def test_get_callgraph_reuses_per_project(self, tmp_path):
        project, _ = build(tmp_path, {"mod.py": "def f():\n    pass\n"})
        assert get_callgraph(project) is get_callgraph(project)

    def test_distinct_projects_get_distinct_graphs(self, tmp_path):
        p1, _ = build(tmp_path / "one", {"mod.py": "def f():\n    pass\n"})
        p2, _ = build(tmp_path / "two", {"mod.py": "def f():\n    pass\n"})
        assert get_callgraph(p1) is not get_callgraph(p2)
