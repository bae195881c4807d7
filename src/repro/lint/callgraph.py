"""Project-wide symbol table and call graph of :mod:`repro.lint`.

The per-file rules (R001--R006) see one AST at a time; the flow rules
(R007, R008, R010) need to know *who calls whom* across the whole scanned
tree.
This module builds that picture once per :class:`~repro.lint.engine.Project`:

* a symbol table of every module-level function and every method of every
  module-level class (:class:`FunctionInfo` / :class:`ClassInfo`);
* name-based call resolution -- module-local names, ``from x import y``
  aliases, ``self.method(...)`` through the class hierarchy (ancestors for
  static lookup *and* descendant overrides for dynamic dispatch, so a base
  loop calling ``self._after_spmv`` links to every mixin override), and
  ``super().method(...)`` including the cooperative-MRO case of a bare
  mixin whose ``super()`` lands on a sibling base of the concrete class.

Resolution is deliberately name-based and conservative: an attribute call
whose receiver cannot be traced (``obj.frobnicate()``) resolves to the
project methods of that name only while there are at most
:data:`ATTR_CANDIDATE_CAP` candidates -- beyond that the call is treated
as unresolved rather than fanning out over unrelated namesakes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from .engine import Project, SourceFile, dotted_name

#: Maximum number of same-named methods an untraceable attribute call may
#: resolve to; more candidates than this means the name is too generic to
#: link without type information.
ATTR_CANDIDATE_CAP = 4


@dataclass(frozen=True)
class FunctionInfo:
    """One module-level function or class method of the scanned tree."""

    #: Simple name (``solve``, ``_after_spmv``).
    name: str
    #: Unique key: ``rel_path::Class.method`` / ``rel_path::function``.
    qualname: str
    src: SourceFile
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Defining class name, ``None`` for module-level functions.
    class_name: Optional[str]

    @property
    def path(self) -> str:
        return self.src.rel_path

    @property
    def line(self) -> int:
        return int(getattr(self.node, "lineno", 1))

    def location(self) -> str:
        """``path:line`` hop label used in interprocedural traces."""
        return f"{self.path}:{self.line}"


@dataclass
class ClassInfo:
    """One module-level class definition of the scanned tree."""

    name: str
    src: SourceFile
    node: ast.ClassDef
    #: Raw base names as written (last dotted segment is used to resolve).
    base_names: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


class CallGraph:
    """Symbol table + call resolution over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: Every function/method by qualified name.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Every module-level class by simple name (first definition wins;
        #: class names are unique in this tree).
        self.classes: Dict[str, ClassInfo] = {}
        self._module_functions: Dict[Tuple[str, str], FunctionInfo] = {}
        self._by_simple_name: Dict[str, List[FunctionInfo]] = {}
        self._methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: Per module: local alias -> imported simple name.
        self._imports: Dict[str, Dict[str, str]] = {}
        self._ancestor_cache: Dict[str, Tuple[ClassInfo, ...]] = {}
        self._descendant_cache: Optional[Dict[str, List[ClassInfo]]] = None
        for src in project.files:
            self._index_module(src)

    # -- construction ------------------------------------------------------
    def _index_module(self, src: SourceFile) -> None:
        imports: Dict[str, str] = {}
        for stmt in src.tree.body:
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    imports[alias.asname or alias.name] = alias.name
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(src, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(src, stmt)
        self._imports[src.rel_path] = imports

    def _add_class(self, src: SourceFile, node: ast.ClassDef) -> None:
        bases = tuple(name for name in
                      (dotted_name(b) for b in node.bases) if name)
        info = ClassInfo(name=node.name, src=src, node=node, base_names=bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = self._add_function(src, stmt, class_name=node.name)
                info.methods[stmt.name] = func
        self.classes.setdefault(node.name, info)

    def _add_function(self, src: SourceFile, node: ast.AST,
                      class_name: Optional[str]) -> FunctionInfo:
        name = getattr(node, "name", "<lambda>")
        prefix = f"{class_name}." if class_name else ""
        qualname = f"{src.rel_path}::{prefix}{name}"
        func = FunctionInfo(name=name, qualname=qualname, src=src, node=node,
                            class_name=class_name)
        self.functions.setdefault(qualname, func)
        self._by_simple_name.setdefault(name, []).append(func)
        if class_name is None:
            self._module_functions.setdefault((src.rel_path, name), func)
        else:
            self._methods_by_name.setdefault(name, []).append(func)
        return func

    # -- hierarchy queries -------------------------------------------------
    def ancestors(self, class_name: str) -> Tuple[ClassInfo, ...]:
        """Project-local ancestors of *class_name*, nearest first."""
        cached = self._ancestor_cache.get(class_name)
        if cached is not None:
            return cached
        out: List[ClassInfo] = []
        seen: Set[str] = {class_name}
        queue = list(self.classes[class_name].base_names) \
            if class_name in self.classes else []
        while queue:
            base = queue.pop(0).split(".")[-1]
            if base in seen:
                continue
            seen.add(base)
            info = self.classes.get(base)
            if info is None:
                continue
            out.append(info)
            queue.extend(info.base_names)
        result = tuple(out)
        self._ancestor_cache[class_name] = result
        return result

    def descendants(self, class_name: str) -> List[ClassInfo]:
        """Classes that (transitively) derive from *class_name*."""
        if self._descendant_cache is None:
            cache: Dict[str, List[ClassInfo]] = {}
            for info in self.classes.values():
                for ancestor in self.ancestors(info.name):
                    cache.setdefault(ancestor.name, []).append(info)
            self._descendant_cache = cache
        return list(self._descendant_cache.get(class_name, []))

    def resolve_method(self, class_name: str,
                       method: str) -> Optional[FunctionInfo]:
        """Static lookup: *method* on *class_name* or its nearest ancestor."""
        info = self.classes.get(class_name)
        if info is not None and method in info.methods:
            return info.methods[method]
        for ancestor in self.ancestors(class_name):
            if method in ancestor.methods:
                return ancestor.methods[method]
        return None

    # -- call resolution ---------------------------------------------------
    def resolve_self_call(self, caller: FunctionInfo,
                          method: str) -> List[FunctionInfo]:
        """``self.method(...)``: static target plus descendant overrides.

        Dynamic dispatch means a base-class loop calling ``self.hook()``
        may land on any override further down the hierarchy, so both the
        statically visible definition and every override on a descendant
        of the caller's class are linked.
        """
        if caller.class_name is None:
            return []
        out: List[FunctionInfo] = []
        static = self.resolve_method(caller.class_name, method)
        if static is not None:
            out.append(static)
        for descendant in self.descendants(caller.class_name):
            override = descendant.methods.get(method)
            if override is not None and override not in out:
                out.append(override)
        return out

    def resolve_super_call(self, caller: FunctionInfo,
                           method: str) -> List[FunctionInfo]:
        """``super().method(...)``: ancestors, else cooperative-MRO siblings.

        A bare mixin has no project-local ancestors, but under cooperative
        multiple inheritance its ``super()`` lands on whatever follows it in
        a concrete class's MRO -- approximated here by the other ancestors
        of the classes that derive from the mixin.
        """
        if caller.class_name is None:
            return []
        out: List[FunctionInfo] = []
        for ancestor in self.ancestors(caller.class_name):
            if method in ancestor.methods:
                out.append(ancestor.methods[method])
        if out:
            return out
        siblings: List[ClassInfo] = []
        for descendant in self.descendants(caller.class_name):
            for ancestor in self.ancestors(descendant.name):
                if ancestor.name != caller.class_name and \
                        ancestor not in siblings:
                    siblings.append(ancestor)
        for sibling in sorted(siblings, key=lambda c: c.name):
            if method in sibling.methods:
                out.append(sibling.methods[method])
        return out

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> List[FunctionInfo]:
        """Project functions a call expression may dispatch to (maybe [])."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(caller, func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                return self.resolve_self_call(caller, func.attr)
            if isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name) and \
                    value.func.id == "super":
                return self.resolve_super_call(caller, func.attr)
            candidates = self._methods_by_name.get(func.attr, [])
            if 0 < len(candidates) <= ATTR_CANDIDATE_CAP:
                return list(candidates)
        return []

    def _resolve_name(self, caller: FunctionInfo,
                      name: str) -> List[FunctionInfo]:
        local = self._module_functions.get((caller.path, name))
        if local is not None:
            return [local]
        imported = self._imports.get(caller.path, {}).get(name)
        target = imported.split(".")[-1] if imported else name
        if target in self.classes:
            return []  # constructor call: not traversed
        matches = [f for f in self._by_simple_name.get(target, [])
                   if f.class_name is None]
        if imported is not None and matches:
            return matches[:1] if len(matches) == 1 else matches[:2]
        if len(matches) == 1:
            return matches
        return []


_CACHE: "WeakKeyDictionary[Project, CallGraph]" = WeakKeyDictionary()


def get_callgraph(project: Project) -> CallGraph:
    """The (cached) call graph of *project* -- built once, shared by every
    flow rule of the same lint run."""
    graph = _CACHE.get(project)
    if graph is None:
        graph = CallGraph(project)
        _CACHE[project] = graph
    return graph
