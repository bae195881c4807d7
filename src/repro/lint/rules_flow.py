"""Interprocedural flow rules R007--R010.

These rules consume the :mod:`~repro.lint.callgraph` symbol table and the
:mod:`~repro.lint.dataflow` taint engine; unlike R001--R006 they reason
about call *chains*, so each violation message carries the full hop trace
(``a.py:12 -> b.py:40 -> sink``).  Violations are anchored at the most
actionable location -- the taint's origin for R007, the offending call or
store site for R008--R010 -- which is also where the allowlist and
``# noqa`` machinery applies.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import CallGraph, ClassInfo, FunctionInfo, get_callgraph
from .dataflow import SINK_CHARGE, TaintAnalyzer
from .engine import Project, Rule, SourceFile, Violation

#: Communicator primitives (R008/R009).  ``recv`` is deliberately uncharged
#: in the cost model (the matching ``send`` paid for the transfer).
COMM_PRIMITIVES = frozenset({
    "send", "recv", "allreduce_sum", "bcast", "gather", "allgather",
    "barrier",
})

#: The solver hook protocol checked by R010 (and SimSan's ``hook_super``).
HOOK_NAMES = ("_on_setup", "_after_spmv", "_handle_failures",
              "_after_iteration")


def _in_cluster(rel_path: str) -> bool:
    """Whether *rel_path* lies inside the ``cluster/`` package."""
    return "cluster" in rel_path.split("/")[:-1]


def _is_trivial_body(node: ast.AST) -> bool:
    """Docstring-only / ``pass`` / bare-constant-return bodies: these are
    protocol *declarations* (extension points), not implementations."""
    for stmt in getattr(node, "body", []):
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)):
            continue
        if isinstance(stmt, ast.Raise):
            continue  # abstract "must override" declaration
        return False
    return True


def _protocol_classes(graph: CallGraph) -> Set[str]:
    """Classes declaring at least one *trivial* hook: the protocol owners
    (``BlockPCG``-shaped bases)."""
    out: Set[str] = set()
    for info in graph.classes.values():
        for hook in HOOK_NAMES:
            method = info.methods.get(hook)
            if method is not None and _is_trivial_body(method.node):
                out.add(info.name)
                break
    return out


def _calls_super_hook(method: FunctionInfo, hook: str) -> bool:
    for node in ast.walk(method.node):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == hook and \
                isinstance(node.func.value, ast.Call) and \
                isinstance(node.func.value.func, ast.Name) and \
                node.func.value.func.id == "super":
            return True
    return False


def _has_charge_call(func: FunctionInfo) -> bool:
    for node in ast.walk(func.node):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in SINK_CHARGE:
            return True
    return False


class NondeterminismFlowRule(Rule):
    """R007: nondeterminism must not flow into charges/payloads/results.

    The flow-sensitive upgrade of R001/R002/R005: a value derived from
    wallclock, unseeded RNG, ``id()``, ``os.environ``, or unordered set
    iteration must not reach -- through any call chain -- a ``CostLedger``
    charge, a ``Communicator`` payload, failure-schedule construction, or
    solver-result construction.  Laundering through helpers is what this
    rule exists to catch: the violation is anchored at the *source* (where
    the nondeterminism enters), and the message carries the full hop trace
    to the sink.  Allowlisted files are modules sanctioned to *produce*
    such values (the seeded-RNG funnel, the host-timing harness).
    """

    id = "R007"
    title = "no nondeterminism flowing into charges/payloads/results"

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = get_callgraph(project)
        for flow in TaintAnalyzer(graph).flows():
            yield self.violation(
                flow.origin_path, flow.origin_line,
                f"{flow.kind} value ({flow.detail}) flows into "
                f"{flow.sink_label}: {flow.render_trace()}")


class ChargeCoverageRule(Rule):
    """R008: every communication path must pass a CostLedger charging site.

    Three checks: (a) each ``Communicator`` primitive (except ``recv``,
    whose cost is carried by the matching ``send``) must itself reach a
    charging call (``add_time``/``add_overlapped``/``add_traffic``/
    ``_charge_message``) within a short self-call chain; (b) a primitive
    invoked with ``charge=False`` outside ``cluster/`` is only legal when
    the enclosing function charges explicitly -- otherwise payload moves
    for free, and the message shows the solver entry point that reaches
    the uncharged call; (c) ``Communicator`` pending-mail internals
    (``_mailboxes``) are private to ``cluster/`` -- other modules must go
    through the primitives so accounting cannot be bypassed.
    """

    id = "R008"
    title = "no uncharged communication paths"

    _CHARGE_BFS_DEPTH = 3
    _TRACE_DEPTH = 10

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if _in_cluster(src.rel_path):
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute) and \
                    node.attr == "_mailboxes":
                yield self.violation(
                    src, node,
                    "touching Communicator._mailboxes outside cluster/; "
                    "pending mail is internal -- use send/recv/"
                    "pending_messages so every transfer is charged")

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = get_callgraph(project)
        yield from self._check_primitives_charge(graph)
        yield from self._check_uncharged_calls(graph)

    def _check_primitives_charge(self, graph: CallGraph
                                 ) -> Iterator[Violation]:
        comm = graph.classes.get("Communicator")
        if comm is None:
            return
        for name in sorted(COMM_PRIMITIVES - {"recv"}):
            method = comm.methods.get(name)
            if method is None:
                continue
            if not self._reaches_charge(graph, method):
                yield self.violation(
                    method.path, method.line,
                    f"Communicator.{name} moves payload without reaching "
                    "a CostLedger charging site (add_time/add_overlapped/"
                    "add_traffic/_charge_message)")

    def _reaches_charge(self, graph: CallGraph,
                        method: FunctionInfo) -> bool:
        queue = [method]
        seen = {method.qualname}
        for _ in range(self._CHARGE_BFS_DEPTH):
            next_queue: List[FunctionInfo] = []
            for func in queue:
                if _has_charge_call(func):
                    return True
                for node in ast.walk(func.node):
                    if isinstance(node, ast.Call) and \
                            isinstance(node.func, ast.Attribute) and \
                            isinstance(node.func.value, ast.Name) and \
                            node.func.value.id == "self":
                        for target in graph.resolve_self_call(
                                func, node.func.attr):
                            if target.qualname not in seen:
                                seen.add(target.qualname)
                                next_queue.append(target)
            queue = next_queue
        return any(_has_charge_call(func) for func in queue)

    def _check_uncharged_calls(self, graph: CallGraph
                               ) -> Iterator[Violation]:
        roots: Optional[List[FunctionInfo]] = None
        for func in sorted(graph.functions.values(),
                           key=lambda f: f.qualname):
            if _in_cluster(func.path):
                continue
            for node in ast.walk(func.node):
                if not (isinstance(node, ast.Call) and
                        isinstance(node.func, ast.Attribute) and
                        node.func.attr in COMM_PRIMITIVES - {"recv"}):
                    continue
                if not any(kw.arg == "charge" and
                           isinstance(kw.value, ast.Constant) and
                           kw.value.value is False
                           for kw in node.keywords):
                    continue
                if _has_charge_call(func):
                    continue  # the enclosing function charges explicitly
                if roots is None:
                    roots = graph.registered_entry_points()
                trace = self._entry_trace(graph, roots, func)
                suffix = f" (reached via {trace})" if trace else ""
                yield self.violation(
                    func.path, node,
                    f"Communicator.{node.func.attr}(charge=False) outside "
                    "cluster/ without a charging site in the enclosing "
                    f"function{suffix}")

    def _entry_trace(self, graph: CallGraph, roots: List[FunctionInfo],
                     func: FunctionInfo) -> Optional[str]:
        for root in roots:
            path = graph.find_call_path(
                root, lambda f: f.qualname == func.qualname,
                max_depth=self._TRACE_DEPTH)
            if path is not None:
                return " -> ".join(f"{hop.path}:{line}"
                                   for hop, line in path)
        return None


class CollectiveConsistencyRule(Rule):
    """R009: collectives span the full/alive rank set; sends match recvs.

    (a) Collective contributions (``allreduce_sum``/``gather``/
    ``allgather``) must derive from ``alive_ranks()`` or full-range
    iteration, never a literal rank subset: a hard-coded ``{0: ..., 3:
    ...}`` dict deadlocks (raises) the moment the rank layout changes and
    silently drops contributors before that.  Flagged are dict displays
    with literal integer rank keys -- inline or via a local name that is
    only ever literal-keyed (loop-built dicts are fine).  (b) Every
    ``send`` with a constant tag must have a matching constant-tag
    ``recv`` somewhere in the project (tag-matching is exact in the
    simulated communicator, so an unmatched tag is mail that can never be
    delivered); files with dynamically computed recv tags make matching
    undecidable and mute this check.
    """

    id = "R009"
    title = "collective/p2p consistency"

    #: Positional index of the ``contributions`` argument per collective.
    _COLLECTIVES: Dict[str, int] = {
        "allreduce_sum": 0, "gather": 1, "allgather": 0,
    }

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        from .rules_determinism import UnorderedIterationRule as _R005
        for scope in _R005._scopes(src.tree):
            literal_dicts = self._literal_rank_dicts(scope)
            for node in _R005._walk_scope(scope):
                if not (isinstance(node, ast.Call) and
                        isinstance(node.func, ast.Attribute) and
                        node.func.attr in self._COLLECTIVES):
                    continue
                arg = self._contributions_arg(node)
                if arg is None:
                    continue
                flagged: Optional[ast.expr] = None
                if self._is_literal_rank_dict(arg):
                    flagged = arg
                elif isinstance(arg, ast.Name) and arg.id in literal_dicts:
                    flagged = arg
                if flagged is not None:
                    yield self.violation(
                        src, flagged,
                        f"{node.func.attr} contributions built from a "
                        "literal rank subset; derive the ranks from "
                        "alive_ranks() or full-range iteration")

    def _contributions_arg(self, call: ast.Call) -> Optional[ast.expr]:
        index = self._COLLECTIVES[call.func.attr]  # type: ignore[union-attr]
        for kw in call.keywords:
            if kw.arg == "contributions":
                return kw.value
        if index < len(call.args):
            arg = call.args[index]
            if not isinstance(arg, ast.Starred):
                return arg
        return None

    @staticmethod
    def _is_literal_rank_dict(node: ast.expr) -> bool:
        if not isinstance(node, ast.Dict) or not node.keys:
            return False
        return all(isinstance(k, ast.Constant) and isinstance(k.value, int)
                   for k in node.keys)

    def _literal_rank_dicts(self, scope: ast.AST) -> Set[str]:
        """Local names only ever assigned literal-int-keyed dict displays
        and never keyed dynamically (``d[rank] = ...``)."""
        from .rules_determinism import UnorderedIterationRule as _R005
        literal: Set[str] = set()
        demoted: Set[str] = set()
        for node in _R005._walk_scope(scope):
            if isinstance(node, ast.Assign) and \
                    len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if self._is_literal_rank_dict(node.value):
                    literal.add(name)
                else:
                    demoted.add(name)
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.value, ast.Name) and \
                    not (isinstance(node.slice, ast.Constant) and
                         isinstance(node.slice.value, int)):
                demoted.add(node.value.id)
        return literal - demoted

    def check_project(self, project: Project) -> Iterator[Violation]:
        sends: List[Tuple[SourceFile, ast.Call, object]] = []
        recv_tags: Set[object] = set()
        dynamic_recv = False
        for src in project.files:
            for node in ast.walk(src.tree):
                if not (isinstance(node, ast.Call) and
                        isinstance(node.func, ast.Attribute)):
                    continue
                if node.func.attr == "send":
                    tag = self._constant_tag(node)
                    sends.append((src, node, tag))
                elif node.func.attr == "recv":
                    tag = self._constant_tag(node)
                    if tag is _DYNAMIC_TAG:
                        dynamic_recv = True
                    else:
                        recv_tags.add(tag)
        if dynamic_recv:
            return  # matching is undecidable: stay silent, not wrong
        for src, node, tag in sends:
            if tag is _DYNAMIC_TAG:
                continue
            if tag not in recv_tags:
                yield self.violation(
                    src.rel_path, node,
                    f"send with tag {tag!r} has no matching recv tag "
                    "anywhere in the project; the payload can never be "
                    "delivered")

    @staticmethod
    def _constant_tag(call: ast.Call) -> object:
        for kw in call.keywords:
            if kw.arg == "tag":
                if isinstance(kw.value, ast.Constant):
                    return kw.value.value
                return _DYNAMIC_TAG
        return None  # tag defaults to None on both sides


class _DynamicTag:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<dynamic tag>"


_DYNAMIC_TAG = _DynamicTag()


class HookContractRule(Rule):
    """R010: solver hook overrides chain to super(); recovery writes go
    through restore_block.

    The ``_on_setup``/``_after_spmv``/``_handle_failures``/
    ``_after_iteration`` protocol is cooperative: mixins stack
    (``ResilientBlockPCG(EsrResilienceMixin, BlockPCG)``), so an override
    that does not call ``super().<hook>()`` silently disconnects every
    mixin below it in the MRO.  Trivial bodies (docstring/``pass``/bare
    constant return) are the protocol declarations themselves and exempt.
    Additionally, recovery code reached from ``_handle_failures`` must
    restore lost blocks via ``NodeBlockStore.restore_block`` (which
    notifies the runtime sanitizer and clears tombstones) rather than raw
    ``set_block`` -- the message carries the self-call chain from the
    handler to the write.
    """

    id = "R010"
    title = "hook overrides call super(); recovery writes use restore_block"

    _RECOVERY_DEPTH = 6

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = get_callgraph(project)
        protocol = _protocol_classes(graph)
        for class_name in sorted(graph.classes):
            info = graph.classes[class_name]
            yield from self._check_super_chaining(info)
            handler = info.methods.get("_handle_failures")
            if handler is not None and not _is_trivial_body(handler.node):
                yield from self._check_recovery_writes(graph, handler,
                                                       protocol)

    def _check_super_chaining(self, info: ClassInfo) -> Iterator[Violation]:
        for hook in HOOK_NAMES:
            method = info.methods.get(hook)
            if method is None or _is_trivial_body(method.node):
                continue
            if not _calls_super_hook(method, hook):
                yield self.violation(
                    method.path, method.line,
                    f"{info.name}.{hook} overrides a cooperative hook "
                    f"without calling super().{hook}(); mixins later in "
                    "the MRO are silently disconnected")

    def _check_recovery_writes(self, graph: CallGraph,
                               handler: FunctionInfo,
                               protocol: Set[str]) -> Iterator[Violation]:
        seen_sites: Set[Tuple[str, int]] = set()
        stack: List[Tuple[FunctionInfo, Tuple[str, ...]]] = \
            [(handler, (handler.location(),))]
        visited = {handler.qualname}
        while stack:
            func, trace = stack.pop()
            if len(trace) > self._RECOVERY_DEPTH:
                continue
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "set_block":
                    site = (func.path, int(node.lineno))
                    if site in seen_sites:
                        continue
                    seen_sites.add(site)
                    hops = trace + (f"{func.path}:{node.lineno}",)
                    yield self.violation(
                        func.path, node,
                        "recovery-state write uses raw set_block; use "
                        "NodeBlockStore.restore_block so the sanitizer "
                        "and tombstones see the restore "
                        f"({' -> '.join(hops)})")
                elif isinstance(node.func, ast.Attribute) and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id == "self":
                    for target in graph.resolve_self_call(
                            func, node.func.attr):
                        if target.qualname in visited:
                            continue
                        if target.class_name in protocol:
                            continue  # base solver internals, not recovery
                        visited.add(target.qualname)
                        stack.append((
                            target,
                            trace + (f"{func.path}:{node.lineno}",)))
