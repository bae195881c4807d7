"""Interprocedural flow rules R007, R008 and R010.

These rules consume the :mod:`~repro.lint.callgraph` symbol table and the
:mod:`~repro.lint.dataflow` taint engine; unlike R001--R006 they reason
about call *chains*, so each violation message carries the full hop trace
(``a.py:12 -> b.py:40 -> sink``).  Violations are anchored at the most
actionable location -- the taint's origin for R007, the primitive or the
write site for R008 and R010 -- which is also where the allowlist and
``# noqa`` machinery applies.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from .callgraph import CallGraph, ClassInfo, FunctionInfo, get_callgraph
from .dataflow import COMM_PRIMITIVES, SINK_CHARGE, TaintAnalyzer
from .engine import Project, Rule, Violation

#: The solver hook protocol checked by R010 (and SimSan's ``hook_super``).
HOOK_NAMES = ("_on_setup", "_after_spmv", "_handle_failures",
              "_after_iteration")


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
    """R008: every communicator primitive reaches a CostLedger charge.

    Each ``Communicator`` method named in
    :data:`~repro.lint.dataflow.COMM_PRIMITIVES` must itself reach a
    charging call (``add_time``/``add_overlapped``/``add_traffic``) within
    a short self-call chain -- otherwise its payload moves for free.
    """

    id = "R008"
    title = "no uncharged communication paths"

    _CHARGE_BFS_DEPTH = 3

    def check_project(self, project: Project) -> Iterator[Violation]:
        graph = get_callgraph(project)
        comm = graph.classes.get("Communicator")
        if comm is None:
            return
        for name in sorted(COMM_PRIMITIVES):
            method = comm.methods.get(name)
            if method is None:
                continue
            if not self._reaches_charge(graph, method):
                yield self.violation(
                    method.path, method.line,
                    f"Communicator.{name} moves payload without reaching "
                    "a CostLedger charging site (add_time/add_overlapped/"
                    "add_traffic)")

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
