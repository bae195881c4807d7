"""Taint dataflow of :mod:`repro.lint`: sources, sinks, sanitizers.

R001/R002/R005 flag nondeterminism at the point it is *produced*; this
module tracks where it *goes*.  A per-function, context-insensitive
analysis propagates taint through local def-use chains and -- via cached
:class:`Summary` objects over the :mod:`~repro.lint.callgraph` -- through
call chains, so a helper that reads ``time.time()`` three files away from
the ledger charge it feeds is still caught.

Model
-----
* **Sources** -- wallclock reads (R002's list), unseeded RNG (R001's
  list plus the stdlib ``random`` module), ``id()``, ``os.environ`` /
  ``os.getenv``, and iteration over a literal set / ``set()`` call
  (hash-order nondeterminism).
* **Sinks** -- ``CostLedger`` charging calls, ``Communicator``
  primitive payloads, failure-schedule constructors, and solver-result
  constructors (:data:`SINK_CHARGE` / :data:`COMM_PRIMITIVES` /
  :data:`SINK_CONSTRUCTORS`).
* **Sanitizers** -- ``sorted(...)`` / ``len(...)`` kill set-order taint
  (a sorted set is deterministic); no sanitizer launders wallclock or RNG.

Summaries record which *parameters* reach sinks and which reach the
return value, so taint crosses function boundaries in both directions;
each flow keeps its full hop trace (``a.py:12 -> b.py:40``) and is
anchored at the taint's **origin**, which makes the engine's per-file
allowlist/``# noqa`` machinery mean "this source is sanctioned here".
Recursion is cut by an in-progress guard and call depth is bounded by
:data:`MAX_DEPTH`; everything is cached per function, so the whole tree
analyzes in well under the ten-second budget.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, FunctionInfo
from .engine import dotted_name
from .rules_determinism import UnseededRngRule, WallclockRule

#: Maximum interprocedural call depth followed from any one function.
MAX_DEPTH = 8

#: ``CostLedger`` charging methods: their arguments become simulated cost.
SINK_CHARGE = frozenset({"add_time", "add_overlapped", "add_traffic"})

#: ``Communicator`` primitives: their arguments travel between ranks (the
#: payload sinks), and each must reach a charge (R008).
COMM_PRIMITIVES = frozenset({"allreduce_sum"})

#: Constructors whose fields are replayed results / failure schedules.
SINK_CONSTRUCTORS: Dict[str, str] = {
    "FailureEvent": "failure-schedule construction",
    "TraceEvent": "failure-schedule construction",
    "FailureTrace": "failure-schedule construction",
    "SolveResult": "solver-result construction",
    "DistributedSolveResult": "solver-result construction",
    "BlockSolveResult": "solver-result construction",
    "RecoveryReport": "solver-result construction",
}

#: Builtin calls that neutralise set-order taint (and only that kind).
SANITIZERS = frozenset({"sorted", "len"})

_WALLCLOCK_DOTTED = WallclockRule._DOTTED
_RNG_RULE = UnseededRngRule()


@dataclass(frozen=True)
class Taint:
    """One tainted value: what kind of nondeterminism, and its hop trace.

    ``param`` is set for the synthetic taint seeded on function
    parameters; such taints never surface directly -- they turn into
    :class:`ParamSink`/``param_returns`` summary entries instead.
    """

    kind: str
    detail: str
    #: ``path:line`` hops from the source towards the current value.
    trace: Tuple[str, ...]
    param: Optional[int] = None


@dataclass(frozen=True)
class ParamSink:
    """Summary fact: parameter *param* reaches *sink_label* inside the
    function, via the recorded intra/inter-procedural hops."""

    param: int
    sink_label: str
    trace: Tuple[str, ...]


@dataclass(frozen=True)
class TaintFlow:
    """One complete source-to-sink flow, anchored at the source origin."""

    kind: str
    detail: str
    sink_label: str
    origin_path: str
    origin_line: int
    trace: Tuple[str, ...]

    def render_trace(self) -> str:
        return " -> ".join(self.trace)


@dataclass(frozen=True)
class Summary:
    """Cached per-function facts the callers of a function need."""

    returns: Tuple[Taint, ...]
    param_returns: Tuple[int, ...]
    param_sinks: Tuple[ParamSink, ...]
    flows: Tuple[TaintFlow, ...]


_EMPTY_SUMMARY = Summary(returns=(), param_returns=(), param_sinks=(),
                         flows=())


class _State:
    """Mutable per-function analysis state (environment + found facts)."""

    def __init__(self) -> None:
        self.env: Dict[str, Tuple[Taint, ...]] = {}
        self.returns: Set[Taint] = set()
        self.param_returns: Set[int] = set()
        self.param_sinks: Set[ParamSink] = set()
        self.flows: Set[TaintFlow] = set()


class TaintAnalyzer:
    """Interprocedural taint propagation over one call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._summaries: Dict[str, Summary] = {}
        self._in_progress: Set[str] = set()

    # -- public API --------------------------------------------------------
    def flows(self) -> List[TaintFlow]:
        """Every source-to-sink flow in the project, origin-sorted.

        Each flow is reported by the summary of the function whose body
        contains the *source*, so the list is duplicate-free even when
        several callers share a tainted helper.
        """
        out: Set[TaintFlow] = set()
        for func in sorted(self.graph.functions.values(),
                           key=lambda f: f.qualname):
            out.update(self.summary(func).flows)
        return sorted(out, key=lambda f: (f.origin_path, f.origin_line,
                                          f.sink_label, f.trace))

    def summary(self, func: FunctionInfo, depth: int = 0) -> Summary:
        cached = self._summaries.get(func.qualname)
        if cached is not None:
            return cached
        if func.qualname in self._in_progress or depth > MAX_DEPTH:
            return _EMPTY_SUMMARY
        self._in_progress.add(func.qualname)
        try:
            result = self._analyze(func, depth)
        finally:
            self._in_progress.discard(func.qualname)
        self._summaries[func.qualname] = result
        return result

    # -- per-function analysis ---------------------------------------------
    @staticmethod
    def _param_names(func: FunctionInfo) -> List[str]:
        args = getattr(func.node, "args", None)
        if args is None:
            return []
        names = [a.arg for a in [*args.posonlyargs, *args.args]]
        if func.class_name is not None and names and \
                names[0] in ("self", "cls"):
            names = names[1:]
        names.extend(a.arg for a in args.kwonlyargs)
        return names

    def _analyze(self, func: FunctionInfo, depth: int) -> Summary:
        state = _State()
        for index, name in enumerate(self._param_names(func)):
            state.env[name] = (Taint(kind="param", detail=name, trace=(),
                                     param=index),)
        self._exec_block(getattr(func.node, "body", []), state, func, depth)
        return Summary(
            returns=tuple(sorted((t for t in state.returns
                                  if t.param is None),
                                 key=lambda t: (t.kind, t.detail, t.trace))),
            param_returns=tuple(sorted(state.param_returns)),
            param_sinks=tuple(sorted(state.param_sinks,
                                     key=lambda s: (s.param, s.sink_label,
                                                    s.trace))),
            flows=tuple(sorted(state.flows,
                               key=lambda f: (f.origin_path, f.origin_line,
                                              f.sink_label, f.trace))),
        )

    def _exec_block(self, stmts: Sequence[ast.stmt], state: _State,
                    func: FunctionInfo, depth: int) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, state, func, depth)

    def _exec_stmt(self, stmt: ast.stmt, state: _State,
                   func: FunctionInfo, depth: int) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value, state, func, depth)
            for target in stmt.targets:
                self._bind(target, taints, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target,
                           self._eval(stmt.value, state, func, depth), state)
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value, state, func, depth)
            if isinstance(stmt.target, ast.Name):
                existing = state.env.get(stmt.target.id, ())
                state.env[stmt.target.id] = self._merge(existing, taints)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for taint in self._eval(stmt.value, state, func, depth):
                    if taint.param is not None:
                        state.param_returns.add(taint.param)
                    else:
                        state.returns.add(taint)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taints = self._eval(stmt.iter, state, func, depth)
            if _is_set_display(stmt.iter):
                taints = self._merge(taints, (Taint(
                    kind="set-order", detail="unordered set iteration",
                    trace=(self._loc(func, stmt.iter),)),))
            self._bind(stmt.target, taints, state)
            # Loop bodies run twice so taint assigned late in the body
            # reaches uses earlier in it (one round of loop-carried
            # propagation -- enough for the accumulate-then-use shapes).
            self._exec_block(stmt.body, state, func, depth)
            self._exec_block(stmt.body, state, func, depth)
            self._exec_block(stmt.orelse, state, func, depth)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, state, func, depth)
            self._exec_block(stmt.body, state, func, depth)
            self._exec_block(stmt.body, state, func, depth)
            self._exec_block(stmt.orelse, state, func, depth)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, state, func, depth)
            self._exec_block(stmt.body, state, func, depth)
            self._exec_block(stmt.orelse, state, func, depth)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr, state, func, depth)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taints, state)
            self._exec_block(stmt.body, state, func, depth)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, state, func, depth)
            for handler in stmt.handlers:
                self._exec_block(handler.body, state, func, depth)
            self._exec_block(stmt.orelse, state, func, depth)
            self._exec_block(stmt.finalbody, state, func, depth)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state, func, depth)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested scopes are analyzed as their own functions
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, state, func, depth)

    def _bind(self, target: ast.expr, taints: Sequence[Taint],
              state: _State) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = tuple(taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taints, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taints, state)
        # attribute/subscript stores are not tracked (no object fields)

    @staticmethod
    def _merge(*groups: Sequence[Taint]) -> Tuple[Taint, ...]:
        out: List[Taint] = []
        seen: Set[Taint] = set()
        for group in groups:
            for taint in group:
                if taint not in seen:
                    seen.add(taint)
                    out.append(taint)
        return tuple(out)

    @staticmethod
    def _loc(func: FunctionInfo, node: ast.AST) -> str:
        return f"{func.path}:{getattr(node, 'lineno', func.line)}"

    # -- expression evaluation ---------------------------------------------
    def _eval(self, node: ast.expr, state: _State, func: FunctionInfo,
              depth: int) -> Tuple[Taint, ...]:
        if isinstance(node, ast.Name):
            return state.env.get(node.id, ())
        if isinstance(node, ast.Constant):
            return ()
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name in _WALLCLOCK_DOTTED:
                return (self._source("wallclock", name, func, node),)
            if name == "os.environ":
                return (self._source("os.environ", name, func, node),)
            return self._eval(node.value, state, func, depth)
        if isinstance(node, ast.Call):
            return self._eval_call(node, state, func, depth)
        if isinstance(node, ast.BinOp):
            return self._merge(self._eval(node.left, state, func, depth),
                               self._eval(node.right, state, func, depth))
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, state, func, depth)
        if isinstance(node, ast.BoolOp):
            return self._merge(*[self._eval(v, state, func, depth)
                                 for v in node.values])
        if isinstance(node, ast.Compare):
            return self._merge(self._eval(node.left, state, func, depth),
                               *[self._eval(c, state, func, depth)
                                 for c in node.comparators])
        if isinstance(node, ast.Subscript):
            return self._merge(self._eval(node.value, state, func, depth),
                               self._eval(node.slice, state, func, depth))
        if isinstance(node, ast.IfExp):
            self._eval(node.test, state, func, depth)
            return self._merge(self._eval(node.body, state, func, depth),
                               self._eval(node.orelse, state, func, depth))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._merge(*[self._eval(e, state, func, depth)
                                 for e in node.elts])
        if isinstance(node, ast.Dict):
            groups = [self._eval(k, state, func, depth)
                      for k in node.keys if k is not None]
            groups += [self._eval(v, state, func, depth) for v in node.values]
            return self._merge(*groups)
        if isinstance(node, ast.JoinedStr):
            return self._merge(*[self._eval(v, state, func, depth)
                                 for v in node.values])
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, state, func, depth)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._eval_comprehension(node, state, func, depth)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, state, func, depth)
        if isinstance(node, ast.NamedExpr):
            taints = self._eval(node.value, state, func, depth)
            self._bind(node.target, taints, state)
            return taints
        if isinstance(node, ast.Await):
            return self._eval(node.value, state, func, depth)
        if isinstance(node, ast.Lambda):
            return ()
        return ()

    def _eval_comprehension(self, node: ast.expr, state: _State,
                            func: FunctionInfo, depth: int
                            ) -> Tuple[Taint, ...]:
        # Comprehension variables are bound in the enclosing environment;
        # the tiny over-approximation (the name staying bound afterwards)
        # is harmless for lint purposes.
        for gen in getattr(node, "generators", []):
            taints = self._eval(gen.iter, state, func, depth)
            if _is_set_display(gen.iter):
                taints = self._merge(taints, (Taint(
                    kind="set-order", detail="unordered set iteration",
                    trace=(self._loc(func, gen.iter),)),))
            self._bind(gen.target, taints, state)
            for cond in gen.ifs:
                self._eval(cond, state, func, depth)
        parts: List[Tuple[Taint, ...]] = []
        for attr in ("elt", "key", "value"):
            sub = getattr(node, attr, None)
            if isinstance(sub, ast.expr):
                parts.append(self._eval(sub, state, func, depth))
        result = self._merge(*parts)
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            # Building a set/dict from a set is order-insensitive.
            result = tuple(t for t in result if t.kind != "set-order")
        return result

    # -- call handling -----------------------------------------------------
    def _eval_call(self, call: ast.Call, state: _State, func: FunctionInfo,
                   depth: int) -> Tuple[Taint, ...]:
        pos_taints: List[Tuple[Taint, ...]] = []
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                pos_taints.append(self._eval(arg.value, state, func, depth))
            else:
                pos_taints.append(self._eval(arg, state, func, depth))
        kw_taints: Dict[str, Tuple[Taint, ...]] = {}
        star_kw: List[Tuple[Taint, ...]] = []
        for kw in call.keywords:
            evaluated = self._eval(kw.value, state, func, depth)
            if kw.arg is None:
                star_kw.append(evaluated)
            else:
                kw_taints[kw.arg] = evaluated
        all_args = self._merge(*pos_taints, *kw_taints.values(), *star_kw)

        # Sinks: record every tainted argument reaching one.
        sink_label = self._sink_label(call)
        if sink_label is not None:
            for taint in all_args:
                self._record_sink(taint, sink_label, call, state, func)

        fname = dotted_name(call.func)

        # Sanitizers neutralise set-order taint only.
        if fname in SANITIZERS:
            return tuple(t for t in all_args if t.kind != "set-order")

        # Sources.
        source = self._call_source(call, fname, func)
        if source is not None:
            return (source,)

        # Resolved project calls: consult callee summaries.
        targets = self.graph.resolve_call(func, call) \
            if depth < MAX_DEPTH else []
        if targets:
            return self._apply_summaries(call, targets, pos_taints,
                                         kw_taints, state, func, depth)

        # Unresolved: conservative passthrough of arguments + receiver
        # (so ``rng.normal()`` stays tainted when ``rng`` is).
        receiver: Tuple[Taint, ...] = ()
        if isinstance(call.func, ast.Attribute):
            receiver = self._eval(call.func.value, state, func, depth)
        return self._merge(all_args, receiver)

    @staticmethod
    def _sink_label(call: ast.Call) -> Optional[str]:
        if isinstance(call.func, ast.Attribute):
            if call.func.attr in SINK_CHARGE:
                return "CostLedger charge"
            if call.func.attr in COMM_PRIMITIVES:
                return "Communicator payload"
        fname = dotted_name(call.func)
        if fname is not None:
            return SINK_CONSTRUCTORS.get(fname.split(".")[-1])
        return None

    def _record_sink(self, taint: Taint, sink_label: str, call: ast.Call,
                     state: _State, func: FunctionInfo) -> None:
        sink_loc = self._loc(func, call)
        if taint.param is not None:
            state.param_sinks.add(ParamSink(
                param=taint.param, sink_label=sink_label,
                trace=taint.trace + (sink_loc,)))
        else:
            state.flows.add(self._flow(taint, sink_label,
                                       taint.trace + (sink_loc,)))

    @staticmethod
    def _flow(taint: Taint, sink_label: str,
              trace: Tuple[str, ...]) -> TaintFlow:
        origin_path, _, origin_line = trace[0].rpartition(":")
        return TaintFlow(kind=taint.kind, detail=taint.detail,
                         sink_label=sink_label, origin_path=origin_path,
                         origin_line=int(origin_line), trace=trace)

    def _source(self, kind: str, detail: str, func: FunctionInfo,
                node: ast.AST) -> Taint:
        return Taint(kind=kind, detail=detail,
                     trace=(self._loc(func, node),))

    def _call_source(self, call: ast.Call, fname: Optional[str],
                     func: FunctionInfo) -> Optional[Taint]:
        if fname is None:
            return None
        if fname == "id":
            return self._source("id()", "id()", func, call)
        if fname in ("os.getenv", "os.environ.get"):
            return self._source("os.environ", fname, func, call)
        if fname in _WALLCLOCK_DOTTED:
            return self._source("wallclock", f"{fname}()", func, call)
        if fname.startswith("random.") and "." not in fname[len("random."):]:
            return self._source("unseeded RNG", fname, func, call)
        tail = _RNG_RULE._numpy_random_attr(fname)
        if tail is not None:
            if tail == "default_rng":
                if UnseededRngRule._is_unseeded_default_rng(call):
                    return self._source(
                        "unseeded RNG", "np.random.default_rng()",
                        func, call)
            elif tail not in UnseededRngRule._SAFE_TYPES:
                return self._source("unseeded RNG", f"np.random.{tail}",
                                    func, call)
        return None

    def _apply_summaries(self, call: ast.Call,
                         targets: Sequence[FunctionInfo],
                         pos_taints: Sequence[Tuple[Taint, ...]],
                         kw_taints: Dict[str, Tuple[Taint, ...]],
                         state: _State, func: FunctionInfo,
                         depth: int) -> Tuple[Taint, ...]:
        call_loc = self._loc(func, call)
        result: List[Tuple[Taint, ...]] = []
        for target in targets:
            summ = self.summary(target, depth + 1)
            names = self._param_names(target)
            by_param: Dict[int, Tuple[Taint, ...]] = {}
            for j, taints in enumerate(pos_taints):
                if j < len(names) and taints:
                    by_param[j] = taints
            for kw_name, taints in kw_taints.items():
                if kw_name in names and taints:
                    by_param[names.index(kw_name)] = self._merge(
                        by_param.get(names.index(kw_name), ()), taints)
            # Taint returned out of the callee (extended by this hop).
            result.append(tuple(
                Taint(kind=t.kind, detail=t.detail,
                      trace=t.trace + (call_loc,))
                for t in summ.returns))
            # Arguments whose taint the callee returns.
            for index in summ.param_returns:
                for taint in by_param.get(index, ()):
                    result.append((Taint(kind=taint.kind, detail=taint.detail,
                                         trace=taint.trace + (call_loc,),
                                         param=taint.param),))
            # Arguments the callee forwards into a sink.
            for sink in summ.param_sinks:
                for taint in by_param.get(sink.param, ()):
                    trace = taint.trace + (call_loc,) + sink.trace
                    if taint.param is not None:
                        state.param_sinks.add(ParamSink(
                            param=taint.param, sink_label=sink.sink_label,
                            trace=trace))
                    else:
                        state.flows.add(self._flow(taint, sink.sink_label,
                                                   trace))
        return self._merge(*result)


def _is_set_display(node: ast.expr) -> bool:
    """A literal set, set comprehension, or bare ``set()``/``frozenset()``
    call -- iterating one is hash-order nondeterministic."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


def analyze(graph: CallGraph) -> List[TaintFlow]:
    """Convenience wrapper: all taint flows of *graph*'s project."""
    return TaintAnalyzer(graph).flows()
