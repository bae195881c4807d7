"""Host-time spans recorded from outside the library.

A :class:`Tracer` wraps public entry points of the library -- class methods
or module functions -- by patching the attribute on its owner.  Each call
becomes a span ``{name, layer, start, end, parent, sample_id}``; the span
open on the same thread when the call starts is its parent.  Self time is a
span's duration minus the durations of its children (children run nested on
the parent's thread, so they never overlap).  Self time, inclusive time and
call counts are aggregated per span name as spans close; every span is also
kept, as a tuple in :data:`SPAN_FIELDS` order, for :meth:`Tracer.write_jsonl`.

Nothing in ``src/`` is edited: :meth:`Tracer.install` patches the targets and
:meth:`Tracer.uninstall` puts the original attributes back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

_MISSING = object()
#: The fields of a kept span, in the order of its tuple.
SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "sample_id")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` belongs to *layer*."""

    owner: Any
    attr: str
    layer: str

    @property
    def name(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


@dataclass
class SpanTotals:
    """Aggregate of every closed span with one name."""

    layer: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Records spans around wrapped calls (thread-safe under the GIL)."""

    def __init__(self, *,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Sample id stamped on every span opened while it is set.
        self.sample_id = -1
        self.totals: Dict[str, SpanTotals] = {}
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ----------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, fn: Callable, *args: Any,
             **kwargs: Any) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span."""
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        # frame: [span id, start, time covered by children]
        frame = [next(self._ids), self.clock(), 0.0]
        sample_id = self.sample_id
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self._close(name, layer, frame, end, parent, sample_id)
            if stack:
                stack[-1][2] += end - frame[1]

    def _close(self, name: str, layer: str, frame: list, end: float,
               parent: int, sample_id: int) -> None:
        duration = end - frame[1]
        with self._lock:
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = SpanTotals(layer)
            totals.calls += 1
            totals.self_s += duration - frame[2]
            totals.total_s += duration
            self.spans.append((frame[0], name, layer, frame[1], end, parent,
                               sample_id))

    # -- patching ------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.span(name, layer, fn, *args, **kwargs)

        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Patch every target; a target already patched is skipped."""
        patched = {(id(owner), attr) for owner, attr, _ in self._patches}
        for target in targets:
            key = (id(target.owner), target.attr)
            if key in patched:
                continue
            patched.add(key)
            original = vars(target.owner).get(target.attr, _MISSING)
            fn = getattr(target.owner, target.attr)
            self._patches.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr,
                    self._wrap(fn, target.name, target.layer))

    def uninstall(self) -> None:
        """Restore every patched attribute (inherited ones are deleted)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def layer(self, layer: str, *attrs: str) -> SpanTotals:
        """Totals of *layer*'s spans, or of those among them whose name
        ends in one of *attrs* (``total_s`` double-counts nested spans of
        one layer; use ``self_s`` for shares)."""
        agg = SpanTotals(layer)
        for name, totals in self.totals.items():
            if totals.layer == layer and (
                    not attrs or name.rsplit(".", 1)[1] in attrs):
                agg.calls += totals.calls
                agg.self_s += totals.self_s
                agg.total_s += totals.total_s
        return agg

    def write_jsonl(self, path: Path) -> int:
        """Write the kept spans, ordered by id, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
        return len(self.spans)

