"""SimSan -- a runtime sanitizer for the simulated cluster.

ASan for the virtual machine: where :mod:`repro.lint` enforces the
simulator's invariants statically, SimSan checks them *while the
simulation runs*.  The cluster substrate (:class:`~repro.cluster.node.
NodeMemory`, :class:`~repro.cluster.communicator.Communicator`,
:class:`~repro.cluster.cost_model.CostLedger`, the block stores) carries
cheap hook points that are inert until a sanitizer is activated; with one
active, two detectors watch every simulated operation:

``use_after_failure``
    Any *silent* read (``get``/``pop`` with a default) of a node-memory key
    that was lost in that node's failure and has not been freshly written
    since (i.e. the replacement rejoined but reconstruction never restored
    the block).  Without the sanitizer such a read returns the default as
    if the data had never existed.  Plain ``memory[key]`` reads are not
    hooked: a lost key raises a loud ``KeyError`` there, which callers
    handle deliberately (the storage liveness check of the distributed
    containers).
``uncharged_op``
    Simulated operations that must book simulated cost open an *op window*
    (:func:`op_window`); a window that closes with zero ledger delta means
    an operation executed for free -- the exact bug class that invalidates
    every overhead number the harness reports.

One additional detector is opt-in (not armed by a plain
``REPRO_SANITIZE=1``, select it explicitly):

``hook_super``
    The dynamic cross-check of lint rule R010: a resilient solver
    iteration completing without the ESR mixin's ``_after_spmv`` hook
    having fired means an override somewhere in the MRO dropped the
    cooperative ``super()`` chain -- redundant copies silently stop being
    kept and the next failure is unrecoverable.

Violations raise :class:`SanitizerError` with structured rank / key /
iteration / phase context.

Activation is opt-in and cheap to leave off (one ``is None`` check per
hook):

* environment: ``REPRO_SANITIZE=1 pytest`` (honoured on ``import repro``;
  a comma-separated detector list such as
  ``REPRO_SANITIZE=use_after_failure,uncharged_op`` selects a subset);
* context manager: ``with repro.sanitizer.sanitized(): ...``;
* explicit: :func:`enable` / :func:`disable`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple
from weakref import WeakKeyDictionary

#: Every default detector, all enabled by a plain ``REPRO_SANITIZE=1``.
DETECTORS: Tuple[str, ...] = (
    "use_after_failure",
    "uncharged_op",
)

#: Opt-in detectors: valid in explicit selections
#: (``REPRO_SANITIZE=hook_super`` or ``enable(DETECTORS + ("hook_super",))``)
#: but never armed by default -- ``hook_super`` intentionally trips on
#: solvers that are *built* to skip the resilience hooks (the baselines),
#: so it only makes sense on runs known to use the ESR solvers.
OPT_IN_DETECTORS: Tuple[str, ...] = (
    "hook_super",
)

#: The active sanitizer (``None`` = instrumentation inert).  Hook sites read
#: this attribute directly; everything else should go through the public
#: :func:`enable` / :func:`disable` / :func:`sanitized` API.
_ACTIVE: Optional["SimSan"] = None


class SanitizerError(RuntimeError):
    """A simulator invariant violated at runtime, with structured context.

    Parameters
    ----------
    detector:
        The detector that fired (one of :data:`DETECTORS`).
    message:
        Human-readable description of the violation.
    rank, key, op, phase, iteration:
        Structured context: the affected rank, the node-memory key, the
        simulated operation, the last charged ledger phase and the solver
        iteration (where known).
    """

    def __init__(self, detector: str, message: str, *,
                 rank: Optional[int] = None, key: Any = None,
                 op: Optional[str] = None, phase: Optional[str] = None,
                 iteration: Optional[int] = None):
        self.detector = detector
        self.rank = rank
        self.key = key
        self.op = op
        self.phase = phase
        self.iteration = iteration
        context = [f"{name}={value!r}" for name, value in (
            ("rank", rank), ("key", key), ("op", op),
            ("phase", phase), ("iteration", iteration),
        ) if value is not None]
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(f"SimSan:{detector}: {message}{suffix}")


class SimSan:
    """The sanitizer state machine behind the module-level hooks.

    One instance tracks tombstones of failed-and-wiped node-memory keys
    (weakly, so instrumentation never keeps a cluster alive), per-detector
    enablement, event counters in :attr:`stats`, and the
    rank/iteration/phase context attached to every :class:`SanitizerError`.
    """

    def __init__(self, detectors: Optional[Iterable[str]] = None):
        chosen = tuple(detectors) if detectors is not None else DETECTORS
        unknown = sorted(set(chosen) - set(DETECTORS) - set(OPT_IN_DETECTORS))
        if unknown:
            raise ValueError(
                f"unknown sanitizer detector(s) {unknown}; "
                f"available: {DETECTORS + OPT_IN_DETECTORS}")
        self.detectors: FrozenSet[str] = frozenset(chosen)
        #: ``NodeMemory -> {key, ...}`` of data lost in that node's failure
        #: and not rewritten since.
        self._tombstones: "WeakKeyDictionary[Any, set]" = WeakKeyDictionary()
        self.stats: Dict[str, int] = {
            "memory_reads": 0,
            "memory_writes": 0,
            "node_failures": 0,
            "collectives": 0,
            "op_windows": 0,
            "blocks_restored": 0,
            "resilience_hooks": 0,
        }
        self.context: Dict[str, Any] = {"iteration": None, "phase": None}
        #: ``solver -> {hook name, ...}`` fired since that solver's last
        #: ``note_iteration`` (weak: watching never keeps a solver alive).
        self._hook_watch: "WeakKeyDictionary[Any, set]" = WeakKeyDictionary()

    def enabled(self, detector: str) -> bool:
        return detector in self.detectors

    def _error(self, detector: str, message: str, **kwargs: Any
               ) -> SanitizerError:
        kwargs.setdefault("iteration", self.context.get("iteration"))
        kwargs.setdefault("phase", self.context.get("phase"))
        return SanitizerError(detector, message, **kwargs)

    # -- node-memory hooks (called from repro.cluster.node) ----------------
    def on_node_fail(self, node: Any) -> None:
        """Record which keys are about to be wiped by *node*'s failure."""
        self.stats["node_failures"] += 1
        memory = node.memory
        lost = self._tombstones.setdefault(memory, set())
        lost.update(memory.raw_keys())

    def on_memory_read(self, node: Any, key: Any) -> None:
        self.stats["memory_reads"] += 1
        if not self.enabled("use_after_failure"):
            return
        lost = self._tombstones.get(node.memory)
        if lost is not None and key in lost:
            raise self._error(
                "use_after_failure",
                f"silent read of key {key!r} on rank {node.rank}: the value "
                "was lost in that rank's failure and has not been "
                "reconstructed, yet the read would return a default as if "
                "it had never existed",
                rank=node.rank, key=key)

    def on_memory_write(self, node: Any, key: Any) -> None:
        """A fresh write resurrects *key*: clear its tombstone."""
        self.stats["memory_writes"] += 1
        lost = self._tombstones.get(node.memory)
        if lost is not None:
            lost.discard(key)

    # -- communicator hook (called from repro.cluster.communicator) --------
    def on_collective(self) -> None:
        """Count one allreduce."""
        self.stats["collectives"] += 1

    # -- block-store hooks (called from repro.distributed.blockstore) ------
    def on_block_restored(self, rank: int, key: Any) -> None:
        self.stats["blocks_restored"] += 1

    # -- ledger hooks (called from repro.cluster.cost_model) ---------------
    def on_charge(self, phase: str) -> None:
        self.context["phase"] = phase

    # -- solver hooks (called from the PCG drivers) ------------------------
    def note_iteration(self, iteration: int, solver: Any = None) -> None:
        """Record the solver iteration; with ``hook_super`` armed and a
        *solver* passed, also verify the previous iteration ran the ESR
        resilience hooks (only solvers carrying ESR state -- an ``esr``
        attribute -- are subject)."""
        self.context["iteration"] = iteration
        if solver is None or not self.enabled("hook_super"):
            return
        fired = self._hook_watch.get(solver)
        if fired is not None and hasattr(solver, "esr") and \
                "after_spmv" not in fired:
            raise self._error(
                "hook_super",
                f"{type(solver).__name__} completed an iteration without "
                "the ESR after_spmv hook firing; an override in the MRO "
                "dropped the cooperative super() chain (lint rule R010), "
                "so redundant copies are no longer being kept",
                iteration=iteration)
        self._hook_watch[solver] = set()

    def on_resilience_hook(self, solver: Any, name: str) -> None:
        """A resilience-mixin hook ran for *solver* (records protocol
        liveness for the ``hook_super`` detector)."""
        self.stats["resilience_hooks"] += 1
        fired = self._hook_watch.get(solver)
        if fired is not None:
            fired.add(name)


# ---------------------------------------------------------------------------
# activation API
# ---------------------------------------------------------------------------

def active() -> Optional[SimSan]:
    """The currently active sanitizer, or ``None``."""
    return _ACTIVE


def enable(detectors: Optional[Iterable[str]] = None) -> SimSan:
    """Activate SimSan process-wide (idempotent while already active)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = SimSan(detectors)
    return _ACTIVE


def disable() -> None:
    """Deactivate SimSan."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def sanitized(detectors: Optional[Iterable[str]] = None
              ) -> Iterator[SimSan]:
    """Run a block under SimSan; restores the previous state on exit."""
    global _ACTIVE
    previous = _ACTIVE
    san = SimSan(detectors) if previous is None else previous
    _ACTIVE = san
    try:
        yield san
    finally:
        _ACTIVE = previous


@contextmanager
def op_window(op: str, ledger: Any, *, required: bool = True,
              **context: Any) -> Iterator[None]:
    """Declare one simulated operation that must charge the ledger.

    Wrap the code that simulates *op* against *ledger*; when the
    ``uncharged_op`` detector is active and *required* is true, the window
    closing with neither simulated time nor message traffic booked raises
    :class:`SanitizerError`.  Inert (zero snapshot cost) when no sanitizer
    is active.
    """
    san = _ACTIVE
    if san is None or not required or not san.enabled("uncharged_op"):
        yield
        return
    san.stats["op_windows"] += 1
    time_before = ledger.total_time()
    messages_before = ledger.total_messages()
    yield
    if ledger.total_time() == time_before and \
            ledger.total_messages() == messages_before:
        raise san._error(
            "uncharged_op",
            f"op window {op!r} closed with zero ledger delta; every "
            "simulated operation must book simulated cost",
            op=op, **context)


def _env_detectors(value: str) -> Optional[Tuple[str, ...]]:
    """Parse ``REPRO_SANITIZE`` into a detector selection (``None`` = all)."""
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on", "all", ""):
        return None
    return tuple(part.strip() for part in lowered.split(",") if part.strip())


def enable_from_env(environ: Optional[Dict[str, str]] = None
                    ) -> Optional[SimSan]:
    """Honour ``REPRO_SANITIZE`` (called from ``import repro``)."""
    env = os.environ if environ is None else environ
    value = env.get("REPRO_SANITIZE")
    if value is None or value.strip().lower() in ("0", "false", "no", "off"):
        return None
    return enable(_env_detectors(value))
