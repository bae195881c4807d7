"""``repro.lint`` -- project-specific static-invariant linter.

The exact-state-reconstruction claims of this code base only hold if the
simulator obeys strict invariants: charges booked for every simulated
operation, no reads from memory on failed nodes, deterministic seeded
replay.  Bit-identity tests enforce those invariants implicitly -- and can
silently stop covering new code paths.  This package enforces them
*statically*, as an AST-based rule engine with project-specific rules, each
carrying an ID, a docstring and a pinned allowlist:

============ ==============================================================
``R001``     no unseeded RNG (``np.random.*`` legacy API, stdlib ``random``)
``R002``     no wallclock reads outside the pinned timing allowlist
``R003``     every registered solver/preconditioner name is test-covered
``R004``     no direct node-memory access outside the storage layer
``R005``     no iteration over unordered sets feeding reductions/schedules
``R006``     no mutable default arguments; no ``object.__setattr__`` on
             frozen specs outside the spec module
``R007``     no nondeterminism (wallclock, unseeded RNG, ``id()``,
             ``os.environ``, set-order) flowing -- through any call chain
             -- into ledger charges, communicator payloads, failure
             schedules, or solver results
``R008``     every communicator primitive reaches a CostLedger charging
             site
``R010``     solver hook overrides call ``super()``; recovery-state writes
             go through ``NodeBlockStore.restore_block``
============ ==============================================================

R001--R006 are per-file AST checks; R007, R008 and R010 are
interprocedural, built on a project-wide call graph (:mod:`repro.lint.callgraph`) and a
taint engine (:mod:`repro.lint.dataflow`), and their messages carry the
full call/taint trace (``a.py:12 -> b.py:40 -> sink``).

Run it as ``python -m repro.lint [paths...]`` (defaults to ``src/repro``);
see :mod:`repro.lint.cli` for options and :data:`repro.lint.allowlists`
for the pinned allowlists.  Suppress a single finding with a trailing
``# noqa: R00X`` comment -- and a justification next to it.
"""

from .engine import LintError, Project, Rule, SourceFile, Violation, run_lint
from .registry import ALL_RULES, get_rule, rule_ids

__all__ = [
    "ALL_RULES",
    "LintError",
    "Project",
    "Rule",
    "SourceFile",
    "Violation",
    "get_rule",
    "rule_ids",
    "run_lint",
]
