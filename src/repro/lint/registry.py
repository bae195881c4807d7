"""The project rule set of :mod:`repro.lint`.

One place lists every enforced rule; the CLI, the tests and the docs all
read from here.  Adding a rule means adding the class to
:data:`ALL_RULES` (and, if it needs exemptions, a pinned entry in
:mod:`repro.lint.allowlists`).
"""

from __future__ import annotations

from typing import Tuple

from .engine import Rule
from .rules_determinism import (
    UnorderedIterationRule,
    UnseededRngRule,
    WallclockRule,
)
from .rules_flow import (
    ChargeCoverageRule,
    HookContractRule,
    NondeterminismFlowRule,
)
from .rules_structure import (
    FrozenSpecRule,
    NodeMemoryAccessRule,
    RegisteredNameCoverageRule,
)

#: Every enforced rule, in ID order.
ALL_RULES: Tuple[Rule, ...] = (
    UnseededRngRule(),
    WallclockRule(),
    RegisteredNameCoverageRule(),
    NodeMemoryAccessRule(),
    UnorderedIterationRule(),
    FrozenSpecRule(),
    NondeterminismFlowRule(),
    ChargeCoverageRule(),
    HookContractRule(),
)


def rule_ids() -> Tuple[str, ...]:
    """The enforced rule IDs, in order."""
    return tuple(rule.id for rule in ALL_RULES)


def get_rule(rule_id: str) -> Rule:
    """The rule instance registered under *rule_id* (case-insensitive)."""
    for rule in ALL_RULES:
        if rule.id.upper() == rule_id.upper():
            return rule
    raise KeyError(
        f"unknown rule {rule_id!r}; enforced rules: {', '.join(rule_ids())}")
