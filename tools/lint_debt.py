"""Suppression-debt ratchet: lint exemptions may only go down.

Every ``# noqa: R00X`` comment and every allowlist entry in
``repro.lint.allowlists`` is *debt* -- a place where a pinned invariant is
deliberately not enforced.  CI runs::

    python tools/lint_debt.py check

which counts the current debt per rule and fails the job when any count
exceeds the committed baseline in ``.lint-debt.json``, or when the
baseline misses an enforced rule or keeps one that is no longer enforced
(a stale entry would outlive its rule): new suppressions
need either a fix instead, or a deliberate baseline bump reviewed in the
same PR.  After *reducing* debt (or after a reviewed extension), refresh
the baseline with::

    python tools/lint_debt.py update

which writes the measured counts (sorted, stable) back to the file.
Shrunk debt makes ``check`` print a note suggesting exactly that.

Counting rules: ``# noqa`` comments are counted from the scanned tree's
source lines (a bare ``# noqa`` counts towards *every* rule it silences,
i.e. all of them); allowlist entries are counted straight from the pinned
:data:`repro.lint.allowlists.ALLOWLISTS` patterns.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint.allowlists import ALLOWLISTS  # noqa: E402
from repro.lint.engine import _NOQA_RE, discover_files  # noqa: E402
from repro.lint.registry import rule_ids  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / ".lint-debt.json"
DEFAULT_SCAN_ROOT = REPO_ROOT / "src" / "repro"


def _real_noqa(line: str):
    """The first actual suppression comment on *line*, if any.

    Prose that merely *mentions* ``# noqa`` (docstrings, comments about the
    machinery) always quotes it -- ````# noqa```` or ``"# noqa"`` -- so a
    match immediately preceded by a quote or backtick is not a suppression.
    """
    for match in _NOQA_RE.finditer(line):
        if match.start() > 0 and line[match.start() - 1] in "`'\"":
            continue
        return match
    return None


def measure_debt(scan_root: Path) -> Dict[str, Dict[str, int]]:
    """``{rule: {"allowlist": n, "noqa": n}}`` for every enforced rule."""
    debt: Dict[str, Dict[str, int]] = {
        rule: {"allowlist": len(ALLOWLISTS.get(rule, ())), "noqa": 0}
        for rule in rule_ids()
    }
    for abs_path, _rel in discover_files([scan_root]):
        for line in abs_path.read_text(encoding="utf-8").splitlines():
            match = _real_noqa(line)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                # A bare ``# noqa`` silences every rule on the line.
                for rule in debt:
                    debt[rule]["noqa"] += 1
                continue
            for code in codes.split(","):
                rule = code.strip().upper()
                if rule in debt:
                    debt[rule]["noqa"] += 1
    return debt


def check(baseline_file: Path, scan_root: Path) -> int:
    if not baseline_file.exists():
        print(f"ERROR: no baseline at {baseline_file}; run "
              f"'python tools/lint_debt.py update' and commit the result.",
              file=sys.stderr)
        return 1
    baseline: Dict[str, Dict[str, int]] = json.loads(
        baseline_file.read_text())
    debt = measure_debt(scan_root)
    status = 0
    shrunk = False
    for rule in sorted(set(baseline) - set(debt)):
        print(f"ERROR: {baseline_file} has an entry for rule {rule}, which "
              f"is not enforced; run the 'update' command and review the "
              f"diff.", file=sys.stderr)
        status = 1
    for rule in sorted(debt):
        measured = debt[rule]
        committed = baseline.get(rule)
        if committed is None:
            print(f"ERROR: rule {rule} is enforced but missing from "
                  f"{baseline_file}; run the 'update' command and review "
                  f"the diff.", file=sys.stderr)
            status = 1
            continue
        for kind in ("allowlist", "noqa"):
            have = int(measured[kind])
            allowed = int(committed.get(kind, 0))
            marker = ""
            if have > allowed:
                print(f"ERROR: {rule} {kind} debt grew: {have} > committed "
                      f"{allowed}. Fix the violation instead of suppressing "
                      f"it, or bump {baseline_file.name} deliberately in "
                      f"the same PR.", file=sys.stderr)
                status = 1
                marker = "  <-- GREW"
            elif have < allowed:
                shrunk = True
            print(f"{rule} {kind}: {have} (baseline {allowed}){marker}")
    if status == 0 and shrunk:
        print("note: suppression debt shrank -- ratchet the baseline down "
              "with 'python tools/lint_debt.py update'")
    return status


def update(baseline_file: Path, scan_root: Path) -> int:
    debt = measure_debt(scan_root)
    baseline_file.write_text(
        json.dumps(debt, indent=2, sort_keys=True) + "\n")
    total = sum(v["allowlist"] + v["noqa"] for v in debt.values())
    print(f"wrote {baseline_file} ({len(debt)} rules, "
          f"total debt {total})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("check", "update"))
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed baseline file (.lint-debt.json)")
    parser.add_argument("--scan-root", type=Path, default=DEFAULT_SCAN_ROOT,
                        help="tree whose # noqa comments are counted "
                             "(default: src/repro)")
    args = parser.parse_args(argv)
    if args.command == "check":
        return check(args.baseline, args.scan_root)
    return update(args.baseline, args.scan_root)


if __name__ == "__main__":
    raise SystemExit(main())
