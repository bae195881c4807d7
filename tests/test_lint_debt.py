"""Tests for tools/lint_debt.py (the suppression-debt ratchet).

Contract: debt = allowlist entries + real ``# noqa`` comments per rule;
prose that merely quotes ``# noqa`` does not count; ``check`` fails on a
missing baseline, a missing rule, an entry for a rule that is not
enforced, or any count above the committed baseline, and notes shrunk
debt; ``update`` writes the measured counts as
stable sorted JSON.
"""

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "lint_debt", REPO_ROOT / "tools" / "lint_debt.py")
lint_debt = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("lint_debt", lint_debt)
_SPEC.loader.exec_module(lint_debt)

from repro.lint.registry import rule_ids  # noqa: E402


def write_tree(tmp_path, source, rel="mod.py"):
    root = tmp_path / "pkg"
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def zero_baseline():
    from repro.lint.allowlists import ALLOWLISTS
    return {rule: {"allowlist": len(ALLOWLISTS.get(rule, ())), "noqa": 0}
            for rule in rule_ids()}


class TestRealNoqa:
    def test_plain_suppression_matches(self):
        assert lint_debt._real_noqa("x = 1  # noqa: R001") is not None
        assert lint_debt._real_noqa("x = 1  # noqa") is not None

    @pytest.mark.parametrize("line", [
        'doc = "use `# noqa: R001` sparingly"',
        "doc = '# noqa is debt'",
        "text = '``# noqa`` comments'",
    ])
    def test_quoted_prose_is_not_a_suppression(self, line):
        assert lint_debt._real_noqa(line) is None

    def test_suppression_after_prose_still_found(self):
        line = 'x = "`# noqa`"  # noqa: R002'
        match = lint_debt._real_noqa(line)
        assert match is not None
        assert match.group("codes").strip() == "R002"

    def test_clean_line(self):
        assert lint_debt._real_noqa("x = 1  # a comment") is None


class TestMeasureDebt:
    def test_counts_allowlists_and_noqa(self, tmp_path):
        root = write_tree(tmp_path, """\
            import random  # noqa: R001
            import time  # noqa: R001, R002
        """)
        debt = lint_debt.measure_debt(root)
        assert set(debt) == set(rule_ids())
        assert debt["R001"]["noqa"] == 2
        assert debt["R002"]["noqa"] == 1
        assert debt["R003"]["noqa"] == 0
        # Allowlist counts come from the pinned ALLOWLISTS, not the tree.
        from repro.lint.allowlists import ALLOWLISTS
        assert debt["R007"]["allowlist"] == len(ALLOWLISTS["R007"])

    def test_bare_noqa_counts_towards_every_rule(self, tmp_path):
        root = write_tree(tmp_path, "import random  # noqa\n")
        debt = lint_debt.measure_debt(root)
        assert all(debt[rule]["noqa"] == 1 for rule in rule_ids())

    def test_unknown_codes_ignored(self, tmp_path):
        root = write_tree(tmp_path, "x = 1  # noqa: E501\n")
        debt = lint_debt.measure_debt(root)
        assert all(debt[rule]["noqa"] == 0 for rule in rule_ids())


class TestCheck:
    def _baseline(self, tmp_path, data):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(data))
        return baseline

    def test_matching_baseline_passes(self, tmp_path, capsys):
        root = write_tree(tmp_path, "x = 1\n")
        baseline = self._baseline(tmp_path, zero_baseline())
        assert lint_debt.check(baseline, root) == 0
        out = capsys.readouterr().out
        assert "R001 noqa: 0 (baseline 0)" in out

    def test_grown_debt_fails(self, tmp_path, capsys):
        root = write_tree(tmp_path, "import random  # noqa: R001\n")
        baseline = self._baseline(tmp_path, zero_baseline())
        assert lint_debt.check(baseline, root) == 1
        captured = capsys.readouterr()
        assert "R001 noqa debt grew" in captured.err
        assert "<-- GREW" in captured.out

    def test_shrunk_debt_passes_with_note(self, tmp_path, capsys):
        root = write_tree(tmp_path, "x = 1\n")
        data = zero_baseline()
        data["R001"]["noqa"] = 3
        baseline = self._baseline(tmp_path, data)
        assert lint_debt.check(baseline, root) == 0
        assert "shrank" in capsys.readouterr().out

    def test_missing_baseline_fails(self, tmp_path, capsys):
        root = write_tree(tmp_path, "x = 1\n")
        assert lint_debt.check(tmp_path / "absent.json", root) == 1
        assert "no baseline" in capsys.readouterr().err

    def test_missing_rule_fails(self, tmp_path, capsys):
        root = write_tree(tmp_path, "x = 1\n")
        data = zero_baseline()
        del data["R010"]
        baseline = self._baseline(tmp_path, data)
        assert lint_debt.check(baseline, root) == 1
        assert "R010" in capsys.readouterr().err

    def test_stale_rule_fails(self, tmp_path, capsys):
        root = write_tree(tmp_path, "x = 1\n")
        data = zero_baseline()
        data["R099"] = {"allowlist": 0, "noqa": 0}
        baseline = self._baseline(tmp_path, data)
        assert lint_debt.check(baseline, root) == 1
        err = capsys.readouterr().err
        assert "R099" in err and "not enforced" in err


class TestUpdate:
    def test_update_writes_measured_counts(self, tmp_path, capsys):
        root = write_tree(tmp_path, "import random  # noqa: R001\n")
        baseline = tmp_path / "baseline.json"
        assert lint_debt.update(baseline, root) == 0
        data = json.loads(baseline.read_text())
        assert data["R001"]["noqa"] == 1
        assert set(data) == set(rule_ids())
        assert "total debt" in capsys.readouterr().out

    def test_update_then_check_round_trips(self, tmp_path):
        root = write_tree(tmp_path, "import time  # noqa: R002\n")
        baseline = tmp_path / "baseline.json"
        lint_debt.update(baseline, root)
        assert lint_debt.check(baseline, root) == 0

    def test_update_output_is_stable(self, tmp_path):
        root = write_tree(tmp_path, "x = 1\n")
        baseline = tmp_path / "baseline.json"
        lint_debt.update(baseline, root)
        first = baseline.read_text()
        lint_debt.update(baseline, root)
        assert baseline.read_text() == first


class TestCommittedBaseline:
    def test_repo_baseline_matches_reality(self, capsys):
        """The committed .lint-debt.json agrees with the tree (CI gate)."""
        assert lint_debt.check(REPO_ROOT / ".lint-debt.json",
                               REPO_ROOT / "src" / "repro") == 0


class TestMain:
    def test_main_check(self, tmp_path):
        root = write_tree(tmp_path, "x = 1\n")
        baseline = tmp_path / "baseline.json"
        assert lint_debt.main(["update", "--baseline", str(baseline),
                               "--scan-root", str(root)]) == 0
        assert lint_debt.main(["check", "--baseline", str(baseline),
                               "--scan-root", str(root)]) == 0
