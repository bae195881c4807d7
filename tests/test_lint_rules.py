"""Tests for the project linter (`repro.lint`).

Contract: every rule ID fires on a synthetic fixture containing the
violation it documents and stays quiet on the sanctioned counterpart;
``# noqa`` and the pinned allowlists suppress findings; the CLI maps
clean/violations/errors to exit codes 0/1/2; and the real source tree is
clean under all rules (the invariant CI enforces).
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintError, Project, SourceFile, Violation, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.engine import dotted_name, path_matches
from repro.lint.registry import ALL_RULES, get_rule, rule_ids

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(tmp_path, source, rel="mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def lint_tree(tmp_path, *, tests_dir=None, select=None):
    return run_lint([tmp_path], rules=ALL_RULES, tests_dir=tests_dir,
                    select=select)


def fired_ids(violations):
    return sorted({v.rule_id for v in violations})


class TestRegistry:
    def test_rule_ids_complete_and_ordered(self):
        assert list(rule_ids()) == \
            ["R001", "R002", "R003", "R004", "R005",
             "R006", "R007", "R008", "R010"]

    def test_get_rule_round_trips(self):
        for rule_id in rule_ids():
            assert get_rule(rule_id).id == rule_id

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError):
            get_rule("R999")

    def test_every_rule_documented(self):
        for rule in ALL_RULES:
            assert rule.title
            assert rule.__class__.__doc__

    def test_no_name_list_points_at_a_dead_name(self):
        """Every communicator primitive the flow rules key on is a public
        method of ``Communicator``, and every charge sink a method of
        ``CostLedger``: an API cut cannot leave a rule checking nothing."""
        from repro.cluster.communicator import Communicator
        from repro.cluster.cost_model import CostLedger
        from repro.lint import dataflow, rules_flow
        dead = [name for name in sorted(rules_flow.COMM_PRIMITIVES)
                if name.startswith("_")
                or not callable(getattr(Communicator, name, None))]
        dead += [name for name in sorted(dataflow.SINK_CHARGE)
                 if not callable(getattr(CostLedger, name, None))]
        assert dead == []
        # R008 and the taint engine's payload sinks share the one list.
        assert rules_flow.COMM_PRIMITIVES is dataflow.COMM_PRIMITIVES


class TestR001UnseededRng:
    @pytest.mark.parametrize("source", [
        "import random\n",
        "from random import choice\n",
        "import numpy as np\nx = np.random.rand(3)\n",
        "import numpy as np\nrng = np.random.RandomState(0)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(None)\n",
        "import numpy as np\nrng = np.random.default_rng(seed=None)\n",
    ])
    def test_fires(self, tmp_path, source):
        write_module(tmp_path, source)
        assert fired_ids(lint_tree(tmp_path, tests_dir=tmp_path)) == ["R001"]

    @pytest.mark.parametrize("source", [
        "import numpy as np\nrng = np.random.default_rng(42)\n",
        "import numpy as np\nrng = np.random.default_rng(seed=7)\n",
        "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n",
    ])
    def test_clean(self, tmp_path, source):
        write_module(tmp_path, source)
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []

    def test_allowlisted_rng_module(self, tmp_path):
        write_module(tmp_path, "import numpy as np\nx = np.random.rand()\n",
                     rel="utils/rng.py")
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []


class TestR002Wallclock:
    @pytest.mark.parametrize("source", [
        "import time\nt = time.time()\n",
        "import time\nt = time.perf_counter\n",
        "from time import perf_counter\n",
        "import datetime\nnow = datetime.datetime.now()\n",
    ])
    def test_fires(self, tmp_path, source):
        write_module(tmp_path, source)
        assert fired_ids(lint_tree(tmp_path, tests_dir=tmp_path)) == ["R002"]

    def test_non_wallclock_time_use_is_clean(self, tmp_path):
        write_module(tmp_path, "import time\ntime.sleep(0.1)\n")
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []

    @pytest.mark.parametrize("rel", [
        "harness/experiment.py", "core/reconstruction.py",
    ])
    def test_allowlisted_timing_modules(self, tmp_path, rel):
        write_module(tmp_path, "import time\nt = time.perf_counter()\n",
                     rel=rel)
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []


class TestR003RegisteredNames:
    REGISTRATION = """\
        from repro.core.registry import register_solver

        @register_solver("ghost_solver")
        def build(problem, spec):
            return None
    """

    def test_uncovered_name_fires(self, tmp_path):
        write_module(tmp_path, self.REGISTRATION)
        tests_dir = tmp_path / "tests"
        write_module(tests_dir, "def test_nothing():\n    assert True\n",
                     rel="test_something.py")
        violations = lint_tree(tmp_path, tests_dir=tests_dir)
        assert fired_ids(violations) == ["R003"]
        assert "ghost_solver" in violations[0].message

    def test_covered_name_is_clean(self, tmp_path):
        write_module(tmp_path, self.REGISTRATION)
        tests_dir = tmp_path / "tests"
        write_module(tests_dir,
                     'NAMES = ["ghost_solver"]\n'
                     "def test_names():\n    assert NAMES\n",
                     rel="test_something.py")
        assert lint_tree(tmp_path, tests_dir=tests_dir) == []

    PLACEMENT_REGISTRATION = """\
        from repro.core.placement import register_placement

        @register_placement("ghost_placement", "test-only strategy")
        def targets(owner, phi, n_nodes):
            return []
    """

    def test_uncovered_placement_name_fires(self, tmp_path):
        write_module(tmp_path, self.PLACEMENT_REGISTRATION)
        tests_dir = tmp_path / "tests"
        write_module(tests_dir, "def test_nothing():\n    assert True\n",
                     rel="test_something.py")
        violations = lint_tree(tmp_path, tests_dir=tests_dir)
        assert fired_ids(violations) == ["R003"]
        assert "ghost_placement" in violations[0].message

    def test_covered_placement_name_is_clean(self, tmp_path):
        write_module(tmp_path, self.PLACEMENT_REGISTRATION)
        tests_dir = tmp_path / "tests"
        write_module(tests_dir,
                     'NAMES = ["ghost_placement"]\n'
                     "def test_names():\n    assert NAMES\n",
                     rel="test_something.py")
        assert lint_tree(tmp_path, tests_dir=tests_dir) == []

    def test_missing_tests_dir_is_a_finding(self, tmp_path):
        src = SourceFile.parse(
            write_module(tmp_path, self.REGISTRATION), "mod.py")
        project = Project([src], tests_dir=None)
        violations = list(get_rule("R003").check_project(project))
        assert len(violations) == 1
        assert "no tests/ directory" in violations[0].message


class TestR004NodeMemoryAccess:
    @pytest.mark.parametrize("source", [
        "def peek(node):\n    return node.memory['x']\n",
        "from repro.cluster.node import NodeMemory\n",
        "from repro.distributed.blockstore import NodeBlockStore\n",
    ])
    def test_fires(self, tmp_path, source):
        write_module(tmp_path, source)
        assert fired_ids(lint_tree(tmp_path, tests_dir=tmp_path)) == ["R004"]

    @pytest.mark.parametrize("rel", [
        "cluster/node.py", "distributed/blockstore.py", "core/esr.py",
        "sanitizer.py",
    ])
    def test_storage_layer_allowlisted(self, tmp_path, rel):
        write_module(tmp_path,
                     "def peek(node):\n    return node.memory['x']\n",
                     rel=rel)
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []

    def test_get_block_is_clean(self, tmp_path):
        write_module(tmp_path,
                     "def peek(vec, rank):\n    return vec.get_block(rank)\n")
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []


class TestR005UnorderedIteration:
    @pytest.mark.parametrize("source", [
        "for x in {1, 2, 3}:\n    print(x)\n",
        "total = 0.0\nfor x in set(range(4)):\n    total += x\n",
        "vals = [x for x in frozenset((1, 2))]\n",
        "def f(times, snap):\n"
        "    keys = set(times) | set(snap)\n"
        "    return sum(times[k] for k in keys)\n",
    ])
    def test_fires(self, tmp_path, source):
        write_module(tmp_path, source)
        assert fired_ids(lint_tree(tmp_path, tests_dir=tmp_path)) == ["R005"]

    @pytest.mark.parametrize("source", [
        "for x in sorted({1, 2, 3}):\n    print(x)\n",
        "for x in [1, 2, 3]:\n    print(x)\n",
        # set-into-set is order-insensitive and sanctioned
        "doubled = {2 * x for x in {1, 2}}\n",
        # a name demoted from set to list is no longer flagged
        "s = set()\ns = [1, 2]\nfor x in s:\n    print(x)\n",
        # local set names do not leak into other functions
        "def f():\n    s = {1}\n    return s\n"
        "def g(s):\n    return [x for x in s]\n",
    ])
    def test_clean(self, tmp_path, source):
        write_module(tmp_path, source)
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []

    def test_augmented_set_ops_keep_the_type(self, tmp_path):
        write_module(tmp_path,
                     "def f(extra):\n"
                     "    s = {1}\n"
                     "    s |= extra\n"
                     "    return [x for x in s]\n")
        assert fired_ids(lint_tree(tmp_path, tests_dir=tmp_path)) == ["R005"]


class TestR006FrozenSpecs:
    @pytest.mark.parametrize("source", [
        "def f(x, acc=[]):\n    return acc\n",
        "def f(x, *, cache={}):\n    return cache\n",
        "def f(opts=dict()):\n    return opts\n",
        "def patch(spec):\n    object.__setattr__(spec, 'rtol', 0.0)\n",
    ])
    def test_fires(self, tmp_path, source):
        write_module(tmp_path, source)
        assert fired_ids(lint_tree(tmp_path, tests_dir=tmp_path)) == ["R006"]

    @pytest.mark.parametrize("source", [
        "def f(x, acc=None):\n    return acc or []\n",
        "def f(x, n=3, name='a', flag=True):\n    return x\n",
    ])
    def test_clean(self, tmp_path, source):
        write_module(tmp_path, source)
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []

    def test_spec_module_allowlisted(self, tmp_path):
        write_module(tmp_path,
                     "def norm(spec):\n"
                     "    object.__setattr__(spec, 'phi', 1)\n",
                     rel="core/spec.py")
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []


class TestR007NondeterminismFlow:
    """Interprocedural taint: nondeterminism must not reach a sink."""

    LAUNDERED_WALLCLOCK = """\
        import time

        def measure():
            return time.perf_counter()

        def run(ledger):
            ledger.add_time(measure())
    """

    def test_interprocedural_flow_fires_with_trace(self, tmp_path):
        write_module(tmp_path, self.LAUNDERED_WALLCLOCK)
        violations = lint_tree(tmp_path, tests_dir=tmp_path,
                               select=["R007"])
        assert fired_ids(violations) == ["R007"]
        (violation,) = violations
        # Anchored at the *source* (the perf_counter read), not the sink.
        assert violation.path == "mod.py"
        assert violation.line == 4
        assert "wallclock" in violation.message
        assert "CostLedger charge" in violation.message
        # The message carries the full hop trace across both functions.
        assert "mod.py:4 -> mod.py:7" in violation.message

    def test_unseeded_rng_receiver_into_payload_fires(self, tmp_path):
        write_module(tmp_path, """\
            import numpy as np

            def ship(comm):
                rng = np.random.default_rng()
                comm.allreduce_sum(rng.normal(size=(3, 1)))
        """)
        violations = lint_tree(tmp_path, tests_dir=tmp_path,
                               select=["R007"])
        assert fired_ids(violations) == ["R007"]
        assert "unseeded RNG" in violations[0].message
        assert "Communicator payload" in violations[0].message

    def test_seeded_rng_is_clean(self, tmp_path):
        write_module(tmp_path, """\
            import numpy as np

            def ship(comm):
                rng = np.random.default_rng(42)
                comm.allreduce_sum(rng.normal(size=(3, 1)))
        """)
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R007"]) == []

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        write_module(tmp_path, """\
            def total(ledger, ranks):
                acc = 0.0
                for r in sorted({1, 2, 3}):
                    acc += r
                ledger.add_time(acc)
        """)
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R007"]) == []

    def test_noqa_on_the_source_line_suppresses(self, tmp_path):
        write_module(tmp_path, """\
            import time

            def measure():
                return time.perf_counter()  # noqa: R007

            def run(ledger):
                ledger.add_time(measure())
        """)
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R007"]) == []

    def test_allowlisted_source_module_is_exempt(self, tmp_path):
        # R007 anchors at the taint origin, so the allowlisted modules are
        # the ones sanctioned to *produce* nondeterminism.
        write_module(tmp_path, self.LAUNDERED_WALLCLOCK,
                     rel="harness/experiment.py")
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R007"]) == []


class TestR008ChargeCoverage:
    UNCHARGED_PRIMITIVE = """\
        class Communicator:
            def allreduce_sum(self, partials):
                return self._reduce(partials)

            def _reduce(self, partials):
                return partials.sum(axis=0)
    """

    def test_primitive_without_charging_site_fires(self, tmp_path):
        write_module(tmp_path, self.UNCHARGED_PRIMITIVE,
                     rel="cluster/communicator.py")
        violations = lint_tree(tmp_path, tests_dir=tmp_path,
                               select=["R008"])
        assert fired_ids(violations) == ["R008"]
        assert "Communicator.allreduce_sum" in violations[0].message
        assert "charging site" in violations[0].message

    def test_primitive_charging_through_helper_is_clean(self, tmp_path):
        write_module(tmp_path, """\
            class Communicator:
                def allreduce_sum(self, partials):
                    return self._reduce(partials)

                def _reduce(self, partials):
                    self.ledger.add_traffic("comm.allreduce", 1, 1)
                    return partials.sum(axis=0)
        """, rel="cluster/communicator.py")
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R008"]) == []

    def test_allowlist_exempts_flagged_module(self, tmp_path, monkeypatch):
        from repro.lint.allowlists import ALLOWLISTS
        monkeypatch.setitem(ALLOWLISTS, "R008", ("legacy/*",))
        write_module(tmp_path, self.UNCHARGED_PRIMITIVE, rel="legacy/mod.py")
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R008"]) == []

    def test_noqa_suppresses(self, tmp_path):
        write_module(
            tmp_path,
            "class Communicator:\n"
            "    def allreduce_sum(self, partials):  # noqa: R008\n"
            "        return partials.sum(axis=0)\n")
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R008"]) == []


class TestR010HookContract:
    BROKEN_OVERRIDE = """\
        class DistributedPCG:
            def _after_spmv(self, iteration):
                pass

        class EagerMixin(DistributedPCG):
            def _after_spmv(self, iteration):
                self.count = iteration
    """

    def test_override_without_super_fires(self, tmp_path):
        write_module(tmp_path, self.BROKEN_OVERRIDE)
        violations = lint_tree(tmp_path, tests_dir=tmp_path,
                               select=["R010"])
        assert fired_ids(violations) == ["R010"]
        assert "EagerMixin._after_spmv" in violations[0].message
        assert "super()._after_spmv()" in violations[0].message

    def test_override_calling_super_is_clean(self, tmp_path):
        write_module(tmp_path, """\
            class DistributedPCG:
                def _after_spmv(self, iteration):
                    pass

            class PoliteMixin(DistributedPCG):
                def _after_spmv(self, iteration):
                    super()._after_spmv(iteration)
                    self.count = iteration
        """)
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R010"]) == []

    def test_trivial_protocol_declaration_is_exempt(self, tmp_path):
        write_module(tmp_path, """\
            class DistributedPCG:
                def _on_setup(self):
                    '''Extension point.'''

                def _handle_failures(self, iteration):
                    return False
        """)
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R010"]) == []

    RAW_RECOVERY_WRITE = """\
        class Solver:
            def _handle_failures(self, iteration):
                super()._handle_failures(iteration)
                self._restore()
                return True

            def _restore(self):
                self.x.set_block(0, [0.0])
    """

    def test_raw_set_block_in_recovery_fires_with_trace(self, tmp_path):
        write_module(tmp_path, self.RAW_RECOVERY_WRITE)
        violations = lint_tree(tmp_path, tests_dir=tmp_path,
                               select=["R010"])
        assert fired_ids(violations) == ["R010"]
        (violation,) = violations
        # Anchored at the write site, reached through the handler.
        assert violation.line == 8
        assert "restore_block" in violation.message
        # Handler definition -> self-call site -> write site.
        assert "mod.py:2 -> mod.py:4 -> mod.py:8" in violation.message

    def test_restore_block_in_recovery_is_clean(self, tmp_path):
        write_module(tmp_path, """\
            class Solver:
                def _handle_failures(self, iteration):
                    super()._handle_failures(iteration)
                    self.x.restore_block(0, [0.0])
                    return True
        """)
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R010"]) == []

    def test_allowlist_exempts_flagged_module(self, tmp_path, monkeypatch):
        from repro.lint.allowlists import ALLOWLISTS
        monkeypatch.setitem(ALLOWLISTS, "R010", ("legacy/*",))
        write_module(tmp_path, self.BROKEN_OVERRIDE, rel="legacy/mod.py")
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R010"]) == []

    def test_noqa_on_the_write_site_suppresses(self, tmp_path):
        write_module(tmp_path, """\
            class Solver:
                def _handle_failures(self, iteration):
                    super()._handle_failures(iteration)
                    self.x.set_block(0, [0.0])  # noqa: R010
                    return True
        """)
        assert lint_tree(tmp_path, tests_dir=tmp_path,
                         select=["R010"]) == []


class TestEngineBehavior:
    def test_noqa_bare_suppresses(self, tmp_path):
        write_module(tmp_path, "import random  # noqa\n")
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []

    def test_noqa_with_matching_code_suppresses(self, tmp_path):
        write_module(tmp_path, "import random  # noqa: R001\n")
        assert lint_tree(tmp_path, tests_dir=tmp_path) == []

    def test_noqa_with_other_code_does_not_suppress(self, tmp_path):
        write_module(tmp_path, "import random  # noqa: R002\n")
        assert fired_ids(lint_tree(tmp_path, tests_dir=tmp_path)) == ["R001"]

    def test_select_restricts_rules(self, tmp_path):
        write_module(tmp_path, "import random\nimport time\nt = time.time()\n")
        violations = lint_tree(tmp_path, tests_dir=tmp_path, select=["R002"])
        assert fired_ids(violations) == ["R002"]

    def test_unknown_select_rejected(self, tmp_path):
        write_module(tmp_path, "x = 1\n")
        with pytest.raises(LintError, match="unknown rule id"):
            lint_tree(tmp_path, tests_dir=tmp_path, select=["R042"])

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(LintError, match="no such file"):
            lint_tree(tmp_path / "nope", tests_dir=tmp_path)

    def test_unparseable_file_rejected(self, tmp_path):
        write_module(tmp_path, "def broken(:\n")
        with pytest.raises(LintError, match="cannot parse"):
            lint_tree(tmp_path, tests_dir=tmp_path)

    def test_violations_sorted_and_formatted(self, tmp_path):
        write_module(tmp_path, "import time\nt = time.time()\nimport random\n")
        violations = lint_tree(tmp_path, tests_dir=tmp_path)
        assert [v.line for v in violations] == \
            sorted(v.line for v in violations)
        first = violations[0]
        assert first.format() == \
            f"{first.path}:{first.line}:{first.col}: " \
            f"{first.rule_id} {first.message}"

    def test_path_matches_suffix(self):
        assert path_matches("utils/rng.py", ("utils/rng.py",))
        assert path_matches("repro/utils/rng.py", ("utils/rng.py",))
        assert not path_matches("utils/other.py", ("utils/rng.py",))

    def test_dotted_name(self):
        import ast
        expr = ast.parse("a.b.c()").body[0].value
        assert dotted_name(expr.func) == "a.b.c"
        assert dotted_name(ast.parse("f()").body[0].value.func) == "f"

    def test_violation_is_frozen(self):
        violation = Violation("R001", "mod.py", 1, 0, "msg")
        with pytest.raises(AttributeError):
            violation.line = 2


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_module(tmp_path, "x = 1\n")
        code = lint_main([str(tmp_path), "--tests-dir", str(tmp_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_and_print(self, tmp_path, capsys):
        write_module(tmp_path, "import random\n")
        code = lint_main([str(tmp_path), "--tests-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "R001" in captured.out
        assert "violation" in captured.err

    def test_bad_select_exits_two(self, tmp_path, capsys):
        write_module(tmp_path, "x = 1\n")
        code = lint_main([str(tmp_path), "--select", "R042"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_select_flag(self, tmp_path):
        write_module(tmp_path, "import random\n")
        assert lint_main([str(tmp_path), "--tests-dir", str(tmp_path),
                          "--select", "R002"]) == 0

    def test_list_rules_documents_all_ids(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_json_format_clean_tree(self, tmp_path, capsys):
        import json
        write_module(tmp_path, "x = 1\n")
        code = lint_main([str(tmp_path), "--tests-dir", str(tmp_path),
                          "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violation_count"] == 0
        assert report["violations"] == []
        assert report["rules"] == list(rule_ids())
        assert report["paths"] == [str(tmp_path)]

    def test_json_format_reports_violations(self, tmp_path, capsys):
        import json
        write_module(tmp_path, "import random\n")
        code = lint_main([str(tmp_path), "--tests-dir", str(tmp_path),
                          "--format", "json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violation_count"] == 1
        (entry,) = report["violations"]
        assert set(entry) == {"rule_id", "path", "line", "col", "message"}
        assert entry["rule_id"] == "R001"
        assert entry["path"] == "mod.py"
        assert entry["line"] == 1

    def test_json_report_is_stable(self, tmp_path, capsys):
        write_module(tmp_path, "import random\nimport time\nt = time.time()\n")
        args = [str(tmp_path), "--tests-dir", str(tmp_path),
                "--format", "json"]
        lint_main(args)
        first = capsys.readouterr().out
        lint_main(args)
        assert capsys.readouterr().out == first

    def test_explain_prints_rule_doc_and_allowlist(self, capsys):
        assert lint_main(["--explain", "R007"]) == 0
        out = capsys.readouterr().out
        assert "R007" in out
        assert "allowlist:" in out
        assert "utils/rng.py" in out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--explain", "R999"]) == 2
        assert "R999" in capsys.readouterr().err


class TestLoadedOnDemand:
    """``import repro`` leaves the linter unloaded; it is reached through
    ``python -m repro.lint`` or ``from repro.lint import ...``."""

    def run_python(self, *args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True)

    def test_import_repro_does_not_load_lint(self):
        out = self.run_python(
            "-c", "import repro, sys; print('repro.lint' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_module_entry_point_runs(self):
        out = self.run_python("-m", "repro.lint", "--list-rules")
        assert out.returncode == 0, out.stderr
        for rule_id in rule_ids():
            assert rule_id in out.stdout


class TestRealTreeIsClean:
    """The invariant the CI lint job enforces, asserted from the suite too."""

    def test_src_repro_is_clean(self):
        violations = run_lint([REPO_ROOT / "src" / "repro"], rules=ALL_RULES,
                              tests_dir=REPO_ROOT / "tests")
        assert violations == [], "\n".join(v.format() for v in violations)
