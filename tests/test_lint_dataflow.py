"""Tests for the taint dataflow engine (`repro.lint.dataflow`).

Contract: nondeterminism sources (wallclock, unseeded RNG, ``id()``,
``os.environ``, set iteration) propagate through assignments, arithmetic,
containers, and call chains into the sinks (ledger charges, communicator
payloads, failure-schedule and solver-result constructors); ``sorted``/
``len`` neutralise set-order taint and nothing else; every reported flow
is anchored at the source origin and carries the full ``a.py:N -> b.py:M``
hop trace; recursion terminates.
"""

import textwrap

from repro.lint.callgraph import CallGraph
from repro.lint.dataflow import TaintAnalyzer, analyze
from repro.lint.engine import Project, SourceFile


def flows_of(tmp_path, modules):
    files = []
    for rel, source in modules.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        files.append(SourceFile.parse(path, rel))
    return analyze(CallGraph(Project(files)))


def one_module(tmp_path, source):
    return flows_of(tmp_path, {"mod.py": source})


class TestIntraproceduralFlows:
    def test_wallclock_into_charge(self, tmp_path):
        flows = one_module(tmp_path, """\
            import time

            def run(ledger):
                t = time.time()
                ledger.add_time(t)
        """)
        (flow,) = flows
        assert flow.kind == "wallclock"
        assert flow.sink_label == "CostLedger charge"
        assert flow.origin_path == "mod.py"
        assert flow.origin_line == 4
        assert flow.render_trace() == "mod.py:4 -> mod.py:5"

    def test_taint_survives_arithmetic_and_fstrings(self, tmp_path):
        flows = one_module(tmp_path, """\
            import time

            def run(comm):
                stamp = 2.0 * time.time() + 1.0
                comm.allreduce_sum(f"at {stamp}")
        """)
        (flow,) = flows
        assert flow.kind == "wallclock"
        assert flow.sink_label == "Communicator payload"

    def test_id_into_charge(self, tmp_path):
        flows = one_module(tmp_path, """\
            def run(ledger, obj):
                ledger.add_traffic(id(obj))
        """)
        (flow,) = flows
        assert flow.kind == "id()"

    def test_environ_into_failure_schedule(self, tmp_path):
        flows = one_module(tmp_path, """\
            import os

            def build():
                return FailureEvent(iteration=int(os.environ["IT"]))
        """)
        (flow,) = flows
        assert flow.kind == "os.environ"
        assert flow.sink_label == "failure-schedule construction"

    def test_getenv_into_solver_result(self, tmp_path):
        flows = one_module(tmp_path, """\
            import os

            def build():
                return SolveResult(iterations=int(os.getenv("N", "1")))
        """)
        (flow,) = flows
        assert flow.kind == "os.environ"
        assert flow.sink_label == "solver-result construction"

    def test_unseeded_rng_receiver_taint(self, tmp_path):
        # The draw happens through an unresolvable attribute call on a
        # tainted receiver: the taint must survive ``rng.normal()``.
        flows = one_module(tmp_path, """\
            import numpy as np

            def run(comm):
                rng = np.random.default_rng()
                comm.allreduce_sum(rng.normal(size=(4, 1)))
        """)
        (flow,) = flows
        assert flow.kind == "unseeded RNG"
        assert flow.sink_label == "Communicator payload"

    def test_set_iteration_into_charge(self, tmp_path):
        flows = one_module(tmp_path, """\
            def run(ledger):
                for r in {1, 2, 3}:
                    ledger.add_time(r)
        """)
        assert [f.kind for f in flows] == ["set-order"]

    def test_loop_carried_taint_found(self, tmp_path):
        # The charge happens *before* the assignment in program order; the
        # second propagation pass catches the loop-carried dependency.
        flows = one_module(tmp_path, """\
            import time

            def run(ledger):
                t = 0.0
                for _ in range(3):
                    ledger.add_time(t)
                    t = time.time()
        """)
        assert [f.kind for f in flows] == ["wallclock"]


class TestCleanCode:
    def test_seeded_rng_is_clean(self, tmp_path):
        assert one_module(tmp_path, """\
            import numpy as np

            def run(comm):
                rng = np.random.default_rng(7)
                comm.allreduce_sum(rng.normal(size=(4, 1)))
        """) == []

    def test_plain_values_into_sinks_are_clean(self, tmp_path):
        assert one_module(tmp_path, """\
            def run(ledger, comm, n):
                ledger.add_time(1.5 * n)
                comm.allreduce_sum({0: float(n)})
        """) == []

    def test_sleep_is_not_a_wallclock_source(self, tmp_path):
        assert one_module(tmp_path, """\
            import time

            def run(ledger):
                time.sleep(0.1)
                ledger.add_time(1.0)
        """) == []


class TestSanitizers:
    def test_sorted_kills_set_order(self, tmp_path):
        assert one_module(tmp_path, """\
            def run(ledger):
                for r in sorted({1, 2, 3}):
                    ledger.add_time(r)
        """) == []

    def test_len_kills_set_order(self, tmp_path):
        assert one_module(tmp_path, """\
            def run(ledger):
                s = {1, 2, 3}
                for r in s:
                    pass
                ledger.add_time(len({1, 2, 3}))
        """) == []

    def test_sorted_does_not_launder_wallclock(self, tmp_path):
        flows = one_module(tmp_path, """\
            import time

            def run(ledger):
                t = sorted([time.time()])[0]
                ledger.add_time(t)
        """)
        assert [f.kind for f in flows] == ["wallclock"]

    def test_set_into_set_comprehension_is_clean(self, tmp_path):
        assert one_module(tmp_path, """\
            def run(ledger):
                doubled = {2 * x for x in {1, 2}}
                ledger.add_time(len(doubled))
        """) == []


class TestInterproceduralFlows:
    def test_flow_through_returning_helper(self, tmp_path):
        flows = one_module(tmp_path, """\
            import time

            def measure():
                return time.perf_counter()

            def run(ledger):
                ledger.add_time(measure())
        """)
        (flow,) = flows
        assert flow.kind == "wallclock"
        assert flow.origin_path == "mod.py"
        assert flow.origin_line == 4
        # source -> call site in run -> sink in run
        assert flow.render_trace() == "mod.py:4 -> mod.py:7 -> mod.py:7"

    def test_flow_through_sinking_helper(self, tmp_path):
        flows = one_module(tmp_path, """\
            import time

            def charge(ledger, amount):
                ledger.add_time(amount)

            def run(ledger):
                charge(ledger, time.time())
        """)
        (flow,) = flows
        assert flow.kind == "wallclock"
        # Anchored at the caller's source, traced through the helper sink.
        assert flow.origin_line == 7
        assert flow.render_trace() == "mod.py:7 -> mod.py:7 -> mod.py:4"

    def test_flow_across_modules(self, tmp_path):
        flows = flows_of(tmp_path, {
            "timing.py": """\
                import time

                def stamp():
                    return time.time()
            """,
            "solver.py": """\
                from timing import stamp

                def run(ledger):
                    ledger.add_time(stamp())
            """,
        })
        (flow,) = flows
        assert flow.origin_path == "timing.py"
        assert flow.render_trace() == \
            "timing.py:4 -> solver.py:4 -> solver.py:4"

    def test_param_taint_forwarded_through_chain(self, tmp_path):
        # Three-hop chain: source in run, forwarded through relay into the
        # helper that sinks it.
        flows = one_module(tmp_path, """\
            import time

            def charge(ledger, amount):
                ledger.add_time(amount)

            def relay(ledger, amount):
                charge(ledger, amount)

            def run(ledger):
                relay(ledger, time.time())
        """)
        (flow,) = flows
        assert flow.kind == "wallclock"
        assert flow.origin_line == 10
        assert "charge" not in flow.render_trace()  # trace is path:line hops
        assert flow.render_trace().count(" -> ") >= 3

    def test_untainted_arguments_stay_clean(self, tmp_path):
        assert one_module(tmp_path, """\
            def charge(ledger, amount):
                ledger.add_time(amount)

            def run(ledger):
                charge(ledger, 1.0)
        """) == []

    def test_recursion_terminates(self, tmp_path):
        flows = one_module(tmp_path, """\
            import time

            def rec(ledger, n):
                if n:
                    rec(ledger, n - 1)
                ledger.add_time(time.time())
        """)
        assert [f.kind for f in flows] == ["wallclock"]


class TestAnalyzerApi:
    def test_flows_sorted_and_deduplicated(self, tmp_path):
        files = []
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent("""\
            import time

            def late(ledger):
                ledger.add_time(time.time())

            def early(ledger):
                ledger.add_time(time.time())
        """), encoding="utf-8")
        files.append(SourceFile.parse(path, "mod.py"))
        analyzer = TaintAnalyzer(CallGraph(Project(files)))
        flows = analyzer.flows()
        assert [f.origin_line for f in flows] == [4, 7]
        assert analyzer.flows() == flows  # cached summaries, stable output

    def test_summary_cached_per_function(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("def f():\n    return 1\n", encoding="utf-8")
        graph = CallGraph(Project([SourceFile.parse(path, "mod.py")]))
        analyzer = TaintAnalyzer(graph)
        func = graph.functions["mod.py::f"]
        assert analyzer.summary(func) is analyzer.summary(func)
