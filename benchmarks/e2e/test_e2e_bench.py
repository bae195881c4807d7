"""Tests of the end-to-end benchmark's own machinery (tiny sizes, < 10 s)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run as bench_run
import workloads
from tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tracing ------------------------------------------------------------------

class _Layer:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 2.0
        self.inner(3.0)
        self.clock.now += 1.0
        self.inner(1.0)
        self.clock.now += 4.0

    def inner(self, seconds):
        self.clock.now += seconds


class _Child(_Layer):
    pass


class _Clock:
    now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans(tmp_path):
    clock = _Clock()
    tracer = Tracer(clock=clock)
    tracer.install([Target(_Child, "outer", "top"),
                    Target(_Child, "inner", "leaf")])
    tracer.sample_id = 7
    _Child(clock).outer()
    tracer.uninstall()

    assert tracer.layer("top").total_s == 11.0
    assert tracer.layer("top").self_s == 7.0          # 11 - (3 + 1)
    assert tracer.layer("leaf").calls == 2
    assert tracer.layer("leaf").self_s == 4.0
    assert tracer.layer("leaf", "outer").calls == 0
    assert tracer.write_jsonl(tmp_path / "trace.jsonl") == 3
    spans = [json.loads(line)
             for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    outer = next(s for s in spans if s["name"] == "_Child.outer")
    assert (outer["start"], outer["end"], outer["parent"]) == (0.0, 11.0, -1)
    assert all(s["parent"] == outer["id"] for s in spans
               if s["name"] == "_Child.inner")
    assert {s["sample_id"] for s in spans} == {7}
    # Inherited attributes are removed again, not shadowed.
    assert "outer" not in vars(_Child) and "inner" not in vars(_Child)


def test_due_time_latency_counts_generator_lateness():
    # Due at t=10.000, sent 30 ms late, 50 ms in the service.
    assert workloads.due_time_latency_ms(10.0, 10.03, 0.05) == pytest.approx(80.0)
    # On time: only the service's part.
    assert workloads.due_time_latency_ms(5.0, 5.0, 0.05) == pytest.approx(50.0)


# -- inputs ---------------------------------------------------------------------

def _draws(seed, workload, stream):
    run = workloads.Run(workload, seed, 0.0, False, True)
    return run.rng(stream).standard_normal(4)


def test_inputs_depend_only_on_seed_workload_and_stream():
    np.testing.assert_array_equal(_draws(0, "scale-n8", 0),
                                  _draws(0, "scale-n8", 0))
    assert not np.array_equal(_draws(0, "scale-n8", 0),
                              _draws(1, "scale-n8", 0))
    assert not np.array_equal(_draws(0, "scale-n8", 0),
                              _draws(0, "scale-n128", 0))
    assert not np.array_equal(_draws(0, "scale-n8", 0),
                              _draws(0, "scale-n8", 1))


# -- comparison rule ------------------------------------------------------------

def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, [v - 20 for v in parent],
                           better="lower", bound=0.1)[0] == "gain"
    assert compare.verdict(parent, [v + 20 for v in parent],
                           better="lower", bound=0.1)[0] == "regression"
    assert compare.verdict(parent, [v + 1 for v in parent],
                           better="lower", bound=0.1)[0] == "ok"
    # Fewer than ten pairs never claim a gain.
    assert compare.verdict(parent[:5], [v - 20 for v in parent[:5]],
                           better="lower", bound=0.1)[0] == "ok"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, [v + 5 for v in noisy],
                           better="lower", bound=0.1)[0] == "unresolved"
    assert compare.verdict([10.0] * 10, [12.0] * 10,
                           better="higher", bound=0.1)[0] == "gain"


def _result_file(path, *fingerprints):
    runs = [{"workload": "scale-n8", "seed": 0, "smoke": False, "trace": 0,
             "metrics": {"iterations": 57.0}, "deterministic":
             {"fingerprint": fp}} for fp in fingerprints]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_fingerprints_must_agree_within_a_side(tmp_path, capsys):
    parent = _result_file(tmp_path / "p.json", "aaa", "aaa")
    # A change may move the simulated charges; its bounds judge it.
    moved = _result_file(tmp_path / "c.json", "bbb", "bbb")
    assert compare.main(["--parent", parent, "--change", moved]) == 0
    assert "simulated charges changed" in capsys.readouterr().out
    # Runs of one side that disagree are not reproducible.
    split = _result_file(tmp_path / "s.json", "aaa", "bbb")
    assert compare.main(["--parent", parent, "--change", split]) == 1
    assert "change runs disagree" in capsys.readouterr().out


# -- the benchmark definition and the command -------------------------------------

def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(tmp_path, *args):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--json", str(out), *args],
        capture_output=True, text=True, timeout=120)
    return proc, json.loads(out.read_text())["runs"] if out.exists() else []


def test_smoke_run_of_every_workload(tmp_path):
    proc, plain = _run(tmp_path, "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert [r["workload"] for r in plain] == list(bench_run.WORKLOADS)
    for record in plain:
        assert set(record["metrics"]) == e2e
        assert all(v > 0 for v in record["metrics"].values()), record["metrics"]

    proc, traced = _run(tmp_path, "--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for before, after in zip(plain, traced):
        assert set(after["metrics"]) == per_layer
        # Tracing must not change a single simulated charge.
        assert after["deterministic"] == before["deterministic"]
    for record in traced:
        lines = (ROOT / record["trace_file"]).read_text().splitlines()
        assert len(lines) == record["spans"] > 0
    scale = traced[0]["metrics"]
    assert scale["spmv.calls"] > 0 and scale["precond.apply_calls"] > 0
    assert traced[2]["metrics"]["recovery.episodes"] == 2


def test_fails_without_the_library(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "scale-n8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
