"""JSON serialization of the solve-result types (``to_dict`` / ``jsonify``).

Pins the satellite contract: every result the façade can return --
``SolveResult``, ``DistributedSolveResult``, ``BlockSolveResult``, including
their convergence histories and recovery reports -- serializes to plain
JSON without hand-picking attributes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.cluster import MachineModel
from repro.core.reconstruction import RecoveryReport
from repro.core.spec import ResilienceSpec, SolveSpec
from repro.precond.base import PreconditionerForm
from repro.solvers.local_solver import LocalSolveStats
from repro.solvers.result import SolveResult
from repro.utils.serde import jsonify


class TestJsonify:
    def test_passthrough_scalars(self):
        assert jsonify(None) is None
        assert jsonify(True) is True
        assert jsonify(3) == 3
        assert jsonify(1.5) == 1.5
        assert jsonify("s") == "s"

    def test_numpy_types(self):
        assert jsonify(np.float64(2.5)) == 2.5
        assert isinstance(jsonify(np.int64(3)), int)
        assert jsonify(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert jsonify(np.ones((2, 2))) == [[1.0, 1.0], [1.0, 1.0]]

    def test_containers_recursed(self):
        out = jsonify({"b": (np.int32(2), [3]), "a": np.float64(1.0)})
        assert out == {"a": 1.0, "b": [2, [3]]}
        assert list(out) == ["a", "b"]

    def test_enums_become_their_values(self):
        assert jsonify(PreconditionerForm.INVERSE) == "inverse"

    def test_objects_with_to_dict_delegate(self):
        stats = LocalSolveStats("direct", 4, 10, 1, 1e-16, 100.0)
        assert jsonify(stats) == stats.to_dict()

    def test_fallback_is_repr(self):
        assert jsonify(object).startswith("<class")


class TestSolveResultToDict:
    def make_result(self):
        return SolveResult(
            x=np.array([1.0, 2.0]), converged=True, iterations=3,
            residual_norms=[1.0, 0.1, 0.01], final_residual_norm=0.01,
            true_residual_norm=0.0100001,
            solver_residual=np.array([0.0, 0.01]),
            info={"preconditioner": "block_jacobi", "k": np.int64(1)})

    def test_default_excludes_solution_includes_history(self):
        data = self.make_result().to_dict()
        assert "x" not in data and "solver_residual" not in data
        assert data["residual_norms"] == [1.0, 0.1, 0.01]
        assert data["converged"] is True
        assert data["iterations"] == 3
        assert data["relative_residual_deviation"] == pytest.approx(
            self.make_result().relative_residual_deviation)
        json.dumps(data)

    def test_solution_and_history_toggles(self):
        data = self.make_result().to_dict(include_solution=True,
                                          include_history=False)
        assert data["x"] == [1.0, 2.0]
        assert data["solver_residual"] == [0.0, 0.01]
        assert "residual_norms" not in data
        json.dumps(data)


class TestDistributedResultsToDict:
    def test_distributed_solve_result(self, poisson_problem_factory):
        result = repro.solve(poisson_problem_factory())
        data = result.to_dict()
        payload = json.loads(json.dumps(data))
        assert payload["converged"] is True
        assert payload["simulated_time"] == result.simulated_time
        assert payload["time_breakdown"] == \
            {k: result.time_breakdown[k]
             for k in sorted(result.time_breakdown)}
        assert payload["recoveries"] == []
        assert payload["n_failures_recovered"] == 0

    def test_resilient_result_serializes_recoveries(
            self, poisson_problem_factory):
        result = repro.solve(
            poisson_problem_factory(),
            spec=SolveSpec(resilience=ResilienceSpec(
                phi=2, failures=((5, (1, 2)),))))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["n_failures_recovered"] == 2
        (episode,) = payload["recoveries"]
        assert episode["iteration"] == 5
        assert episode["failed_ranks"] == [1, 2]
        assert episode["local_solve_stats"]
        assert all(isinstance(s["work_flops"], float)
                   for s in episode["local_solve_stats"])

    def test_block_solve_result(self, small_poisson):
        problem = repro.distribute_problem(
            small_poisson, n_nodes=4, seed=0,
            machine=MachineModel(jitter_rel_std=0.0))
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((small_poisson.shape[0], 3))
        result = repro.solve(problem, rhs)
        payload = json.loads(json.dumps(
            result.to_dict(include_solution=True)))
        assert payload["converged"] == [True, True, True]
        assert payload["all_converged"] is True
        assert payload["iterations"] == list(result.iterations)
        assert len(payload["residual_histories"]) == 3
        assert payload["residual_histories"][1] == \
            [float(v) for v in result.residual_histories[1]]
        assert np.array_equal(np.asarray(payload["x"]), result.x)
        compact = result.to_dict(include_history=False)
        assert "residual_histories" not in compact and "x" not in compact

    def test_recovery_report_direct(self):
        report = RecoveryReport(
            iteration=7, failed_ranks=[2], restarts=1, simulated_time=0.5,
            wallclock_time=0.01, reconstruction_form="inverse",
            local_solve_stats=[LocalSolveStats("pcg_ilu", 8, 20, 3, 1e-15,
                                               240.0)],
            notes=["overlapping failure"])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_failures"] == 1
        assert payload["restarts"] == 1
        assert payload["notes"] == ["overlapping failure"]
        assert payload["local_solve_stats"][0]["method"] == "pcg_ilu"
