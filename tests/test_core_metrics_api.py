"""Tests for the metrics module and the high-level convenience API."""

import numpy as np
import pytest

from repro.cluster import MachineModel
from repro.core.api import (
    build_failure_events,
    distribute_problem,
    solve,
)
from repro.core.metrics import (
    compare_runs,
    convergence_rate_estimate,
    iterations_to_tolerance,
    magnitude_signed_max,
    max_residual_difference,
    state_difference,
)
from repro.matrices import poisson_2d
from repro.solvers import pcg
from repro.solvers.result import SolveResult, relative_residual_difference


class TestMetrics:
    def test_relative_residual_difference_formula(self):
        assert relative_residual_difference(1.1e-8, 1.0e-8) == pytest.approx(0.1)
        assert relative_residual_difference(0.9e-8, 1.0e-8) == pytest.approx(-0.1)

    def test_zero_denominator_gives_nan(self):
        assert np.isnan(relative_residual_difference(1.0, 0.0))

    def test_non_finite_norm_gives_nan(self):
        import repro.core

        assert np.isnan(repro.core.relative_residual_difference(np.inf, 1.0))
        assert np.isnan(relative_residual_difference(1.0, np.nan))
        result = SolveResult(x=np.zeros(1), converged=False, iterations=1,
                             final_residual_norm=np.inf,
                             true_residual_norm=1.0)
        assert np.isnan(result.relative_residual_deviation)

    def test_residual_difference_of_result(self):
        a = poisson_2d(10)
        b = np.random.default_rng(0).standard_normal(100)
        # Stop well above the rounding floor so the recursive and the true
        # residual still agree closely (the regime of the paper's Table 3).
        result = pcg(a, b, rtol=1e-6)
        value = result.relative_residual_deviation
        assert np.isfinite(value)
        assert abs(value) < 1e-3

    def test_max_residual_difference_signed(self):
        def fake(dev):
            return SolveResult(x=np.zeros(1), converged=True, iterations=1,
                               final_residual_norm=(1 + dev) * 1e-8,
                               true_residual_norm=1e-8)
        results = [fake(0.1), fake(-0.5), fake(0.2)]
        assert max_residual_difference(results) == pytest.approx(-0.5)

    def test_max_residual_difference_empty(self):
        assert np.isnan(max_residual_difference([]))

    @pytest.mark.parametrize("values,expected", [
        ([0.1, -0.5, 0.2], -0.5),
        ([np.nan, -np.inf, 0.3, -0.1], 0.3),
        ([0.25, -0.25], 0.25),
        ([np.nan, np.inf], np.nan),
        ([], np.nan),
    ], ids=["sign-kept", "non-finite-skipped", "first-on-tie", "none-finite",
            "empty"])
    def test_magnitude_signed_max(self, values, expected):
        """Table 3's maximum, shared by the metrics and the harness."""
        result = magnitude_signed_max(iter(values))
        if np.isnan(expected):
            assert np.isnan(result)
        else:
            assert result == expected

    def test_compare_runs(self):
        a = poisson_2d(10)
        b = a @ np.ones(100)
        r1 = pcg(a, b, rtol=1e-8)
        r2 = pcg(a, b, rtol=1e-10)
        comparison = compare_runs(r1, r2)
        assert comparison.reference_iterations == r1.iterations
        assert comparison.resilient_iterations == r2.iterations
        assert comparison.solution_relative_difference < 1e-6

    def test_convergence_rate(self):
        rate = convergence_rate_estimate([1.0, 0.1, 0.01, 0.001])
        assert rate == pytest.approx(0.1)
        assert np.isnan(convergence_rate_estimate([1.0]))

    def test_iterations_to_tolerance(self):
        history = [1.0, 0.5, 0.05, 0.001]
        assert iterations_to_tolerance(history, 0.1) == 2
        assert iterations_to_tolerance(history, 1e-6) is None
        assert iterations_to_tolerance([], 0.1) is None

    def test_state_difference(self):
        a = {"x": np.ones(4), "r": np.zeros(4)}
        b = {"x": np.ones(4) * 1.1, "r": np.zeros(4)}
        diffs = state_difference(a, b)
        assert diffs["x"] == pytest.approx(0.1)
        assert diffs["r"] == 0.0


class TestApi:
    def test_distribute_problem_defaults(self):
        a = poisson_2d(12)
        problem = distribute_problem(a, n_nodes=4)
        assert problem.n == 144
        assert problem.n_nodes == 4
        # default rhs makes the exact solution all-ones
        assert np.allclose(problem.rhs.to_global(), a @ np.ones(144))

    def test_build_failure_events_tuples(self):
        events = build_failure_events([(5, [1, 2]), (9, 3)])
        assert events[0].ranks == (1, 2)
        assert events[1].ranks == (3,)
        assert events[1].iteration == 9

    def test_build_failure_events_passthrough(self):
        from repro.cluster import FailureEvent
        event = FailureEvent(3, (0,))
        assert build_failure_events([event]) == [event]

    def test_preconditioner_instance_accepted(self):
        from repro.precond import JacobiPreconditioner
        a = poisson_2d(12)
        problem = distribute_problem(a, n_nodes=4)
        result = solve(problem, solver="pcg",
                       preconditioner=JacobiPreconditioner())
        assert result.converged

    def test_raw_matrix_with_failures_one_call(self):
        a = poisson_2d(16)
        result = solve(
            a, n_nodes=4, phi=2, failures=[(8, [1, 2])],
            preconditioner="block_jacobi",
            machine=MachineModel(jitter_rel_std=0.0),
        )
        assert result.converged
        assert result.n_failures_recovered == 2
        assert np.allclose(result.x, np.ones(a.shape[0]), atol=1e-6)

    def test_resilient_solve_default_preconditioner(self):
        a = poisson_2d(12)
        problem = distribute_problem(a, n_nodes=4)
        result = solve(problem, solver="resilient_pcg", phi=1)
        assert result.converged
        assert result.info["preconditioner"] == "block_jacobi"

    def test_package_level_exports(self):
        import repro
        assert hasattr(repro, "ResilientPCG")
        assert hasattr(repro, "solve")
        assert repro.__version__
