"""Tests for the sequential CG/PCG reference solver."""

import numpy as np
import pytest

from repro.distributed import BlockRowPartition
from repro.matrices import poisson_2d
from repro.precond import JacobiPreconditioner, BlockJacobiPreconditioner
from repro.solvers import cg, pcg


@pytest.fixture
def system():
    a = poisson_2d(12)
    x_exact = np.sin(np.arange(a.shape[0]) * 0.1)
    return a, a @ x_exact, x_exact


class TestPcg:
    def test_converges_to_exact_solution(self, system):
        a, b, x_exact = system
        result = pcg(a, b, rtol=1e-10)
        assert result.converged
        assert np.allclose(result.x, x_exact, atol=1e-6)

    def test_residual_history_decreases_overall(self, system):
        a, b, _ = system
        result = pcg(a, b, rtol=1e-10)
        assert result.residual_norms[-1] < 1e-8 * result.residual_norms[0]
        assert len(result.residual_norms) == result.iterations + 1

    def test_initial_guess(self, system):
        a, b, x_exact = system
        result = pcg(a, b, x0=x_exact, rtol=1e-8)
        assert result.iterations == 0
        assert result.converged

    def test_max_iterations_respected(self, system):
        a, b, _ = system
        result = pcg(a, b, rtol=1e-14, max_iterations=3)
        assert result.iterations == 3
        assert not result.converged

    def test_callback_invoked(self, system):
        a, b, _ = system
        calls = []
        pcg(a, b, rtol=1e-6, callback=lambda j, x, r: calls.append(j))
        assert calls == list(range(1, len(calls) + 1))

    def test_preconditioner_object_and_callable(self, system):
        a, b, _ = system
        jac = JacobiPreconditioner()
        jac.setup(a)
        r1 = pcg(a, b, preconditioner=jac, rtol=1e-10)
        r2 = pcg(a, b, preconditioner=jac.apply, rtol=1e-10)
        assert r1.iterations == r2.iterations

    def test_invalid_preconditioner_type(self, system):
        a, b, _ = system
        with pytest.raises(TypeError):
            pcg(a, b, preconditioner=42)

    def test_atol_only(self, system):
        a, b, _ = system
        result = pcg(a, b, rtol=0.0, atol=1e-4)
        assert result.final_residual_norm <= 1e-4

    def test_solver_vs_true_residual_close(self, system):
        a, b, _ = system
        result = pcg(a, b, rtol=1e-10)
        assert result.final_residual_norm == pytest.approx(
            result.true_residual_norm, rel=1e-3
        )

    def test_relative_residual_deviation_small(self, system):
        a, b, _ = system
        result = pcg(a, b, rtol=1e-8)
        assert abs(result.relative_residual_deviation) < 1e-3

    def test_cg_equals_pcg_with_identity(self, system):
        a, b, _ = system
        assert cg(a, b, rtol=1e-8).iterations == pcg(a, b, rtol=1e-8).iterations

    def test_block_jacobi_reduces_iterations(self, system):
        a, b, _ = system
        plain = pcg(a, b, rtol=1e-8)
        p = BlockJacobiPreconditioner()
        p.setup(a, BlockRowPartition(a.shape[0], 4))
        prec = pcg(a, b, preconditioner=p, rtol=1e-8)
        assert prec.iterations < plain.iterations

    def test_summary_text(self, system):
        a, b, _ = system
        assert "converged" in pcg(a, b).summary()

    def test_dense_matrix_supported(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        result = pcg(a, b, rtol=1e-12)
        assert np.allclose(a @ result.x, b)

