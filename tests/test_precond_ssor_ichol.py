"""Tests for the IC(0) factorisation (the ``block_jacobi_ic`` inner solver)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import poisson_2d
from repro.precond import factorization_residual, ic0, ic0_solve
from repro.precond.ichol import FactorizationError


@pytest.fixture
def matrix():
    return poisson_2d(8)


class TestIc0:
    def test_factor_is_lower_triangular(self, matrix):
        factor = ic0(matrix)
        assert (sp.triu(factor, k=1)).nnz == 0

    def test_pattern_matches_lower_triangle(self, matrix):
        factor = ic0(matrix)
        lower = sp.tril(matrix)
        assert factor.nnz == lower.nnz

    def test_exact_for_tridiagonal(self):
        # IC(0) of a tridiagonal SPD matrix is the exact Cholesky factor.
        from repro.matrices import poisson_1d
        a = poisson_1d(20)
        factor = ic0(a)
        assert factorization_residual(a, factor) < 1e-12

    def test_reasonable_approximation_2d(self, matrix):
        factor = ic0(matrix)
        assert factorization_residual(matrix, factor) < 0.3

    def test_solve(self, matrix):
        factor = ic0(matrix)
        rhs = np.ones(matrix.shape[0])
        x = ic0_solve(factor, rhs)
        assert np.allclose(factor @ (factor.T @ x), rhs, atol=1e-10)

    def test_diagonal_shift_recovery(self):
        # An indefinite-looking perturbation forces the shifted retry path.
        a = poisson_2d(6).tolil()
        a[0, 0] = 1e-8
        factor = ic0(sp.csr_matrix(a))
        assert np.isfinite(factor.data).all()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ic0(sp.csr_matrix(np.ones((3, 4))))

    def test_missing_diagonal_detected(self):
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        a.eliminate_zeros()
        with pytest.raises(FactorizationError):
            ic0(a, max_shift_attempts=0)

