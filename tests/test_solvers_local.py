"""Tests for the reconstruction's local subsystem solver."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from repro.matrices import poisson_2d
from repro.solvers import LOCAL_SOLVER_METHODS, LocalSubsystemSolver, pcg
from repro.solvers import local_solver


class TestLocalSubsystemSolver:
    @pytest.fixture
    def subsystem(self):
        a = poisson_2d(10)
        sub = a[20:60, 20:60].tocsr()
        x = np.random.default_rng(2).standard_normal(40)
        return sub, sub @ x, x

    @pytest.mark.parametrize("method", LOCAL_SOLVER_METHODS)
    def test_all_methods_accurate(self, subsystem, method):
        a, b, x_exact = subsystem
        solver = LocalSubsystemSolver(method)
        x = solver.solve(a, b)
        assert np.allclose(x, x_exact, atol=1e-8)
        assert solver.last_stats is not None
        assert solver.last_stats.size == 40
        assert solver.work_flops() > 0

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            LocalSubsystemSolver("gaussian_elimination")

    def test_point_jacobi_inner_pcg_is_gone(self):
        """The reconstruction runs the paper's ILU inner PCG; the direct
        method serves the interpolation baselines and the fallback."""
        assert LOCAL_SOLVER_METHODS == ("direct", "pcg_ilu")
        with pytest.raises(ValueError, match="pcg_jacobi"):
            LocalSubsystemSolver("pcg_jacobi")

    def test_empty_system(self):
        solver = LocalSubsystemSolver("direct")
        x = solver.solve(sp.csr_matrix((0, 0)), np.zeros(0))
        assert x.size == 0

    def test_stats_track_iterations(self, subsystem):
        a, b, _ = subsystem
        solver = LocalSubsystemSolver("pcg_ilu")
        solver.solve(a, b)
        assert solver.last_stats.iterations >= 1
        assert solver.last_stats.method in ("pcg_ilu", "pcg_ilu+direct_fallback")

    def test_inner_ilu_is_one_spilu_of_the_whole_subsystem(self, subsystem):
        """The ``pcg_ilu`` inner PCG is bit-identical to a PCG preconditioned
        by one ``spilu`` of the whole subsystem (natural ordering, no
        pivoting), and its preconditioner is priced at the subsystem's nnz."""
        a, b, _ = subsystem
        solver = LocalSubsystemSolver("pcg_ilu")
        x = solver.solve(a, b)
        ilu = spilu(a.tocsc(), drop_tol=1e-4, fill_factor=10,
                    permc_spec="NATURAL", diag_pivot_thresh=0.0)
        reference = pcg(a, b, preconditioner=ilu.solve, rtol=1e-14,
                        max_iterations=200)
        stats = solver.last_stats
        assert stats.method == "pcg_ilu"
        assert np.array_equal(x, reference.x)
        assert stats.iterations == reference.iterations
        # Per inner iteration: an SpMV and an ILU application, each 2 nnz.
        its = reference.iterations
        assert stats.work_flops == 2.0 * a.nnz * its + 2.0 * a.nnz * its

    def test_direct_fallback_keeps_accuracy(self, subsystem, monkeypatch):
        """An inner PCG stopped short of its tolerance falls back to the
        sparse LU: the answer is the LU's, and both attempts are charged."""
        a, b, _ = subsystem
        monkeypatch.setattr(local_solver, "INNER_MAX_ITERATIONS", 1)
        solver = LocalSubsystemSolver("pcg_ilu")
        x = solver.solve(a, b)
        stats = solver.last_stats
        assert stats.method == "pcg_ilu+direct_fallback"
        assert np.array_equal(x, splu(a.tocsc()).solve(b))
        # One inner iteration (an SpMV and an ILU application, each priced
        # at nnz), then one LU factorization and one triangular solve.
        assert stats.iterations == 1
        assert stats.work_flops == \
            2.0 * a.nnz + 2.0 * a.nnz + 10.0 * a.nnz + 2.0 * a.nnz

    def test_work_flops_zero_before_solve(self):
        assert LocalSubsystemSolver("direct").work_flops() == 0.0


class TestLocalSubsystemSolverBlock:
    @pytest.fixture
    def block_subsystem(self):
        a = poisson_2d(10)
        sub = a[20:60, 20:60].tocsr()
        x = np.random.default_rng(3).standard_normal((40, 4))
        return sub, sub @ x, x

    @pytest.mark.parametrize("method", LOCAL_SOLVER_METHODS)
    def test_columns_bit_identical_to_single_solves(self, block_subsystem,
                                                    method):
        """solve_block shares one factorization but every column must be
        bit-identical to a standalone solve of that column."""
        a, b, _ = block_subsystem
        solver = LocalSubsystemSolver(method)
        x_block = solver.solve_block(a, b)
        assert x_block.shape == b.shape
        assert len(solver.last_column_stats) == b.shape[1]
        for j in range(b.shape[1]):
            reference = LocalSubsystemSolver(method)
            assert np.array_equal(x_block[:, j], reference.solve(a, b[:, j]))

    def test_factorization_work_amortized(self, block_subsystem):
        """The direct method charges one factorization for the whole block:
        total work < k standalone solves, and per-column bit-identity holds
        regardless."""
        a, b, _ = block_subsystem
        k = b.shape[1]
        block_solver = LocalSubsystemSolver("direct")
        block_solver.solve_block(a, b)
        single = LocalSubsystemSolver("direct")
        single.solve(a, b[:, 0])
        assert block_solver.work_flops() < k * single.work_flops()
        # One factorization (10 nnz) + k triangular solves (2 nnz each).
        assert block_solver.work_flops() == pytest.approx(
            10.0 * a.nnz + k * 2.0 * a.nnz)

    def test_k1_block_equals_single_solve_charges(self, block_subsystem):
        a, b, _ = block_subsystem
        for method in ("direct", "pcg_ilu"):
            block_solver = LocalSubsystemSolver(method)
            x_block = block_solver.solve_block(a, b[:, :1])
            single = LocalSubsystemSolver(method)
            x = single.solve(a, b[:, 0])
            assert np.array_equal(x_block[:, 0], x)
            assert block_solver.work_flops() == single.work_flops()

    def test_rejects_one_dimensional_rhs(self, block_subsystem):
        a, b, _ = block_subsystem
        with pytest.raises(ValueError):
            LocalSubsystemSolver("direct").solve_block(a, b[:, 0])

    def test_empty_block_system(self):
        solver = LocalSubsystemSolver("direct")
        x = solver.solve_block(sp.csr_matrix((0, 0)), np.zeros((0, 3)))
        assert x.shape == (0, 3)
