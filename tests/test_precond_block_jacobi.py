"""Tests for the block Jacobi preconditioner (the paper's setting)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed import BlockRowPartition
from repro.matrices import poisson_2d
from repro.precond import BlockJacobiPreconditioner, PreconditionerForm


@pytest.fixture
def matrix():
    return poisson_2d(10)  # n = 100


@pytest.fixture
def partition():
    return BlockRowPartition(100, 4)


class TestSetupAndApply:
    def test_exact_block_solves(self, matrix, partition):
        p = BlockJacobiPreconditioner(block_solver="direct")
        p.setup(matrix, partition)
        r = np.random.default_rng(0).standard_normal(100)
        z = p.apply(r)
        # z must satisfy blkdiag(A_ii) z = r exactly
        for rank in range(4):
            start, stop = partition.range_of(rank)
            block = matrix[start:stop, start:stop]
            assert np.allclose(block @ z[start:stop], r[start:stop], atol=1e-10)

    def test_apply_block_matches_apply(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        r = np.arange(100.0)
        z = p.apply(r)
        for rank in range(4):
            start, stop = partition.range_of(rank)
            assert np.allclose(p.apply_block(rank, r[start:stop]), z[start:stop])

    def test_wrong_block_size_rejected(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        with pytest.raises(ValueError):
            p.apply_block(0, np.ones(10))

    def test_without_partition_uses_default_blocks(self, matrix):
        p = BlockJacobiPreconditioner(n_blocks=5)
        p.setup(matrix)
        assert p.block_partition.n_parts == 5

    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(block_solver="magic")

    @pytest.mark.parametrize("solver", ["ilu", "ic"])
    def test_inexact_solvers_are_good_approximations(self, matrix, partition, solver):
        p = BlockJacobiPreconditioner(block_solver=solver)
        p.setup(matrix, partition)
        exact = BlockJacobiPreconditioner(block_solver="direct")
        exact.setup(matrix, partition)
        r = np.random.default_rng(1).standard_normal(100)
        z_approx = p.apply(r)
        z_exact = exact.apply(r)
        rel = np.linalg.norm(z_approx - z_exact) / np.linalg.norm(z_exact)
        assert rel < 0.3

    def test_is_block_diagonal(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        assert p.is_block_diagonal

    def test_work_nnz(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        expected = sum(
            matrix[partition.slice_of(r), partition.slice_of(r)].nnz
            for r in range(4)
        )
        assert p.work_nnz() == expected
        assert sum(p.block_work_nnz(r) for r in range(4)) == expected


class TestEsrAccess:
    def test_form_is_forward(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        assert p.form is PreconditionerForm.FORWARD

    def test_forward_rows_are_block_diagonal(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        idx = partition.indices_of(2)
        rows = p.forward_rows(idx)
        assert rows.shape == (25, 100)
        # non-zeros only inside the owning block's columns
        start, stop = partition.range_of(2)
        cols = rows.tocoo().col
        assert np.all((cols >= start) & (cols < stop))
        # and they match A's diagonal block
        assert np.allclose(rows[:, start:stop].toarray(),
                           matrix[start:stop, start:stop].toarray())

    def test_inverse_rows_invert_blocks(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        idx = partition.indices_of(1)
        inv_rows = p.inverse_rows(idx)
        start, stop = partition.range_of(1)
        block = matrix[start:stop, start:stop].toarray()
        product = inv_rows[:, start:stop].toarray() @ block
        assert np.allclose(product, np.eye(25), atol=1e-8)

    def test_mixed_rank_rows(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        idx = np.array([0, 30, 99])
        rows = p.forward_rows(idx)
        assert rows.shape == (3, 100)

    def test_diagonal_block_accessor(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        start, stop = partition.range_of(3)
        assert (p.diagonal_block(3) != matrix[start:stop, start:stop]).nnz == 0


class TestAsPreconditionerInPCG:
    def test_converges_and_matches_plain_cg(self, matrix, partition):
        from repro.solvers import cg, pcg
        b = np.random.default_rng(3).standard_normal(100)
        plain = cg(matrix, b, rtol=1e-10)
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        prec = pcg(matrix, b, preconditioner=p, rtol=1e-10)
        assert prec.converged
        # The preconditioned Krylov space is different but the solution is not.
        assert np.allclose(prec.x, plain.x, atol=1e-6)
        # Block Jacobi must not blow up the iteration count on this easy problem.
        assert prec.iterations <= 2 * plain.iterations


# -- the row accessors against a one-row-at-a-time oracle ----------------------

def _sorted_unique(indices):
    return np.unique(np.asarray(list(indices), dtype=np.int64))


def forward_rows_per_row(p, indices):
    """Rows of ``M``, one padded 1 x n CSR row per index, stacked."""
    n = p.matrix.shape[0]
    rows = []
    for gi in _sorted_unique(indices):
        rank = int(p.block_partition.owner_of(gi))
        start, _ = p.block_partition.range_of(rank)
        local_row = p.diagonal_block(rank)[int(gi) - start, :]
        rows.append(sp.csr_matrix(
            (local_row.data, local_row.indices + start,
             np.array([0, local_row.nnz])), shape=(1, n)))
    if not rows:
        return sp.csr_matrix((0, n))
    return sp.vstack(rows, format="csr")


def inverse_rows_per_row(p, indices):
    """Rows of ``P = M^{-1}``, one padded 1 x n CSR row per index, stacked."""
    n = p.matrix.shape[0]
    rows = []
    for gi in _sorted_unique(indices):
        rank = int(p.block_partition.owner_of(gi))
        start, stop = p.block_partition.range_of(rank)
        data = np.linalg.inv(p.diagonal_block(rank).toarray())[gi - start, :]
        rows.append(sp.csr_matrix(
            (data, (np.zeros(data.size, dtype=int), np.arange(start, stop))),
            shape=(1, n)))
    if not rows:
        return sp.csr_matrix((0, n))
    return sp.vstack(rows, format="csr")


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got_array, expected_array = getattr(got, name), getattr(expected, name)
        assert got_array.dtype == expected_array.dtype, name
        assert got_array.tobytes() == expected_array.tobytes(), name


def zeroed_couplings(side, n_zeroed):
    """``poisson_2d(side)`` with symmetric pairs of off-diagonal entries set
    to explicit (stored) zeros; it stays symmetric positive definite."""
    a = poisson_2d(side).tocsr()
    coo = a.tocoo()
    upper = np.nonzero(coo.row < coo.col)[0][:n_zeroed]
    for entry in upper:
        i, j = int(coo.row[entry]), int(coo.col[entry])
        for r, c in ((i, j), (j, i)):
            lo, hi = a.indptr[r], a.indptr[r + 1]
            a.data[lo + int(np.nonzero(a.indices[lo:hi] == c)[0][0])] = 0.0
    return a


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(side=st.integers(2, 9), parts=st.integers(1, 40),
       solver=st.sampled_from(["direct", "ilu", "ic"]),
       n_zeroed=st.integers(0, 4), data=st.data())
def test_row_accessors_match_per_row_construction(side, parts, solver,
                                                  n_zeroed, data):
    """Byte for byte, for unsorted and repeated index sets (including the
    empty one) over up to one rank per row."""
    a = zeroed_couplings(side, n_zeroed)
    n = a.shape[0]
    p = BlockJacobiPreconditioner(block_solver=solver)
    p.setup(a, BlockRowPartition(n, min(parts, n)))
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    assert_same_csr(p.forward_rows(indices), forward_rows_per_row(p, indices))
    assert_same_csr(p.inverse_rows(np.array(indices, dtype=np.int64)),
                    inverse_rows_per_row(p, indices))


def test_row_accessors_reject_out_of_range_indices(matrix, partition):
    p = BlockJacobiPreconditioner()
    p.setup(matrix, partition)
    for rows in (p.forward_rows, p.inverse_rows):
        with pytest.raises(IndexError):
            rows([3, 100])
