"""Tests for the block Jacobi preconditioner (the paper's setting)."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed import BlockRowPartition
from repro.matrices import build_matrix, poisson_2d
from repro.precond import (
    BlockJacobiPreconditioner,
    FactorizationError,
    PreconditionerForm,
)
from repro.precond.block_jacobi import BLOCK_SOLVERS, DENSE_INVERSE_MAX_ROWS


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

    @pytest.mark.parametrize("solver", BLOCK_SOLVERS)
    def test_without_partition_is_one_block(self, matrix, solver):
        """The block layout comes only from the partition given to setup;
        without one the whole matrix is one block."""
        p = BlockJacobiPreconditioner(block_solver=solver)
        p.setup(matrix)
        assert p.block_partition.ranges == ((0, matrix.shape[0]),)
        assert p.block_work_nnz(0) == matrix.nnz
        r = np.random.default_rng(4).standard_normal(matrix.shape[0])
        one_part = BlockJacobiPreconditioner(block_solver=solver)
        one_part.setup(matrix, BlockRowPartition(matrix.shape[0], 1))
        assert np.array_equal(p.apply(r), one_part.apply(r))

    @pytest.mark.parametrize("solver", ["magic", "ic"])
    def test_invalid_solver_rejected(self, solver):
        with pytest.raises(ValueError,
                           match=r"one of \('direct', 'ilu'\), got "
                                 f"'{solver}'"):
            BlockJacobiPreconditioner(block_solver=solver)

    @pytest.mark.parametrize("solver", ["ilu"])
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

    @pytest.mark.parametrize("solver", ["direct", "ilu"])
    def test_work_nnz(self, matrix, partition, solver):
        p = BlockJacobiPreconditioner(block_solver=solver)
        p.setup(matrix, partition)
        blocks = [slice(*partition.range_of(r)) for r in range(4)]
        expected = sum(matrix[rows, rows].nnz for rows in blocks)
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

    def test_mixed_rank_rows(self, matrix, partition):
        p = BlockJacobiPreconditioner()
        p.setup(matrix, partition)
        idx = np.array([0, 30, 99])
        rows = p.forward_rows(idx)
        assert rows.shape == (3, 100)


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
    """Rows of ``M``, one padded 1 x n CSR row per index, stacked: each a
    row of the operator its rank's block solve applies."""
    n = p.matrix.shape[0]
    rows = []
    for gi in _sorted_unique(indices):
        rank = int(p.block_partition.owner_of(gi))
        start, _ = p.block_partition.range_of(rank)
        local_row = p._applied_block(rank)[int(gi) - start, :]
        rows.append(sp.csr_matrix(
            (local_row.data, local_row.indices + start,
             np.array([0, local_row.nnz])), shape=(1, n)))
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
       solver=st.sampled_from(["direct", "ilu"]),
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


@pytest.mark.parametrize("solver", ["direct", "ilu"])
def test_rows_are_those_of_the_applied_operator(matrix, partition, solver):
    """``M`` from ``forward_rows`` inverts the application: for ILU block
    solves its rows are those of the factorization's product, not of the
    exact blocks."""
    p = BlockJacobiPreconditioner(block_solver=solver)
    p.setup(matrix, partition)
    everything = np.arange(matrix.shape[0])
    r = np.random.default_rng(7).standard_normal(matrix.shape[0])
    z = p.apply(r)
    assert np.allclose(p.forward_rows(everything) @ z, r, rtol=0, atol=1e-12)
    if solver == "direct":
        start, stop = partition.range_of(3)
        assert (p._applied_block(3) != matrix[start:stop, start:stop]).nnz == 0


def test_applied_operators_are_rebuilt_by_setup(partition):
    """The ILU operator is built on first use and dropped by ``setup``."""
    p = BlockJacobiPreconditioner(block_solver="ilu")
    p.setup(poisson_2d(10), partition)
    first = p.forward_rows([0])
    raised = (poisson_2d(10) + sp.identity(100)).tocsr()
    p.setup(raised, partition)
    assert p.forward_rows([0])[0, 0] > first[0, 0]


def test_row_accessors_reject_out_of_range_indices(matrix, partition):
    p = BlockJacobiPreconditioner()
    p.setup(matrix, partition)
    with pytest.raises(IndexError):
        p.forward_rows([3, 100])


# -- the two exact-solve kernels: dense inverse up to 128 rows, SuperLU above --

#: Relative tolerance of the dense kernel against the SuperLU oracle, fixed
#: before measuring (the largest difference seen was 1.4e-15).
ORACLE_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def _source(name):
    if name == "poisson_2d":
        return poisson_2d(33)  # n = 1089
    return build_matrix(name, n=1200)


def leading_block(name, n):
    """The leading ``n x n`` principal submatrix of *name*'s matrix (still
    symmetric positive definite)."""
    a = _source(name)
    assert a.shape[0] >= n
    return sp.csr_matrix(a[:n, :n])


def set_up(name, block_rows, parts=4, solver="direct"):
    """A preconditioner over *parts* blocks of exactly *block_rows* rows."""
    a = leading_block(name, block_rows * parts)
    p = BlockJacobiPreconditioner(block_solver=solver)
    p.setup(a, BlockRowPartition(a.shape[0], parts))
    return a, p


def superlu_oracle(a, partition, rank, b):
    start, stop = partition.range_of(rank)
    return splu(sp.csc_matrix(a[start:stop, start:stop])).solve(b)


MATRICES = ["poisson_2d", "M1", "M3", "M8"]
#: Block sizes at the limit and one well inside each side of it.
BLOCK_ROWS = [32, 128, 129, 256]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_kernel_is_chosen_by_block_size(block_rows):
    _, p = set_up("poisson_2d", block_rows)
    dense = block_rows <= DENSE_INVERSE_MAX_ROWS
    assert sorted(p._inverses) == ([0, 1, 2, 3] if dense else [])
    for rank, inverse in p._inverses.items():
        assert p._solvers[rank] == inverse.dot
        assert inverse.shape == (block_rows, block_rows)


def test_each_size_run_gets_its_own_kernel():
    """n = 8 * 128 + 4: four blocks of 129 rows on SuperLU, then four of
    128 rows applying slices of one stacked inverse."""
    a = leading_block("poisson_2d", 8 * 128 + 4)
    p = BlockJacobiPreconditioner()
    p.setup(a, BlockRowPartition(a.shape[0], 8))
    assert p.block_partition.sizes().tolist() == [129] * 4 + [128] * 4
    assert sorted(p._inverses) == [4, 5, 6, 7]
    stack = p._inverses[4].base
    assert stack is not None and stack.shape == (4, 128, 128)
    assert all(p._inverses[rank].base is stack for rank in (5, 6, 7))


@pytest.mark.parametrize("solver", ["ilu"])
def test_inexact_solvers_keep_their_factorizations(solver):
    _, p = set_up("poisson_2d", 32, solver=solver)
    assert p._inverses == {}


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@pytest.mark.parametrize("name", MATRICES)
def test_apply_block_matches_superlu_oracle(name, block_rows):
    """Each kernel solves its block to the oracle's tolerance, and column j
    of a 2-D application is bit-identical to the 1-D application of it."""
    a, p = set_up(name, block_rows)
    rng = np.random.default_rng(block_rows)
    for rank in range(4):
        b = rng.standard_normal(block_rows)
        expected = superlu_oracle(a, p.block_partition, rank, b)
        got = p.apply_block(rank, b)
        assert got.shape == expected.shape
        assert (np.max(np.abs(got - expected))
                <= ORACLE_RTOL * np.max(np.abs(expected)))
        block = rng.standard_normal((block_rows, 3))
        out = p.apply_block(rank, block)
        for j in range(block.shape[1]):
            single = p.apply_block(rank, block[:, j].copy())
            assert out[:, j].tobytes() == single.tobytes()


@pytest.mark.parametrize("name", ["poisson_2d", "M3"])
def test_stacked_inverse_is_bit_identical_to_per_block_inverses(name):
    """One batched ``np.linalg.inv`` per size run gives each block the bits
    a separate ``np.linalg.inv(A_ii)`` gives it (n = 8 * 62 + 5: blocks of
    63 and 62 rows in two runs)."""
    a = leading_block(name, 8 * 62 + 5)
    p = BlockJacobiPreconditioner()
    p.setup(a, BlockRowPartition(a.shape[0], 8))
    for rank in range(8):
        start, stop = p.block_partition.range_of(rank)
        alone = np.linalg.inv(a[start:stop, start:stop].toarray())
        assert p._inverses[rank].tobytes() == alone.tobytes()


def singular_block_matrix(side, row):
    """``poisson_2d(side)`` with row and column *row* zeroed: the diagonal
    block owning *row* is exactly singular."""
    a = poisson_2d(side).tolil()
    a[row, :] = 0.0
    a[:, row] = 0.0
    a = a.tocsr()
    a.eliminate_zeros()
    return a


#: (preconditioner, side, row): 4 blocks of 36 rows (dense kernel, ILU), or
#: of 144 rows (SuperLU); each zeroes a row of rank 2's block.
SINGULAR = {"dense": ("block_jacobi", 12, 2 * 36 + 5),
            "superlu": ("block_jacobi", 24, 2 * 144 + 5),
            "ilu": ("block_jacobi_ilu", 12, 2 * 36 + 5)}


@pytest.mark.parametrize("kernel", sorted(SINGULAR))
def test_singular_block_fails_loudly_before_any_charge(kernel):
    """Both exact kernels and the ILU raise the same error, naming the
    rank, at set-up."""
    import repro
    preconditioner, side, row = SINGULAR[kernel]
    problem = repro.distribute_problem(singular_block_matrix(side, row),
                                       np.ones(side * side), n_nodes=4,
                                       seed=0)
    before = problem.cluster.ledger.snapshot()
    with pytest.raises(FactorizationError,
                       match="diagonal block of rank 2 is exactly singular"):
        repro.solve(problem, solver="resilient_pcg", phi=2,
                    preconditioner=preconditioner, failures=[(3, [1])])
    assert problem.cluster.ledger.snapshot() == before


@pytest.mark.parametrize("block_rows", [128, 129])
@pytest.mark.parametrize("name", ["poisson_2d", "M3"])
def test_recovery_on_each_kernel_matches_failure_free(name, block_rows):
    """Three simultaneous failures, then two more: the recovered solve takes
    the failure-free iteration count and lands on the failure-free
    solution."""
    import repro
    a = leading_block(name, block_rows * 8)

    def run(failures):
        problem = repro.distribute_problem(a, n_nodes=8, seed=0)
        return repro.solve(problem, solver="resilient_pcg", phi=3,
                           failures=failures)

    failure_free = run([])
    recovered = run([(8, [1, 2, 3]), (16, [5, 6])])
    assert len(recovered.recoveries) == 2
    assert failure_free.converged and recovered.converged
    assert recovered.iterations == failure_free.iterations
    gap = np.linalg.norm(recovered.x - failure_free.x)
    assert gap <= 1e-12 * np.linalg.norm(failure_free.x)
