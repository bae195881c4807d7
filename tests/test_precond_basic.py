"""Tests for identity, Jacobi preconditioners and the factory."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distributed import BlockRowPartition
from repro.matrices import poisson_2d
from repro.precond import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    PreconditionerForm,
    make_preconditioner,
    PRECONDITIONERS,
)


@pytest.fixture
def matrix():
    return poisson_2d(8)  # n = 64


class TestIdentity:
    def test_apply_is_copy(self, matrix):
        p = IdentityPreconditioner()
        p.setup(matrix)
        r = np.arange(64.0)
        z = p.apply(r)
        assert np.array_equal(z, r)
        assert z is not r

    def test_apply_block(self, matrix):
        p = IdentityPreconditioner()
        p.setup(matrix, BlockRowPartition(64, 4))
        block = np.ones(16)
        out = p.apply_block(0, block)
        assert np.array_equal(out, block)
        assert not np.shares_memory(out, block)

    def test_apply_block_without_partition_raises(self, matrix):
        p = IdentityPreconditioner()
        p.setup(matrix)
        with pytest.raises(RuntimeError):
            p.apply_block(0, np.ones(16))

    def test_form_and_rows(self, matrix):
        p = IdentityPreconditioner()
        p.setup(matrix)
        assert p.form is PreconditionerForm.IDENTITY
        rows = p.forward_rows(np.array([3, 10]))
        assert rows.shape == (2, 64)
        assert rows[0, 3] == 1.0 and rows[1, 10] == 1.0
        assert (p.inverse_rows(np.array([3])) != p.forward_rows(np.array([3]))).nnz == 0

    def test_split_factor_is_identity(self, matrix):
        p = IdentityPreconditioner()
        p.setup(matrix)
        assert (p.split_factor() != sp.identity(64)).nnz == 0

    def test_is_block_diagonal(self, matrix):
        p = IdentityPreconditioner()
        p.setup(matrix)
        assert p.is_block_diagonal


class TestJacobi:
    def test_apply_divides_by_diagonal(self, matrix):
        p = JacobiPreconditioner()
        p.setup(matrix)
        r = np.ones(64)
        assert np.allclose(p.apply(r), 1.0 / matrix.diagonal())

    def test_apply_block_matches_global(self, matrix):
        partition = BlockRowPartition(64, 4)
        p = JacobiPreconditioner()
        p.setup(matrix, partition)
        r = np.arange(64.0) + 1.0
        z = p.apply(r)
        for rank in range(4):
            start, stop = partition.range_of(rank)
            assert np.allclose(p.apply_block(rank, r[start:stop]), z[start:stop])

    def test_apply_block_without_partition_raises(self, matrix):
        p = JacobiPreconditioner()
        p.setup(matrix)
        with pytest.raises(RuntimeError):
            p.apply_block(0, np.ones(16))

    def test_zero_diagonal_rejected(self):
        bad = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        p = JacobiPreconditioner()
        with pytest.raises(ValueError):
            p.setup(bad)

    def test_rows(self, matrix):
        p = JacobiPreconditioner()
        p.setup(matrix)
        idx = np.array([0, 5])
        fwd = p.forward_rows(idx)
        inv = p.inverse_rows(idx)
        d = matrix.diagonal()
        assert fwd[0, 0] == pytest.approx(d[0])
        assert inv[1, 5] == pytest.approx(1.0 / d[5])

    def test_form(self, matrix):
        p = JacobiPreconditioner()
        p.setup(matrix)
        assert p.form is PreconditionerForm.INVERSE

    def test_split_factor(self, matrix):
        p = JacobiPreconditioner()
        p.setup(matrix)
        factor = p.split_factor()
        assert np.allclose((factor @ factor.T).diagonal(), matrix.diagonal())

    def test_improves_cg_iterations(self):
        # Badly scaled diagonal: Jacobi should help plain CG substantially.
        from repro.solvers import cg, pcg
        rng = np.random.default_rng(0)
        scaling = sp.diags(10.0 ** rng.uniform(0, 3, size=100))
        a = scaling @ poisson_2d(10) @ scaling
        b = rng.standard_normal(100)
        plain = cg(a, b, rtol=1e-8, max_iterations=3000)
        jacobi = JacobiPreconditioner()
        jacobi.setup(sp.csr_matrix(a))
        prec = pcg(a, b, preconditioner=jacobi, rtol=1e-8, max_iterations=3000)
        assert prec.iterations < plain.iterations


class TestBaseProtocol:
    def test_setup_required_before_use(self):
        p = JacobiPreconditioner()
        with pytest.raises(RuntimeError):
            _ = p.matrix

    def test_describe(self, matrix):
        p = JacobiPreconditioner()
        assert "jacobi" in p.describe()


class TestFactory:
    @pytest.mark.parametrize("name", ["identity", "none", "jacobi", "block_jacobi",
                                      "block_jacobi_ilu", "ssor"])
    def test_known_names(self, name, matrix):
        p = make_preconditioner(name)
        p.setup(matrix, BlockRowPartition(64, 4))
        z = p.apply(np.ones(64))
        assert z.shape == (64,)
        assert np.all(np.isfinite(z))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_preconditioner("does_not_exist")

    def test_every_preconditioner_is_described(self):
        descriptions = PRECONDITIONERS.descriptions()
        for name in PRECONDITIONERS:
            assert descriptions[name]

    def test_kwargs_forwarded(self, matrix):
        p = make_preconditioner("ssor", omega=1.3)
        assert p.omega == pytest.approx(1.3)


class TestMultiRhsApplyBlock:
    """The 2-D ``apply_block`` path: one (n_i, k) block per application,
    bit-identical per column to the 1-D path (the block-PCG contract)."""

    K = 3

    def _make(self, name, matrix, partition):
        p = make_preconditioner(name)
        p.setup(matrix, partition)
        return p

    @pytest.mark.parametrize("name", ["identity", "jacobi", "block_jacobi"])
    def test_columns_bit_identical_to_1d_path(self, matrix, name):
        partition = BlockRowPartition(64, 4)
        p = self._make(name, matrix, partition)
        rng = np.random.default_rng(0)
        for rank in range(4):
            block = rng.standard_normal((partition.size_of(rank), self.K))
            out = p.apply_block(rank, block)
            assert out.shape == block.shape
            for j in range(self.K):
                single = p.apply_block(rank, np.ascontiguousarray(block[:, j]))
                assert np.array_equal(out[:, j], single)

    @pytest.mark.parametrize("solver", ["direct", "ilu", "ic"])
    def test_block_jacobi_inner_solvers(self, matrix, solver):
        from repro.precond import BlockJacobiPreconditioner

        partition = BlockRowPartition(64, 4)
        p = BlockJacobiPreconditioner(block_solver=solver)
        p.setup(matrix, partition)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((partition.size_of(0), self.K))
        out = p.apply_block(0, block)
        for j in range(self.K):
            assert np.array_equal(
                out[:, j],
                p.apply_block(0, np.ascontiguousarray(block[:, j])),
            )

    @pytest.mark.parametrize("name", ["identity", "jacobi", "block_jacobi"])
    def test_2d_wrong_row_count_rejected(self, matrix, name):
        """Every block-diagonal ``apply_block`` checks the rank and the
        block's rows against the partition: a one-row block is not
        broadcast, and ranks -1 and N do not exist."""
        partition = BlockRowPartition(64, 4)
        p = self._make(name, matrix, partition)
        for block in (np.ones((7, self.K)), np.ones((1, self.K)),
                      np.ones((1, 1)), np.ones(1), np.ones(7),
                      np.ones((16, self.K, 1)), np.float64(1.0)):
            with pytest.raises(ValueError):
                p.apply_block(0, block)
        for rank in (-1, partition.n_parts):
            for block in (np.ones(16), np.ones((16, self.K))):
                with pytest.raises(ValueError):
                    p.apply_block(rank, block)
