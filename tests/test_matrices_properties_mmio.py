"""Tests for matrix structural analysis and Matrix Market I/O."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import generators as gen
from repro.matrices.mmio import (
    MatrixMarketError,
    read_matrix_market,
    read_vector,
    write_matrix_market,
)
from repro.matrices.properties import (
    analyze,
    band_fraction,
    blocks_coupled_per_row,
    diagonally_dominant_fraction,
    estimate_condition_number,
    half_bandwidth,
    is_symmetric,
    nnz_per_row,
)


class TestProperties:
    def test_nnz_per_row(self):
        a = gen.poisson_1d(5)
        assert list(nnz_per_row(a)) == [2, 3, 3, 3, 2]

    def test_half_bandwidth_tridiagonal(self):
        assert half_bandwidth(gen.poisson_1d(10)) == 1

    def test_half_bandwidth_2d(self):
        assert half_bandwidth(gen.poisson_2d(8)) == 8

    def test_band_fraction(self):
        a = gen.poisson_2d(8)
        assert band_fraction(a, 8) == pytest.approx(1.0)
        assert band_fraction(a, 0) < 1.0

    def test_is_symmetric(self):
        assert is_symmetric(gen.poisson_2d(6))
        assert not is_symmetric(sp.csr_matrix(np.triu(np.ones((4, 4)))))

    def test_diagonally_dominant_fraction(self):
        a = gen.diagonally_dominant_spd(100, seed=0)
        assert diagonally_dominant_fraction(a) == pytest.approx(1.0)

    def test_blocks_coupled_per_row(self):
        a = gen.poisson_1d(16)
        coupled = blocks_coupled_per_row(a, 4)
        # only rows at block boundaries couple to another block
        assert coupled.max() == 1
        assert coupled.sum() == 6  # 3 boundaries x 2 rows

    def test_analyze_summary(self):
        a = gen.poisson_2d(10)
        props = analyze(a)
        assert props.n == 100
        assert props.nnz == a.nnz
        assert props.symmetric
        assert props.half_bandwidth == 10
        assert 0 < props.nnz_per_row_mean <= 5

    def test_condition_number_estimate(self):
        a = gen.poisson_1d(50)
        kappa = estimate_condition_number(a)
        # exact condition number of the 1-D Laplacian is ~ (2/pi*(n+1))^2
        assert 100 < kappa < 10_000


class TestMatrixMarket:
    def test_roundtrip_symmetric(self, tmp_path):
        a = gen.poisson_2d(6)
        path = tmp_path / "matrix.mtx"
        write_matrix_market(path, a, symmetric=True, comment="test matrix")
        b = read_matrix_market(path)
        assert (a != b).nnz == 0

    def test_roundtrip_general(self, tmp_path):
        rng = np.random.default_rng(0)
        a = sp.random(20, 20, density=0.2, random_state=0, format="csr")
        path = tmp_path / "general.mtx"
        write_matrix_market(path, a, symmetric=False)
        b = read_matrix_market(path)
        assert np.allclose((a - b).toarray(), 0.0)

    def test_gzip_roundtrip(self, tmp_path):
        a = gen.poisson_1d(10)
        path = tmp_path / "matrix.mtx.gz"
        write_matrix_market(path, a)
        b = read_matrix_market(path)
        assert (a != b).nnz == 0

    def test_pattern_matrix(self, tmp_path):
        path = tmp_path / "pattern.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 3\n1 1\n2 2\n3 1\n"
        )
        a = read_matrix_market(path)
        assert a.nnz == 3
        assert a[2, 0] == 1.0

    def test_rejects_non_mm_file(self, tmp_path):
        path = tmp_path / "junk.mtx"
        path.write_text("not a matrix market file\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_rejects_unsupported_format(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "trunc.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 5.0\n"
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_symmetric_output_requires_square(self, tmp_path):
        rect = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(MatrixMarketError):
            write_matrix_market(tmp_path / "x.mtx", rect, symmetric=True)

    def test_read_plain_vector(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1.5\n2.5\n-3.0\n")
        v = read_vector(path)
        assert np.allclose(v, [1.5, 2.5, -3.0])

    def test_read_array_vector(self, tmp_path):
        path = tmp_path / "vec.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n3 1\n1.0\n2.0\n3.0\n"
        )
        v = read_vector(path)
        assert np.allclose(v, [1.0, 2.0, 3.0])
