"""Structural analysis of sparse matrices.

These helpers compute the quantities that, per Sec. 5 of the paper, determine
how expensive the ESR redundancy scheme is for a given matrix: the number of
non-zeros per row, the (half-)bandwidth, the fraction of non-zeros close to
the diagonal, and how many distinct partition blocks each row/column couples
to.  They are used by the matrix suite (Table 1 reproduction), the overhead
analysis and several tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class MatrixProperties:
    """Summary statistics of a sparse matrix's structure."""

    n: int
    nnz: int
    nnz_per_row_mean: float
    nnz_per_row_max: int
    half_bandwidth: int
    #: Fraction of non-zeros with |i - j| <= band_fraction_width.
    band_fraction: float
    band_fraction_width: int
    symmetric: bool
    diagonally_dominant_fraction: float



def nnz_per_row(matrix) -> np.ndarray:
    """Number of stored non-zeros in each row."""
    csr = sp.csr_matrix(matrix)
    return np.diff(csr.indptr)


def half_bandwidth(matrix) -> int:
    """Largest ``|i - j|`` over all stored non-zeros."""
    coo = sp.coo_matrix(matrix)
    if coo.nnz == 0:
        return 0
    return int(np.max(np.abs(coo.row - coo.col)))


def band_fraction(matrix, width: int) -> float:
    """Fraction of non-zeros with ``|i - j| <= width``."""
    coo = sp.coo_matrix(matrix)
    if coo.nnz == 0:
        return 1.0
    inside = np.count_nonzero(np.abs(coo.row - coo.col) <= width)
    return float(inside / coo.nnz)


def is_symmetric(matrix, tol: float = 1e-10) -> bool:
    """Numerical symmetry check."""
    csr = sp.csr_matrix(matrix)
    if csr.shape[0] != csr.shape[1]:
        return False
    diff = (csr - csr.T).tocoo()
    if diff.nnz == 0:
        return True
    scale = float(np.max(np.abs(csr.data))) if csr.nnz else 1.0
    return float(np.max(np.abs(diff.data))) <= tol * max(scale, 1.0)


def diagonally_dominant_fraction(matrix) -> float:
    """Fraction of rows with ``|a_ii| >= sum_{j != i} |a_ij|``."""
    csr = sp.csr_matrix(matrix)
    diag = np.abs(csr.diagonal())
    abs_rowsum = np.asarray(abs(csr).sum(axis=1)).ravel() - diag
    return float(np.count_nonzero(diag >= abs_rowsum - 1e-12) / csr.shape[0])


def blocks_coupled_per_row(matrix, n_parts: int) -> np.ndarray:
    """For each row, the number of *other* partition blocks its non-zeros touch.

    With the block-row distribution, a row that couples to ``c`` other blocks
    forces its owner to *receive* from ``c`` nodes; symmetrically, the owner of
    those columns must send.  The per-row histogram of this quantity predicts
    the multiplicity distribution of Eqn. (3).
    """
    from ..distributed.partition import BlockRowPartition

    csr = sp.csr_matrix(matrix)
    n = csr.shape[0]
    partition = BlockRowPartition(n, n_parts)
    owners_of_cols = partition.owner_of(np.arange(n, dtype=np.int64))
    counts = np.zeros(n, dtype=np.int64)
    indptr, indices = csr.indptr, csr.indices
    row_owner = partition.owner_of(np.arange(n, dtype=np.int64))
    for row in range(n):
        cols = indices[indptr[row]:indptr[row + 1]]
        if cols.size == 0:
            continue
        owners = owners_of_cols[cols]
        counts[row] = np.unique(owners[owners != row_owner[row]]).size
    return counts


def analyze(matrix, *, band_width: Optional[int] = None) -> MatrixProperties:
    """Compute a :class:`MatrixProperties` summary for *matrix*."""
    csr = sp.csr_matrix(matrix)
    n = csr.shape[0]
    per_row = nnz_per_row(csr)
    width = band_width if band_width is not None else max(1, n // 32)
    return MatrixProperties(
        n=n,
        nnz=int(csr.nnz),
        nnz_per_row_mean=float(per_row.mean()) if n else 0.0,
        nnz_per_row_max=int(per_row.max()) if n else 0,
        half_bandwidth=half_bandwidth(csr),
        band_fraction=band_fraction(csr, width),
        band_fraction_width=width,
        symmetric=is_symmetric(csr),
        diagonally_dominant_fraction=diagonally_dominant_fraction(csr),
    )


def estimate_condition_number(matrix, n_iterations: int = 50,
                              seed: int = 0) -> float:
    """Rough condition-number estimate via power iteration on A and A^-1 probes.

    Only used for reporting; accuracy of a factor of a few is sufficient.
    """
    csr = sp.csr_matrix(matrix).astype(np.float64)
    n = csr.shape[0]
    rng = np.random.default_rng(seed)
    # Largest eigenvalue by power iteration.
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_max = 1.0
    for _ in range(n_iterations):
        w = csr @ v
        lam_max = float(np.linalg.norm(w))
        if lam_max == 0.0:
            return np.inf
        v = w / lam_max
    # Smallest eigenvalue via inverse power iteration with a sparse solve.
    try:
        from scipy.sparse.linalg import splu

        lu = splu(csr.tocsc())
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        mu = 1.0
        for _ in range(n_iterations):
            w = lu.solve(v)
            mu = float(np.linalg.norm(w))
            if mu == 0.0:
                break
            v = w / mu
        lam_min = 1.0 / mu if mu > 0 else 0.0
    except Exception:  # pragma: no cover - factorisation may fail for huge inputs
        lam_min = 0.0
    if lam_min <= 0:
        return np.inf
    return lam_max / lam_min
