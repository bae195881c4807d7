"""Incomplete Cholesky factorisation IC(0).

``ic0`` computes a lower-triangular factor ``L`` with the sparsity pattern of
the lower triangle of ``A`` such that ``L L^T ~= A``.  It is the inner solver
of the ``block_jacobi_ic`` preconditioner, mirroring the ILU-based local
solves the paper uses for the reconstruction subsystem (Sec. 6).
"""

from __future__ import annotations


import numpy as np
import scipy.sparse as sp


class FactorizationError(RuntimeError):
    """Raised when a factorisation of a preconditioner block breaks down:
    an incomplete factorisation, or an exact block solve of an exactly
    singular block."""


def ic0(matrix, *, shift: float = 0.0, max_shift_attempts: int = 8
        ) -> sp.csr_matrix:
    """Incomplete Cholesky factorisation with zero fill-in.

    Parameters
    ----------
    matrix:
        SPD sparse matrix.
    shift:
        Initial diagonal shift ``alpha`` applied as ``A + alpha*diag(A)``.
        If a pivot breaks down, the shift is increased geometrically up to
        ``max_shift_attempts`` times (the standard "shifted IC" remedy).

    Returns
    -------
    scipy.sparse.csr_matrix
        Lower-triangular factor ``L`` with ``L L^T ~= A``.
    """
    a = sp.csr_matrix(matrix).astype(np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    base_diag = a.diagonal()
    # Shift relative to the typical diagonal magnitude so rows with a
    # (near-)zero diagonal entry still get a meaningful boost.
    scale = np.maximum(np.abs(base_diag), float(np.mean(np.abs(base_diag))) or 1.0)
    attempt_shift = shift
    for _attempt in range(max_shift_attempts + 1):
        try:
            return _ic0_once(a, attempt_shift * scale)
        except FactorizationError:
            attempt_shift = max(attempt_shift * 4.0, 1e-3)
    raise FactorizationError(
        f"IC(0) broke down even with diagonal shift {attempt_shift:g}"
    )


def _ic0_once(a: sp.csr_matrix, diag_shift: np.ndarray) -> sp.csr_matrix:
    """One IC(0) attempt with a fixed diagonal shift (may raise)."""
    n = a.shape[0]
    lower = sp.tril(a, k=0).tocsr()
    if diag_shift is not None and np.any(diag_shift != 0.0):
        lower = (lower + sp.diags(diag_shift)).tocsr()
    lower.sort_indices()
    indptr, indices, data = lower.indptr, lower.indices, lower.data.copy()

    # Row-based up-looking IC(0): for each row i, update entries (i, j<=i)
    # using previously computed rows, keeping only existing non-zeros.
    # Dense work row keeps the implementation simple and O(nnz * row_nnz).
    row_values = {}
    for i in range(n):
        start, stop = indptr[i], indptr[i + 1]
        cols = indices[start:stop]
        vals = data[start:stop].copy()
        if cols.size == 0 or cols[-1] != i:
            raise FactorizationError(f"row {i} has no diagonal entry")
        entries = dict(zip(cols.tolist(), vals.tolist()))
        for pos, j in enumerate(cols[:-1]):
            # L[i, j] = (A[i, j] - sum_k L[i, k] L[j, k]) / L[j, j]
            lj = row_values[j]
            s = entries[j]
            for k, lik in list(entries.items()):
                if k >= j:
                    continue
                ljk = lj.get(k)
                if ljk is not None:
                    s -= lik * ljk
            ljj = lj[j]
            entries[j] = s / ljj
        # Diagonal entry.
        s = entries[i]
        for k, lik in entries.items():
            if k < i:
                s -= lik * lik
        if s <= 0.0:
            raise FactorizationError(f"non-positive pivot at row {i}: {s:g}")
        entries[i] = np.sqrt(s)
        row_values[i] = entries
        data[start:stop] = [entries[int(c)] for c in cols]

    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def ic0_solve(factor: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = rhs`` for a lower-triangular IC(0) factor."""
    from scipy.sparse.linalg import spsolve_triangular

    y = spsolve_triangular(factor, rhs, lower=True)
    return spsolve_triangular(factor.T.tocsr(), y, lower=False)


def factorization_residual(matrix, factor: sp.csr_matrix) -> float:
    """Relative Frobenius residual ``||A - L L^T||_F / ||A||_F`` (diagnostic)."""
    a = sp.csr_matrix(matrix)
    approx = factor @ factor.T
    num = sp.linalg.norm(a - approx)
    den = sp.linalg.norm(a)
    return float(num / den) if den > 0 else float(num)
