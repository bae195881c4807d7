"""Synthetic SPD sparse matrix generators.

The paper evaluates on eight SPD matrices from the SuiteSparse collection
(Table 1) spanning fluid dynamics, electromagnetics, circuit simulation,
thermal and structural problems.  Those files are not available offline, so
this module provides generators that produce matrices with the same
*character*: discretisation stencils on structured grids (narrow, regular
bands), vector-valued 3-D mechanics discretisations (wide, dense bands with
tens of non-zeros per row) and irregular graph-Laplacian-like patterns with
very few non-zeros per row.  All generators return symmetric positive
definite CSR matrices.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..utils.rng import as_rng

__all__ = [
    "poisson_1d",
    "poisson_2d",
    "poisson_2d_9point",
    "poisson_3d",
    "anisotropic_diffusion_2d",
    "graph_laplacian_spd",
    "unstructured_mesh_spd",
    "elasticity_3d",
    "banded_spd",
    "diagonally_dominant_spd",
    "grid_dimensions_for",
]


def _clean_csr(matrix) -> sp.csr_matrix:
    """Convert to CSR and drop explicitly stored zeros.

    ``scipy.sparse.kron`` can produce BSR output with explicitly stored zero
    entries; those would inflate the non-zero counts that drive the cost model
    and the SpMV communication pattern, so every generator scrubs them.
    """
    out = sp.csr_matrix(matrix)
    out.eliminate_zeros()
    out.sort_indices()
    return out


# ---------------------------------------------------------------------------
# structured scalar stencils
# ---------------------------------------------------------------------------

def poisson_1d(n: int) -> sp.csr_matrix:
    """Standard 1-D Laplacian (tridiagonal ``[-1, 2, -1]``)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    diags = [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)]
    return sp.diags(diags, offsets=[-1, 0, 1], format="csr")


def poisson_2d(nx: int, ny: Optional[int] = None) -> sp.csr_matrix:
    """5-point Laplacian on an ``nx x ny`` grid (lexicographic ordering)."""
    ny = nx if ny is None else ny
    tx = poisson_1d(nx)
    ty = poisson_1d(ny)
    a = sp.kron(sp.identity(ny), tx) + sp.kron(ty, sp.identity(nx))
    return _clean_csr(a)


def _shift_1d(n: int, offset: int) -> sp.csr_matrix:
    """Shift operator: ones on the *offset* diagonal of an ``n x n`` matrix."""
    if offset == 0:
        return sp.identity(n, format="csr")
    m = n - abs(offset)
    if m <= 0:
        return sp.csr_matrix((n, n))
    return sp.diags([np.ones(m)], offsets=[offset], shape=(n, n), format="csr")


def poisson_2d_9point(nx: int, ny: Optional[int] = None) -> sp.csr_matrix:
    """9-point (compact) Laplacian on an ``nx x ny`` grid.

    Slightly denser rows than the 5-point stencil (up to 9 non-zeros), which
    matches the ~7 nnz/row of matrices like ``parabolic_fem``.
    """
    ny = nx if ny is None else ny
    n = nx * ny
    a = sp.csr_matrix((n, n))
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if di == 0 and dj == 0:
                weight = 20.0 / 6.0
            elif di == 0 or dj == 0:
                weight = -4.0 / 6.0
            else:
                weight = -1.0 / 6.0
            a = a + weight * sp.kron(_shift_1d(ny, dj), _shift_1d(nx, di))
    return _clean_csr(a)


def poisson_3d(nx: int, ny: Optional[int] = None, nz: Optional[int] = None
               ) -> sp.csr_matrix:
    """7-point Laplacian on an ``nx x ny x nz`` grid."""
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    tx, ty, tz = poisson_1d(nx), poisson_1d(ny), poisson_1d(nz)
    ix, iy, iz = sp.identity(nx), sp.identity(ny), sp.identity(nz)
    a = (
        sp.kron(sp.kron(iz, iy), tx)
        + sp.kron(sp.kron(iz, ty), ix)
        + sp.kron(sp.kron(tz, iy), ix)
    )
    return _clean_csr(a)


def anisotropic_diffusion_2d(nx: int, ny: Optional[int] = None,
                             epsilon: float = 0.01, theta: float = 0.0
                             ) -> sp.csr_matrix:
    """Rotated anisotropic diffusion operator (9-point stencil).

    ``epsilon`` is the anisotropy ratio and ``theta`` the rotation angle; the
    resulting matrices are notoriously hard for simple preconditioners and are
    used in the preconditioner unit tests.
    """
    ny = nx if ny is None else ny
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    c, s = math.cos(theta), math.sin(theta)
    cxx = c * c + epsilon * s * s
    cyy = s * s + epsilon * c * c
    cxy = (1.0 - epsilon) * c * s

    n = nx * ny

    def idx(i: int, j: int) -> int:
        return j * nx + i

    rows, cols, vals = [], [], []

    def add(r: int, c_: int, v: float) -> None:
        rows.append(r)
        cols.append(c_)
        vals.append(v)

    for j in range(ny):
        for i in range(nx):
            center = idx(i, j)
            add(center, center, 2.0 * cxx + 2.0 * cyy)
            if i > 0:
                add(center, idx(i - 1, j), -cxx)
            if i < nx - 1:
                add(center, idx(i + 1, j), -cxx)
            if j > 0:
                add(center, idx(i, j - 1), -cyy)
            if j < ny - 1:
                add(center, idx(i, j + 1), -cyy)
            # cross-derivative couplings
            if i > 0 and j > 0:
                add(center, idx(i - 1, j - 1), -cxy / 2.0)
            if i < nx - 1 and j < ny - 1:
                add(center, idx(i + 1, j + 1), -cxy / 2.0)
            if i > 0 and j < ny - 1:
                add(center, idx(i - 1, j + 1), cxy / 2.0)
            if i < nx - 1 and j > 0:
                add(center, idx(i + 1, j - 1), cxy / 2.0)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    # Symmetrise (boundary truncation of the cross terms breaks exact symmetry)
    a = (a + a.T) * 0.5
    # Ensure SPD by adding a small multiple of the identity if needed.
    a = a + sp.identity(n) * 1e-8
    return _clean_csr(a)


# ---------------------------------------------------------------------------
# irregular patterns
# ---------------------------------------------------------------------------

def graph_laplacian_spd(n: int, avg_degree: float = 4.0, *,
                        long_range_fraction: float = 0.05,
                        shift: float = 1e-2,
                        seed: Optional[int] = None) -> sp.csr_matrix:
    """SPD matrix built from a random graph Laplacian (circuit-like pattern).

    Most edges connect nearby indices (as after a bandwidth-reducing
    ordering), a small ``long_range_fraction`` connects arbitrary index pairs.
    The result has ~``avg_degree + 1`` non-zeros per row -- the regime of
    ``G3_circuit``/``thermal2`` where the ESR redundancy traffic is largest
    relative to compute.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be positive, got {avg_degree}")
    rng = as_rng(seed)
    n_edges = int(round(avg_degree * n / 2.0))

    # Chain backbone keeps the graph connected.
    src = [np.arange(n - 1)]
    dst = [np.arange(1, n)]
    remaining = max(n_edges - (n - 1), 0)

    n_long = int(round(remaining * long_range_fraction))
    n_short = remaining - n_long
    if n_short > 0:
        base = rng.integers(0, n - 1, size=n_short)
        span = 1 + rng.poisson(3.0, size=n_short)
        src.append(base)
        dst.append(np.minimum(base + span, n - 1))
    if n_long > 0:
        src.append(rng.integers(0, n, size=n_long))
        dst.append(rng.integers(0, n, size=n_long))

    i = np.concatenate(src)
    j = np.concatenate(dst)
    mask = i != j
    i, j = i[mask], j[mask]
    w = 0.5 + rng.random(i.size)

    adj = sp.csr_matrix((w, (i, j)), shape=(n, n))
    adj = adj + adj.T
    degree = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(degree) - adj
    return sp.csr_matrix(lap + shift * sp.identity(n))


def unstructured_mesh_spd(n: int, target_nnz_per_row: float = 7.0, *,
                          seed: Optional[int] = None,
                          shift: float = 1e-2) -> sp.csr_matrix:
    """SPD matrix mimicking an unstructured FEM mesh after reordering.

    Rows couple to a handful of neighbours at random but mostly *local*
    index distances (geometric decay), producing a ragged band like
    ``thermal2`` or ``offshore``.
    """
    if target_nnz_per_row < 3:
        raise ValueError("target_nnz_per_row must be >= 3")
    rng = as_rng(seed)
    avg_degree = target_nnz_per_row - 1.0
    n_edges = int(round(avg_degree * n / 2.0))

    src = [np.arange(n - 1)]
    dst = [np.arange(1, n)]
    remaining = max(n_edges - (n - 1), 0)
    if remaining > 0:
        base = rng.integers(0, n, size=remaining)
        # geometric index distances: mostly close, occasionally further away
        span = rng.geometric(p=0.02, size=remaining)
        sign = rng.choice([-1, 1], size=remaining)
        other = np.clip(base + sign * span, 0, n - 1)
        src.append(base)
        dst.append(other)
    i = np.concatenate(src)
    j = np.concatenate(dst)
    mask = i != j
    i, j = i[mask], j[mask]
    w = 0.5 + rng.random(i.size)

    adj = sp.csr_matrix((w, (i, j)), shape=(n, n))
    adj = adj + adj.T
    degree = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(degree) - adj
    return sp.csr_matrix(lap + shift * sp.identity(n))


# ---------------------------------------------------------------------------
# vector-valued (structural mechanics style) problems
# ---------------------------------------------------------------------------

def elasticity_3d(nx: int, ny: Optional[int] = None, nz: Optional[int] = None,
                  *, dofs_per_node: int = 3, neighbor_radius: int = 1,
                  coupling: float = 0.45,
                  seed: Optional[int] = None) -> sp.csr_matrix:
    """SPD matrix mimicking a 3-D solid-mechanics discretisation.

    Grid vertices carry ``dofs_per_node`` unknowns each; every vertex couples
    to all grid neighbours within the given Chebyshev ``neighbor_radius``
    (radius 1 = 27-point stencil) with small dense ``dofs x dofs`` blocks.
    The result has wide, dense bands and tens of non-zeros per row, like the
    structural matrices ``Emilia_923``, ``Geo_1438``, ``Serena`` and
    ``audikw_1`` in Table 1 -- the favourable regime for the ESR scheme.

    Diagonal dominance (hence positive definiteness) is enforced by scaling
    the off-diagonal blocks relative to the accumulated row sums.  The
    construction draws nothing at random; *seed* is accepted so the suite's
    builders share one signature.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if dofs_per_node < 1:
        raise ValueError("dofs_per_node must be >= 1")
    if neighbor_radius < 1:
        raise ValueError("neighbor_radius must be >= 1")
    if not 0 < coupling < 1:
        raise ValueError("coupling must lie strictly between 0 and 1")

    n_vertices = nx * ny * nz
    d = dofs_per_node
    n = n_vertices * d

    r = neighbor_radius
    # Vertex-to-vertex coupling: sum of shift operators over the neighbour
    # offsets, weighted by -coupling / dist^2.
    adjacency = sp.csr_matrix((n_vertices, n_vertices))
    for dk in range(-r, r + 1):
        for dj in range(-r, r + 1):
            for di in range(-r, r + 1):
                if di == 0 and dj == 0 and dk == 0:
                    continue
                dist = max(abs(di), abs(dj), abs(dk))
                weight = -coupling / (dist * dist)
                shift = sp.kron(
                    _shift_1d(nz, dk),
                    sp.kron(_shift_1d(ny, dj), _shift_1d(nx, di)),
                )
                adjacency = adjacency + weight * shift
    # A fixed (symmetric positive) block pattern shared by all edges keeps the
    # construction fast and the global matrix exactly symmetric.
    base_block = np.eye(d) + 0.3 * np.ones((d, d))
    a = sp.kron(adjacency, sp.csr_matrix(base_block), format="csr")
    a = (a + a.T) * 0.5
    # Diagonal: strictly dominate the (negative) off-diagonal row sums.
    offdiag_abs_rowsum = np.asarray(abs(a).sum(axis=1)).ravel()
    diag = offdiag_abs_rowsum * (1.0 + 0.05) + 1.0
    a = a + sp.diags(diag)
    return _clean_csr(a)


# ---------------------------------------------------------------------------
# generic random SPD matrices
# ---------------------------------------------------------------------------

def banded_spd(n: int, half_bandwidth: int, *, fill: float = 0.6,
               seed: Optional[int] = None) -> sp.csr_matrix:
    """Random SPD matrix with all non-zeros inside a fixed band.

    ``fill`` is the expected fraction of in-band entries that are non-zero.
    Used by the property tests and by the Sec. 5 band-condition analysis
    (a matrix that is "not too sparse within a bandwidth of ceil(phi n / 2N)"
    incurs no extra ESR latency).
    """
    if half_bandwidth < 1 or half_bandwidth >= n:
        raise ValueError(
            f"half_bandwidth must be in [1, n), got {half_bandwidth} for n={n}"
        )
    if not 0 < fill <= 1:
        raise ValueError(f"fill must lie in (0, 1], got {fill}")
    rng = as_rng(seed)
    rows, cols, vals = [], [], []
    for offset in range(1, half_bandwidth + 1):
        m = n - offset
        mask = rng.random(m) < fill
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        v = -(0.2 + 0.8 * rng.random(idx.size))
        rows.append(idx)
        cols.append(idx + offset)
        vals.append(v)
    if rows:
        i = np.concatenate(rows)
        j = np.concatenate(cols)
        v = np.concatenate(vals)
        upper = sp.csr_matrix((v, (i, j)), shape=(n, n))
    else:
        upper = sp.csr_matrix((n, n))
    a = upper + upper.T
    offdiag_abs_rowsum = np.asarray(abs(a).sum(axis=1)).ravel()
    a = a + sp.diags(offdiag_abs_rowsum + 1.0)
    return sp.csr_matrix(a)


def diagonally_dominant_spd(n: int, nnz_per_row: int = 5, *,
                            seed: Optional[int] = None) -> sp.csr_matrix:
    """Random diagonally dominant SPD matrix with arbitrary sparsity pattern."""
    if nnz_per_row < 1:
        raise ValueError("nnz_per_row must be >= 1")
    rng = as_rng(seed)
    k = max(nnz_per_row - 1, 1)
    rows = np.repeat(np.arange(n), k)
    cols = rng.integers(0, n, size=n * k)
    vals = -rng.random(n * k)
    mask = rows != cols
    a = sp.csr_matrix((vals[mask], (rows[mask], cols[mask])), shape=(n, n))
    a = (a + a.T) * 0.5
    offdiag_abs_rowsum = np.asarray(abs(a).sum(axis=1)).ravel()
    a = a + sp.diags(offdiag_abs_rowsum + 1.0)
    return sp.csr_matrix(a)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def grid_dimensions_for(target_n: int, dims: int = 2,
                        dofs_per_node: int = 1) -> Tuple[int, ...]:
    """Grid side lengths whose product of vertices times dofs ~= *target_n*."""
    if target_n < 1:
        raise ValueError("target_n must be >= 1")
    vertices = max(1, target_n // dofs_per_node)
    side = max(2, int(round(vertices ** (1.0 / dims))))
    return tuple([side] * dims)
