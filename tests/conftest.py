"""Shared fixtures for the test suite.

The tests run against small problems (a few hundred unknowns, 4-8 virtual
nodes) so the whole suite stays fast while still exercising every code path
of the library, including multi-node failures and reconstruction.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - only hit in uninstalled checkouts
        sys.path.insert(0, str(_SRC))

from repro.cluster import MachineModel, VirtualCluster  # noqa: E402
from repro.core.api import distribute_problem  # noqa: E402
from repro.matrices import generators  # noqa: E402
from repro.precond import make_preconditioner  # noqa: E402


@pytest.fixture
def rng():
    """Deterministic RNG for tests that need random data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_poisson():
    """2-D Poisson matrix with 256 unknowns (16 x 16 grid)."""
    return generators.poisson_2d(16)


@pytest.fixture
def medium_poisson():
    """2-D Poisson matrix with 576 unknowns (24 x 24 grid)."""
    return generators.poisson_2d(24)


@pytest.fixture
def irregular_spd(rng):
    """Graph-Laplacian-style SPD matrix with an irregular pattern."""
    return generators.graph_laplacian_spd(300, avg_degree=4.0, rng=rng)


@pytest.fixture
def wide_band_spd():
    """Structural-style SPD matrix with a wide band (many nnz per row)."""
    return generators.elasticity_3d(5, 5, 5, dofs_per_node=3, seed=3)


@pytest.fixture
def small_cluster():
    """A 4-node cluster with deterministic (jitter-free) cost model."""
    return VirtualCluster(4, machine=MachineModel(jitter_rel_std=0.0), seed=0)


@pytest.fixture
def cluster8():
    """An 8-node cluster with deterministic cost model."""
    return VirtualCluster(8, machine=MachineModel(jitter_rel_std=0.0), seed=0)


@pytest.fixture
def poisson_problem(medium_poisson):
    """A distributed 576-unknown Poisson problem on 6 nodes."""
    return distribute_problem(medium_poisson, n_nodes=6, seed=0,
                              machine=MachineModel(jitter_rel_std=0.0))


@pytest.fixture
def poisson_problem_factory(medium_poisson):
    """Factory for fresh distributed Poisson problems (state isolation)."""

    def factory(n_nodes: int = 6, matrix=None, rhs=None, seed: int = 0):
        target = medium_poisson if matrix is None else matrix
        return distribute_problem(
            target, rhs, n_nodes=n_nodes, seed=seed,
            machine=MachineModel(jitter_rel_std=0.0),
        )

    return factory


@pytest.fixture
def block_jacobi_factory():
    """Factory producing a fresh block-Jacobi preconditioner per call."""

    def factory(matrix, partition):
        preconditioner = make_preconditioner("block_jacobi")
        preconditioner.setup(sp.csr_matrix(matrix), partition)
        return preconditioner

    return factory


@pytest.fixture
def store_raised_diagonal():
    """Store a copy of a matrix row block with its diagonal raised by 1.0.

    ``store(dist, rank)`` puts the copy into reliable storage and returns
    it, so the next ``restore_block_to_node(rank)`` changes stored values
    (same sparsity pattern; an SPD matrix stays SPD).
    """

    def store(dist, rank):
        start, _ = dist.partition.range_of(rank)
        block = dist.row_block(rank).copy()
        block.setdiag(block.diagonal(k=start) + 1.0, k=start)
        dist.cluster.storage.put_block(dist._storage_name(), rank, block)
        return block

    return store
