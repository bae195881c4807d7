"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import MachineModel, VirtualCluster
from repro.core.redundancy import (
    REDUNDANCY_SCHEMES,
    RedundancyScheme,
    backup_targets,
    build_redundancy_scheme,
)
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedMultiVector,
    DistributedVector,
)
from repro.distributed.dmultivector import fused_dots

COMMON_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# partition properties
# ---------------------------------------------------------------------------

@COMMON_SETTINGS
@given(n=st.integers(1, 5000), n_parts=st.integers(1, 64))
def test_partition_covers_indices_exactly_once(n, n_parts):
    if n_parts > n:
        n_parts = n
    part = BlockRowPartition(n, n_parts)
    sizes = part.sizes()
    assert int(sizes.sum()) == n
    assert int(sizes.max()) - int(sizes.min()) <= 1
    assert int(sizes.max()) == part.max_block_size()
    # contiguity and completeness
    offsets = part.offsets
    assert offsets[0] == 0 and offsets[-1] == n
    assert np.all(np.diff(offsets) == sizes)


@COMMON_SETTINGS
@given(n=st.integers(2, 2000), n_parts=st.integers(1, 32),
       probe=st.integers(0, 10**6))
def test_partition_ownership_consistent(n, n_parts, probe):
    n_parts = min(n_parts, n)
    part = BlockRowPartition(n, n_parts)
    index = probe % n
    owner = int(part.owner_of(index))
    start, stop = part.range_of(owner)
    assert start <= index < stop


# ---------------------------------------------------------------------------
# backup target properties (Eqn. 5)
# ---------------------------------------------------------------------------

@COMMON_SETTINGS
@given(n_nodes=st.integers(2, 100), owner=st.integers(0, 99),
       phi=st.integers(0, 20),
       placement=st.sampled_from(["paper", "next_ranks", "random"]))
def test_backup_targets_distinct_and_not_owner(n_nodes, owner, phi, placement):
    owner = owner % n_nodes
    phi = min(phi, n_nodes - 1)
    targets = backup_targets(owner, phi, n_nodes, placement)
    assert len(targets) == phi
    assert len(set(targets)) == phi
    assert owner not in targets
    assert all(0 <= t < n_nodes for t in targets)


# ---------------------------------------------------------------------------
# communication context + redundancy invariant on random sparsity patterns
# ---------------------------------------------------------------------------

def random_spd(n, density, seed):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng, format="csr")
    a = a + a.T
    rowsum = np.asarray(abs(a).sum(axis=1)).ravel()
    return sp.csr_matrix(a + sp.diags(rowsum + 1.0))


@COMMON_SETTINGS
@given(n=st.integers(24, 160), n_nodes=st.integers(2, 8),
       density=st.floats(0.005, 0.15), phi=st.integers(0, 4),
       seed=st.integers(0, 10**6))
def test_redundancy_invariant_random_patterns(n, n_nodes, density, phi, seed):
    """Every element gets >= phi off-node copies for arbitrary sparsity."""
    n_nodes = min(n_nodes, n)
    phi = min(phi, n_nodes - 1)
    matrix = random_spd(n, density, seed)
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(n, n_nodes)
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    context = CommunicationContext.from_matrix(dist)
    scheme = RedundancyScheme(context, phi)
    assert scheme.verify_invariant()
    # the overhead always respects the analytic bounds of Sec. 4.2
    lower, upper = scheme.overhead_bounds(cluster.topology, cluster.machine)
    total = scheme.per_iteration_overhead_time(cluster.topology, cluster.machine)
    assert lower - 1e-15 <= total <= upper + 1e-15


@COMMON_SETTINGS
@given(n=st.integers(24, 160), n_nodes=st.integers(2, 8),
       density=st.floats(0.005, 0.15), phi=st.integers(0, 3),
       n_cols=st.sampled_from([1, 4]),
       placement=st.sampled_from(["paper", "next_ranks", "random"]),
       scheme_name=st.sampled_from(sorted(REDUNDANCY_SCHEMES.names())),
       seed=st.integers(0, 10**6))
def test_every_registered_scheme_respects_sandwich_bounds(
        n, n_nodes, density, phi, n_cols, placement, scheme_name, seed):
    """Sec. 4.2 sandwich for EVERY registered scheme x placement x width.

    ``lower <= per_iteration_overhead_time <= upper`` must hold for all
    registered redundancy schemes across placements, ``phi``, column counts,
    and non-uniform partitions (``n`` not divisible by ``n_nodes``) -- the
    charge-model obligation every scheme registration signs up for.
    """
    n_nodes = min(n_nodes, n)
    phi = min(phi, n_nodes - 1)
    matrix = random_spd(n, density, seed)
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(n, n_nodes)
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    context = CommunicationContext.from_matrix(dist)
    scheme = build_redundancy_scheme(scheme_name, context, phi,
                                     placement=placement)
    assert scheme.verify_invariant()
    lower, upper = scheme.overhead_bounds(cluster.topology, cluster.machine,
                                          n_cols=n_cols)
    total = scheme.per_iteration_overhead_time(cluster.topology,
                                               cluster.machine, n_cols=n_cols)
    assert lower - 1e-15 <= total <= upper + 1e-15
    messages, elements = scheme.extra_traffic_per_iteration(n_cols=n_cols)
    assert messages >= 0 and elements >= 0
    assert scheme.redundant_elements_per_generation(n_cols=n_cols) >= 0


@COMMON_SETTINGS
@given(n=st.integers(24, 120), n_nodes=st.integers(2, 6),
       density=st.floats(0.01, 0.2), seed=st.integers(0, 10**6))
def test_context_send_sets_partition_consistent(n, n_nodes, density, seed):
    """S_ik contains only indices owned by i and needed by k."""
    n_nodes = min(n_nodes, n)
    matrix = random_spd(n, density, seed)
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(n, n_nodes)
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    context = CommunicationContext.from_matrix(dist)
    for src in range(n_nodes):
        for dst in context.receivers_of(src):
            sent = context.send_indices(src, dst)
            assert np.all(partition.owner_of(sent) == src)
            assert np.isin(sent, dist.needed_column_indices(dst)).all()
    # multiplicities are consistent with the total exchanged volume
    total = sum(int(context.multiplicity(o).sum()) for o in range(n_nodes))
    assert total == context.total_exchanged_elements()


# ---------------------------------------------------------------------------
# distributed vector round-trips and reductions
# ---------------------------------------------------------------------------

@COMMON_SETTINGS
@given(n=st.integers(4, 400), n_nodes=st.integers(1, 12),
       seed=st.integers(0, 10**6))
def test_dvector_roundtrip_and_dot(n, n_nodes, seed):
    n_nodes = min(n_nodes, n)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    other = rng.standard_normal(n)
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(n, n_nodes)
    a = DistributedVector.from_global(cluster, partition, "a", values)
    b = DistributedVector.from_global(cluster, partition, "b", other)
    assert np.allclose(a.to_global(), values)
    assert a.dot(b) == pytest.approx(float(values @ other), rel=1e-10, abs=1e-12)
    assert a.norm2() == pytest.approx(float(np.linalg.norm(values)), rel=1e-10)
    alpha = float(rng.standard_normal())
    a.axpy(alpha, b)
    assert np.allclose(a.to_global(), values + alpha * other)


# ---------------------------------------------------------------------------
# block BLAS-1 / batched-reduction properties (multi-vectors)
# ---------------------------------------------------------------------------

def _mv_setup(n, n_nodes, k, seed):
    """Fresh cluster + matching (n, k) multi-vectors and per-column vectors."""
    rng = np.random.default_rng(seed)
    xg = rng.standard_normal((n, k))
    yg = rng.standard_normal((n, k))
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(n, n_nodes)
    bx = DistributedMultiVector.from_global(cluster, partition, "X", xg)
    by = DistributedMultiVector.from_global(cluster, partition, "Y", yg)
    vcluster = VirtualCluster(n_nodes,
                              machine=MachineModel(jitter_rel_std=0.0))
    vx = [DistributedVector.from_global(vcluster, partition, f"x{j}", xg[:, j])
          for j in range(k)]
    vy = [DistributedVector.from_global(vcluster, partition, f"y{j}", yg[:, j])
          for j in range(k)]
    return rng, xg, yg, bx, by, vx, vy


@COMMON_SETTINGS
@given(n=st.integers(8, 300), n_nodes=st.integers(1, 8),
       k=st.integers(1, 8), seed=st.integers(0, 10**6),
       per_column=st.booleans())
def test_block_blas1_per_column_bit_equal_to_vector_ops(
        n, n_nodes, k, seed, per_column):
    """copy/fill/scale/axpy/aypx/assign on (n, k) blocks are per-column
    bit-identical to the DistributedVector ops, for scalar and per-column
    coefficients alike."""
    n_nodes = min(n_nodes, n)
    rng, xg, yg, bx, by, vx, vy = _mv_setup(n, n_nodes, k, seed)
    alpha_cols = rng.standard_normal(k)
    alpha = alpha_cols if per_column else float(alpha_cols[0])
    alpha_of = (lambda j: float(alpha_cols[j])) if per_column \
        else (lambda j: float(alpha_cols[0]))
    fill_value = float(rng.standard_normal())

    # scale
    bx.scale(alpha)
    for j in range(k):
        vx[j].scale(alpha_of(j))
        assert np.array_equal(bx.column(j), vx[j].to_global())
    # axpy
    bx.axpy(alpha, by)
    for j in range(k):
        vx[j].axpy(alpha_of(j), vy[j])
        assert np.array_equal(bx.column(j), vx[j].to_global())
    # aypx
    bx.aypx(alpha, by)
    for j in range(k):
        vx[j].aypx(alpha_of(j), vy[j])
        assert np.array_equal(bx.column(j), vx[j].to_global())
    # copy / assign / fill
    bc = bx.copy("Xc")
    for j in range(k):
        assert np.array_equal(bc.column(j), vx[j].to_global())
    bc.fill(fill_value)
    assert np.array_equal(bc.to_global(),
                          np.full((n, k), fill_value))
    bc.assign(by)
    for j in range(k):
        assert np.array_equal(bc.column(j), vy[j].to_global())


@COMMON_SETTINGS
@given(n=st.integers(8, 300), n_nodes=st.integers(1, 8),
       k=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_batched_dots_and_fused_dots_bit_equal_to_vector_dots(
        n, n_nodes, k, seed):
    """dots() ships k per-column dots in one collective, fused_dots() ships
    several pairs in one collective -- every component bit-identical to the
    single-vector DistributedVector.dot on the same columns."""
    n_nodes = min(n_nodes, n)
    _, xg, yg, bx, by, vx, vy = _mv_setup(n, n_nodes, k, seed)
    dots = bx.dots(by)
    assert dots.shape == (k,)
    for j in range(k):
        assert dots[j] == vx[j].dot(vy[j])
    fused_xy, fused_xx = fused_dots([(bx, by), (bx, bx)])
    assert np.array_equal(fused_xy, dots)
    assert np.array_equal(fused_xx, bx.dots(bx))
    norms = bx.norms2()
    for j in range(k):
        assert norms[j] == vx[j].norm2()


# ---------------------------------------------------------------------------
# sequential PCG properties
# ---------------------------------------------------------------------------

@COMMON_SETTINGS
@given(n=st.integers(10, 120), nnz_per_row=st.integers(2, 8),
       seed=st.integers(0, 10**6))
def test_pcg_solves_random_spd_systems(n, nnz_per_row, seed):
    from repro.matrices import diagonally_dominant_spd
    from repro.solvers import pcg
    from repro.precond import JacobiPreconditioner

    a = diagonally_dominant_spd(n, nnz_per_row=nnz_per_row, seed=seed)
    rng = np.random.default_rng(seed)
    x_exact = rng.standard_normal(n)
    b = a @ x_exact
    precond = JacobiPreconditioner()
    precond.setup(a)
    result = pcg(a, b, preconditioner=precond, rtol=1e-12,
                 max_iterations=5 * n)
    assert result.converged
    assert np.allclose(result.x, x_exact, rtol=1e-6, atol=1e-8)
    # residual history is consistent with the returned final norm
    assert result.residual_norms[-1] == pytest.approx(result.final_residual_norm)
