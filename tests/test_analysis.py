"""Tests for the communication-overhead and sparsity analysis (Secs. 4.2, 5)."""

import numpy as np
import pytest

from repro.analysis import (
    analyze_overhead,
    band_condition_holds,
    multiplicity_histogram,
    natural_coverage_fraction,
    sparsity_report,
)
from repro.cluster import MachineModel, VirtualCluster
from repro.core.redundancy import RedundancyScheme
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
)
from repro.matrices import banded_spd, graph_laplacian_spd, poisson_2d
import scipy.sparse as sp


def make_dist(matrix, n_nodes):
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(matrix.shape[0], n_nodes)
    return DistributedMatrix.from_global(cluster, partition, "A", matrix)


class TestOverheadAnalysis:
    def test_within_bounds(self):
        dist = make_dist(poisson_2d(16), 8)
        analysis = analyze_overhead(dist, 3)
        assert analysis.within_bounds
        assert analysis.lower_bound <= analysis.per_iteration_time + 1e-15
        assert analysis.per_iteration_time <= analysis.upper_bound + 1e-15

    def test_zero_overhead_for_dense_coupling(self):
        dense = sp.csr_matrix(np.ones((32, 32)) + 32 * np.eye(32))
        dist = make_dist(dense, 4)
        analysis = analyze_overhead(dist, 3)
        assert analysis.total_extra_elements == 0
        assert analysis.per_iteration_time == 0.0
        assert analysis.natural_coverage == pytest.approx(1.0)

    def test_overhead_grows_with_phi(self):
        dist = make_dist(poisson_2d(16), 8)
        sweep = [analyze_overhead(dist, phi) for phi in (1, 2, 3)]
        times = [a.per_iteration_time for a in sweep]
        assert times[0] <= times[1] <= times[2]
        assert sweep[-1].total_extra_elements >= sweep[0].total_extra_elements

    def test_sparse_matrix_has_higher_relative_traffic_than_banded(self):
        # The regime distinction behind Table 2: circuit-like patterns pay far
        # more redundancy traffic relative to their halo than wide bands.
        sparse_dist = make_dist(graph_laplacian_spd(400, avg_degree=4, seed=0), 8)
        banded_dist = make_dist(banded_spd(400, half_bandwidth=60, seed=0), 8)
        a_sparse = analyze_overhead(sparse_dist, 3)
        a_banded = analyze_overhead(banded_dist, 3)
        assert a_sparse.total_extra_elements / a_sparse.halo_elements > \
            a_banded.total_extra_elements / a_banded.halo_elements

    def test_per_round_extras_and_bounds_helpers(self):
        dist = make_dist(poisson_2d(16), 8)
        ctx = CommunicationContext.from_matrix(dist)
        scheme = RedundancyScheme(ctx, 2)
        extras = scheme.max_extra_per_round()
        assert len(extras) == 2
        lower, upper = scheme.overhead_bounds(dist.cluster.topology,
                                              dist.cluster.machine)
        assert 0 <= lower <= upper


class TestSparsityAnalysis:
    def test_multiplicity_histogram_total(self):
        dist = make_dist(poisson_2d(12), 6)
        ctx = CommunicationContext.from_matrix(dist)
        hist = multiplicity_histogram(ctx)
        assert sum(hist) == 144

    def test_natural_coverage_decreases_with_phi(self):
        dist = make_dist(poisson_2d(12), 6)
        ctx = CommunicationContext.from_matrix(dist)
        c1 = natural_coverage_fraction(ctx, 1)
        c3 = natural_coverage_fraction(ctx, 3)
        assert 0.0 <= c3 <= c1 <= 1.0

    def test_band_condition_dense_vs_narrow(self):
        # A matrix that couples every pair of blocks satisfies the Sec. 5
        # condition for any phi < N; a tridiagonal matrix fails it already for
        # phi = 1 because the wrap-around backup of the last rank receives
        # nothing from it.
        dense = make_dist(sp.csr_matrix(np.ones((48, 48)) + 48 * np.eye(48)), 6)
        assert band_condition_holds(dense, 3)
        from repro.matrices import poisson_1d
        narrow = make_dist(poisson_1d(240), 6)
        assert not band_condition_holds(narrow, 3)

    def test_extra_latency_messages_only_without_piggyback(self):
        # Narrow 2-D stencil with phi = 3: the +/-2-rank backups receive
        # nothing naturally, so some extras pay a latency (extra messages).
        narrow = make_dist(poisson_2d(15, 16), 6)
        assert analyze_overhead(narrow, 3).extra_messages > 0
        # Fully coupled matrix: everything piggybacks, no extra messages.
        dense = make_dist(sp.csr_matrix(np.ones((48, 48)) + 48 * np.eye(48)), 6)
        assert analyze_overhead(dense, 3).extra_messages == 0

    def test_piggyback_fraction_range(self):
        from repro.analysis.sparsity import piggyback_fraction
        ctx = CommunicationContext.from_matrix(make_dist(poisson_2d(15, 16), 6))
        frac = piggyback_fraction(RedundancyScheme(ctx, 3))
        assert 0.0 <= frac <= 1.0

    def test_sparsity_report_fields(self):
        dist = make_dist(poisson_2d(12), 6)
        report = sparsity_report(dist, 2)
        assert report.phi == 2
        assert report.n_nodes == 6
        assert 0.0 <= report.natural_coverage <= 1.0
        assert 0.0 <= report.piggyback_fraction <= 1.0
        assert len(report.unsent_per_owner) == 6

    def test_band_condition_implies_no_extra_latency_messages(self):
        matrix = banded_spd(240, half_bandwidth=90, fill=0.95, seed=1)
        dist = make_dist(matrix, 6)
        if band_condition_holds(dist, 2):
            analysis = analyze_overhead(dist, 2)
            assert analysis.extra_messages == 0
