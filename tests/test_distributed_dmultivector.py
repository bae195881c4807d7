"""Tests for distributed multi-vectors (block BLAS-1, batched reductions).

The load-bearing contract: every block operation is per-column bit-identical
to the corresponding :class:`DistributedVector` operation, failure semantics
propagate identically, the batched reductions go through **one** allreduce
(message count independent of ``k``, volume scaling with ``k``), and the
ledger charge at ``k = 1`` equals the single-vector charge exactly.
"""

import math

import numpy as np
import pytest

from repro.cluster import MachineModel, NodeFailedError, VirtualCluster
from repro.cluster.cost_model import Phase
from repro.distributed import (
    BlockRowPartition,
    DistributedMultiVector,
    DistributedVector,
)
from repro.distributed.dmultivector import fused_dots, norms_from_dots

N_NODES = 4
N = 21  # uneven blocks: sizes (6, 5, 5, 5)
K = 3


def make_cluster():
    return VirtualCluster(N_NODES, machine=MachineModel(jitter_rel_std=0.0))


@pytest.fixture
def setup():
    cluster = make_cluster()
    partition = BlockRowPartition(N, N_NODES)
    return cluster, partition


def make_pair(cluster, partition, seed=0, k=K):
    """A multi-vector and its per-column DistributedVector twins."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((N, k))
    mvec = DistributedMultiVector.from_global(cluster, partition, f"mv{seed}",
                                              values)
    columns = [
        DistributedVector.from_global(cluster, partition, f"v{seed}.{j}",
                                      values[:, j])
        for j in range(k)
    ]
    return mvec, columns, values


class TestConstructionAndViews:
    def test_from_global_roundtrip(self, setup):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition)
        assert np.array_equal(mvec.to_global(), values)

    def test_column_gathers_single_column(self, setup):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition)
        for j in range(K):
            assert np.array_equal(mvec.column(j), values[:, j])

    def test_column_out_of_range(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        with pytest.raises(IndexError):
            mvec.column(K)

    def test_column_raises_on_failed_node(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        cluster.fail_nodes([1])
        with pytest.raises(NodeFailedError):
            mvec.column(0)

    def test_shared_bookkeeping_helpers(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        assert mvec.available_ranks() == [0, 1, 2, 3]
        cluster.fail_nodes([2])
        assert mvec.available_ranks() == [0, 1, 3]
        assert mvec.lost_ranks() == [2]
        assert not mvec.has_block(2)
        mvec.delete()
        assert mvec.available_ranks() == []

    def test_to_global_allow_missing(self, setup):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition)
        cluster.fail_nodes([0])
        out = mvec.to_global(allow_missing=True, fill_value=0.0)
        assert np.allclose(out[partition.slice_of(0)], 0.0)
        start, stop = partition.range_of(1)
        assert np.array_equal(out[start:stop], values[start:stop])


class TestBlockOpEquivalence:
    """Each block op must be bit-identical per column to the vector op."""

    def assert_columns_identical(self, mvec, columns):
        for j, vec in enumerate(columns):
            assert np.array_equal(mvec.column(j), vec.to_global()), \
                f"column {j} diverged from the single-vector path"

    def test_copy(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition)
        out = mvec.copy("mcopy")
        outs = [vec.copy(f"c{j}") for j, vec in enumerate(columns)]
        self.assert_columns_identical(out, outs)

    def test_fill(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition)
        mvec.fill(2.5)
        for vec in columns:
            vec.fill(2.5)
        self.assert_columns_identical(mvec, columns)

    def test_scale_scalar_and_per_column(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition)
        mvec.scale(0.37)
        for vec in columns:
            vec.scale(0.37)
        self.assert_columns_identical(mvec, columns)
        alphas = np.array([1.5, -0.25, 3.0])
        mvec.scale(alphas)
        for j, vec in enumerate(columns):
            vec.scale(float(alphas[j]))
        self.assert_columns_identical(mvec, columns)

    def test_axpy_per_column(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition, seed=1)
        other, other_cols, _ = make_pair(cluster, partition, seed=2)
        alphas = np.array([0.1, -2.7, 1.0])
        mvec.axpy(alphas, other)
        for j, vec in enumerate(columns):
            vec.axpy(float(alphas[j]), other_cols[j])
        self.assert_columns_identical(mvec, columns)

    def test_aypx_per_column(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition, seed=3)
        other, other_cols, _ = make_pair(cluster, partition, seed=4)
        alphas = np.array([-0.9, 0.0, 2.2])
        mvec.aypx(alphas, other)
        for j, vec in enumerate(columns):
            vec.aypx(float(alphas[j]), other_cols[j])
        self.assert_columns_identical(mvec, columns)

    def test_assign(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition, seed=5)
        other, other_cols, _ = make_pair(cluster, partition, seed=6)
        mvec.assign(other)
        for j, vec in enumerate(columns):
            vec.assign(other_cols[j])
        self.assert_columns_identical(mvec, columns)

    def test_dots_bit_identical_to_column_dots(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition, seed=7)
        other, other_cols, _ = make_pair(cluster, partition, seed=8)
        dots = mvec.dots(other)
        for j in range(K):
            assert dots[j] == columns[j].dot(other_cols[j])

    def test_norms2_bit_identical(self, setup):
        cluster, partition = setup
        mvec, columns, _ = make_pair(cluster, partition, seed=9)
        norms = mvec.norms2()
        for j, vec in enumerate(columns):
            assert norms[j] == vec.norm2()

    def test_norms2_propagates_nan_per_column(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        mvec.get_block(1)[0, 1] = np.nan
        norms = mvec.norms2()
        assert not np.isnan(norms[0])
        assert np.isnan(norms[1])
        assert not np.isnan(norms[2])

    def test_coefficient_shape_validated(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        with pytest.raises(ValueError):
            mvec.scale(np.ones(K + 1))

    def test_mismatched_columns_rejected(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition, k=K)
        other, _, _ = make_pair(cluster, partition, seed=12, k=K + 1)
        with pytest.raises(ValueError):
            mvec.dots(other)


#: Every whole-array operation: each checks all ranks' blocks once (cached
#: until a node fails or is replaced), then runs on the contiguous storage.
WHOLE_ARRAY_OPS = [
    lambda m, o: m.copy("tmp"),
    lambda m, o: m.fill(1.0),
    lambda m, o: m.scale(2.0),
    lambda m, o: m.axpy(1.0, o),
    lambda m, o: m.aypx(1.0, o),
    lambda m, o: m.assign(o),
    lambda m, o: m.dots(o),
    lambda m, o: m.norms2(),
    lambda m, o: m.to_global(),
    lambda m, o: m.column(1),
    lambda m, o: m.stacked(),
]


class TestFailureSemantics:
    @pytest.mark.parametrize("op", WHOLE_ARRAY_OPS)
    def test_ops_raise_on_failed_node(self, setup, op):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition, seed=13)
        other, _, _ = make_pair(cluster, partition, seed=14)
        cluster.fail_nodes([2])
        with pytest.raises(NodeFailedError):
            op(mvec, other)

    REDUCTIONS = {
        "dots": lambda m, o, **kw: m.dots(o, **kw),
        "norms2": lambda m, o, **kw: m.norms2(**kw),
        "fused_dots": lambda m, o, **kw: fused_dots([(m, o), (m, m)], **kw),
    }

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reduction_with_failed_rank_books_nothing(self, setup, name):
        """A failed rank fails the whole reduction before any charge: there
        is no mode that reduces over the surviving ranks only."""
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition, seed=13)
        other, _, _ = make_pair(cluster, partition, seed=14)
        cluster.fail_nodes([2])
        ledger = cluster.ledger
        before = (dict(ledger.times), dict(ledger.messages),
                  dict(ledger.elements))
        with pytest.raises(NodeFailedError):
            self.REDUCTIONS[name](mvec, other)
        assert (ledger.times, ledger.messages, ledger.elements) == before

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reduction_takes_no_alive_only(self, setup, name):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition, seed=13)
        other, _, _ = make_pair(cluster, partition, seed=14)
        with pytest.raises(TypeError):
            self.REDUCTIONS[name](mvec, other, alive_only=True)


class TestContiguousStorage:
    """One ``(n, k)`` array per name, seen per rank through node memory."""

    def test_blocks_are_views_of_one_array(self, setup):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition)
        stacked = mvec.stacked()
        assert stacked.flags.c_contiguous and stacked.shape == (N, K)
        for rank, (start, stop) in enumerate(partition.ranges):
            block = mvec.get_block(rank)
            assert np.shares_memory(block, stacked)
            assert np.array_equal(block, values[start:stop])

    def test_two_handles_of_one_name_see_one_array(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        twin = DistributedMultiVector(cluster, partition, mvec.name, K)
        assert twin.stacked() is mvec.stacked()
        mvec.fill(3.0)
        assert np.array_equal(twin.to_global(), np.full((N, K), 3.0))
        twin.set_block(1, np.zeros((5, K)))
        assert np.array_equal(mvec.get_block(1), np.zeros((5, K)))
        # A fresh container under the name replaces the storage for both.
        DistributedMultiVector.zeros(cluster, partition, mvec.name, K)
        assert twin.stacked() is mvec.stacked()
        assert not mvec.stacked().any()

    def test_set_block_copies_into_the_storage(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        values = np.ones((5, K))
        mvec.set_block(2, values)
        values[:] = 7.0  # the caller's buffer is not aliased
        assert np.array_equal(mvec.get_block(2), np.ones((5, K)))
        assert np.shares_memory(mvec.get_block(2), mvec.stacked())

    @pytest.mark.parametrize("op", WHOLE_ARRAY_OPS)
    def test_replaced_unrestored_rank_raises_key_error(self, setup, op):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition, seed=13)
        other, _, _ = make_pair(cluster, partition, seed=14)
        op(mvec, other)
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        with pytest.raises(KeyError):
            op(mvec, other)

    @pytest.mark.parametrize("op", WHOLE_ARRAY_OPS)
    def test_restore_block_makes_the_op_work(self, setup, op):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition, seed=13)
        other, _, other_values = make_pair(cluster, partition, seed=14)
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        start, stop = partition.range_of(2)
        mvec.restore_block(2, values[start:stop])
        other.restore_block(2, other_values[start:stop])
        op(mvec, other)
        assert np.shares_memory(mvec.get_block(2), mvec.stacked())

    def test_restore_block_roundtrip(self, setup):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition, seed=15)
        cluster.fail_nodes([1, 3])
        cluster.replace_nodes([1, 3])
        for rank in (1, 3):
            start, stop = partition.range_of(rank)
            mvec.restore_block(rank, values[start:stop])
        assert np.array_equal(mvec.to_global(), values)

    def test_to_global_allow_missing_fills_unreadable_ranks(self, setup):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition, seed=16)
        cluster.fail_nodes([0])
        cluster.fail_nodes([3])
        cluster.replace_nodes([3])
        out = mvec.to_global(allow_missing=True, fill_value=-1.0)
        assert np.all(out[:6] == -1.0) and np.all(out[16:] == -1.0)
        assert np.array_equal(out[6:16], values[6:16])

    def test_delete_drops_the_storage(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        mvec.delete()
        assert mvec.lost_ranks() == [0, 1, 2, 3]
        with pytest.raises(KeyError):
            mvec.stacked()


class TestBatchedReductionCharges:
    def allreduce_stats(self, cluster, fn):
        msgs0 = cluster.ledger.messages.get(Phase.ALLREDUCE_COMM, 0)
        elems0 = cluster.ledger.elements.get(Phase.ALLREDUCE_COMM, 0)
        time0 = cluster.ledger.times.get(Phase.ALLREDUCE_COMM, 0.0)
        fn()
        return (
            cluster.ledger.messages[Phase.ALLREDUCE_COMM] - msgs0,
            cluster.ledger.elements[Phase.ALLREDUCE_COMM] - elems0,
            cluster.ledger.times[Phase.ALLREDUCE_COMM] - time0,
        )

    def test_dots_is_one_allreduce(self, setup):
        """Message count independent of k; volume and time scale with k."""
        cluster, partition = setup
        levels = math.ceil(math.log2(N_NODES))
        expected_msgs = 2 * levels * N_NODES
        per_k = {}
        for k in (1, K):
            mvec, _, _ = make_pair(cluster, partition, seed=15, k=k)
            msgs, elems, time = self.allreduce_stats(
                cluster, lambda m=mvec: m.dots(m))
            per_k[k] = (msgs, elems, time)
        assert per_k[1][0] == per_k[K][0] == expected_msgs
        assert per_k[K][1] == K * per_k[1][1]
        model = cluster.ledger.model
        assert per_k[K][2] == pytest.approx(model.allreduce_time(N_NODES, K))


class TestChargeEqualityAtK1:
    """At k = 1 every block op must charge exactly the single-vector cost."""

    OPS = {
        "copy": (lambda m, o: m.copy("mc"), lambda v, w: v.copy("vc")),
        "fill": (lambda m, o: m.fill(0.5), lambda v, w: v.fill(0.5)),
        "scale": (lambda m, o: m.scale(1.5), lambda v, w: v.scale(1.5)),
        "axpy": (lambda m, o: m.axpy(2.0, o), lambda v, w: v.axpy(2.0, w)),
        "aypx": (lambda m, o: m.aypx(2.0, o), lambda v, w: v.aypx(2.0, w)),
        "assign": (lambda m, o: m.assign(o), lambda v, w: v.assign(w)),
        "dots": (lambda m, o: m.dots(o), lambda v, w: v.dot(w)),
        "norms2": (lambda m, o: m.norms2(), lambda v, w: v.norm2()),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_k1_charges_match(self, name):
        block_op, vector_op = self.OPS[name]
        partition = BlockRowPartition(N, N_NODES)
        rng = np.random.default_rng(17)
        values = rng.standard_normal(N)
        other_values = rng.standard_normal(N)

        cluster_m = make_cluster()
        mvec = DistributedMultiVector.from_global(
            cluster_m, partition, "m", values[:, None])
        other_m = DistributedMultiVector.from_global(
            cluster_m, partition, "o", other_values[:, None])
        block_op(mvec, other_m)

        cluster_v = make_cluster()
        vec = DistributedVector.from_global(cluster_v, partition, "v", values)
        other_v = DistributedVector.from_global(cluster_v, partition, "w",
                                                other_values)
        vector_op(vec, other_v)

        assert cluster_m.ledger.times == cluster_v.ledger.times
        assert cluster_m.ledger.messages == cluster_v.ledger.messages
        assert cluster_m.ledger.elements == cluster_v.ledger.elements


def per_rank_dots(x, y, partition):
    """The reference for the batched reductions: one ``ndarray.dot`` per
    rank and column on contiguous copies, summed in rank order."""
    k = x.shape[1]
    partials = np.empty((partition.n_parts, k))
    for rank, (start, stop) in enumerate(partition.ranges):
        for j in range(k):
            partials[rank, j] = np.ascontiguousarray(x[start:stop, j]).dot(
                np.ascontiguousarray(y[start:stop, j]))
    return np.add.accumulate(partials, axis=0)[-1]


def oracle_values(rng, n, k, kind):
    """An ``(n, k)`` operand pair whose products exercise *kind*."""
    x, y = rng.standard_normal((2, n, k))
    if kind == "huge":
        # Magnitudes near 1e+-300: products overflow or underflow.
        x *= 10.0 ** rng.integers(-300, 301, size=(n, k))
        y *= 10.0 ** rng.integers(-300, 301, size=(n, k))
    elif kind == "zero_products":
        # Every product is -0.0 and keeps its sign only if it is multiplied,
        # not accumulated from 0.0.
        x[:] = 0.0
        y = -np.abs(y)
    elif kind == "special":
        pick = rng.random((n, k))
        x[pick < 0.02] = np.nan
        x[(pick >= 0.02) & (pick < 0.04)] = np.inf
        x[(pick >= 0.04) & (pick < 0.06)] = -np.inf
        x[(pick >= 0.06) & (pick < 0.3)] = 0.0
        y[(pick >= 0.3) & (pick < 0.5)] = -0.0
    return x, y


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestReductionsMatchPerRankOracle:
    """``dots``, ``norms2`` and ``fused_dots`` compute all partial dots in
    batched calls; each result must be bit for bit the per-rank dots summed
    in rank order -- zeros, signed zeros, +-inf, NaN and overflow included,
    on uneven partitions and on one-row blocks."""

    N_ROWS = 301  # uneven over 3, 8 and 128 ranks

    @staticmethod
    def operands(n_nodes, x_values, y_values):
        cluster = VirtualCluster(n_nodes,
                                 machine=MachineModel(jitter_rel_std=0.0))
        partition = BlockRowPartition(len(x_values), n_nodes)
        x, y = (DistributedMultiVector.from_global(cluster, partition, name,
                                                   values)
                for name, values in (("x", x_values), ("y", y_values)))
        return cluster, partition, x, y

    @staticmethod
    def assert_match_oracle(x, y, partition):
        xg, yg = x.to_global(), y.to_global()
        xy = per_rank_dots(xg, yg, partition)
        xx = per_rank_dots(xg, xg, partition)
        yy = per_rank_dots(yg, yg, partition)
        assert_bits_equal(x.dots(y), xy)
        assert_bits_equal(x.norms2(), norms_from_dots(xx))
        for got, want in zip(fused_dots([(x, y), (x, x), (y, y)]),
                             (xy, xx, yy)):
            assert_bits_equal(got, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind",
                             ["normal", "huge", "zero_products", "special"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("n_nodes", [1, 3, 8, 128, N_ROWS])
    def test_bit_identical_to_per_rank_dots(self, n_nodes, k, kind):
        rng = np.random.default_rng([n_nodes, k, len(kind)])
        x_values, y_values = oracle_values(rng, self.N_ROWS, k, kind)
        _, partition, x, y = self.operands(n_nodes, x_values, y_values)
        self.assert_match_oracle(x, y, partition)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("n_nodes", [8, 128])
    def test_bit_identical_after_recovery(self, n_nodes, k):
        """Restored blocks are read like any other: fail, replace, restore
        new values (specials included), then reduce."""
        rng = np.random.default_rng([n_nodes, k])
        x_values, y_values = oracle_values(rng, self.N_ROWS, k, "normal")
        cluster, partition, x, y = self.operands(n_nodes, x_values, y_values)
        x.dots(y)  # warm: the liveness check is cached
        lost = [0, n_nodes // 2, n_nodes - 1]
        cluster.fail_nodes(lost)
        cluster.replace_nodes(lost)
        new_x, new_y = oracle_values(rng, self.N_ROWS, k, "special")
        for rank in lost:
            start, stop = partition.range_of(rank)
            x.restore_block(rank, new_x[start:stop])
            y.restore_block(rank, new_y[start:stop])
        self.assert_match_oracle(x, y, partition)


class TestVectorBlocks:
    """The per-rank 1-D views of a one-column multi-vector."""

    def test_views_are_contiguous_and_zero_copy(self, setup):
        cluster, partition = setup
        mvec, _, values = make_pair(cluster, partition, k=1)
        views = mvec.vector_blocks()
        assert views is mvec.vector_blocks()  # built once per storage
        for rank, view in enumerate(views):
            start, stop = partition.range_of(rank)
            assert view.shape == (stop - start,) and view.flags.c_contiguous
            assert np.shares_memory(view, mvec.stacked())
            assert np.array_equal(view, values[start:stop, 0])

    def test_rejects_more_than_one_column(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition)
        with pytest.raises(ValueError):
            mvec.vector_blocks()

    def test_liveness_checks_of_blocks(self, setup):
        cluster, partition = setup
        mvec, _, _ = make_pair(cluster, partition, k=1)
        cluster.fail_nodes([2])
        with pytest.raises(NodeFailedError):
            mvec.vector_blocks()
        with pytest.raises(NodeFailedError):
            mvec.vector_blocks(overwrite=True)
        cluster.replace_nodes([2])
        with pytest.raises(KeyError):
            mvec.vector_blocks()
        views = mvec.vector_blocks(overwrite=True)
        assert mvec.get_block(2) is mvec.blocks()[2]
        views[2][...] = 4.0
        assert np.array_equal(mvec.get_block(2), np.full((5, 1), 4.0))
