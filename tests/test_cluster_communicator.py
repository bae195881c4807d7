"""Tests for the communicator of the virtual cluster: the one allreduce."""

import inspect
import math

import numpy as np
import pytest

from repro.cluster import (
    CommunicationError,
    CostLedger,
    MachineModel,
    Phase,
    VirtualCluster,
)
from repro.cluster.communicator import Communicator


@pytest.fixture
def cluster():
    return VirtualCluster(4, machine=MachineModel(jitter_rel_std=0.0))


def ledger_state(cluster):
    ledger = cluster.ledger
    return dict(ledger.times), dict(ledger.messages), dict(ledger.elements)


def rank_order_sum(partials):
    """The reference reduction: a Python running sum over ranks 0..N-1."""
    expected = partials[0].copy()
    for row in partials[1:]:
        expected = expected + row
    return expected


class TestAllreduce:
    def test_sum_of_scalars(self, cluster):
        partials = np.arange(1.0, 5.0)[:, None]
        total = cluster.comm.allreduce_sum(partials)
        assert total.shape == (1,)
        assert total[0] == pytest.approx(10.0)

    def test_sum_of_arrays(self, cluster):
        partials = np.repeat(np.arange(4.0)[:, None], 3, axis=1)
        total = cluster.comm.allreduce_sum(partials)
        assert np.allclose(total, [6.0, 6.0, 6.0])

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (5, 2)],
                             ids=["1-D", "N-1 rows", "N+1 rows"])
    def test_partials_not_one_row_per_rank_raise(self, cluster, shape):
        before = ledger_state(cluster)
        with pytest.raises(CommunicationError, match="one row per rank"):
            cluster.comm.allreduce_sum(np.ones(shape))
        assert ledger_state(cluster) == before

    def test_with_failed_node_raises_by_default(self, cluster):
        cluster.fail_nodes([3, 1])
        before = ledger_state(cluster)
        with pytest.raises(CommunicationError) as excinfo:
            cluster.comm.allreduce_sum(np.ones((4, 1)))
        assert excinfo.value.failed_ranks == [1, 3]
        assert ledger_state(cluster) == before

    def test_charges_allreduce_phase(self, cluster):
        cluster.comm.allreduce_sum(np.ones((4, 1)))
        assert cluster.ledger.total_time([Phase.ALLREDUCE_COMM]) > 0

    def test_batched_allreduce_message_count_independent_of_width(self, cluster):
        """A k-wide reduction ships one message per tree hop (like a scalar
        one); only the per-hop volume scales with k."""
        stats = {}
        for k in (1, 8):
            before_msgs = cluster.ledger.total_messages([Phase.ALLREDUCE_COMM])
            before_elems = cluster.ledger.total_elements([Phase.ALLREDUCE_COMM])
            cluster.comm.allreduce_sum(np.ones((4, k)))
            stats[k] = (
                cluster.ledger.total_messages([Phase.ALLREDUCE_COMM]) - before_msgs,
                cluster.ledger.total_elements([Phase.ALLREDUCE_COMM]) - before_elems,
            )
        assert stats[1][0] == stats[8][0]
        assert stats[8][1] == 8 * stats[1][1]

    def test_batched_allreduce_time_matches_model(self, cluster):
        k = 8
        before = cluster.ledger.total_time([Phase.ALLREDUCE_COMM])
        cluster.comm.allreduce_sum(np.ones((4, k)))
        delta = cluster.ledger.total_time([Phase.ALLREDUCE_COMM]) - before
        assert delta == pytest.approx(
            cluster.ledger.model.allreduce_time(4, k)
        )

    @pytest.mark.parametrize("shape", [(9, 1), (128, 1), (128, 4)])
    def test_batched_allreduce_sums_in_rank_order(self, shape):
        """Every component is the running sum over ranks 0, 1, ..., N-1,
        bit for bit.  NumPy sums a one-column ``partials.sum(axis=0)``
        pairwise, which rounds differently on both one-column cases."""
        n_ranks, _ = shape
        partials = np.random.default_rng(5).standard_normal(shape)
        cluster = VirtualCluster(n_ranks)
        expected = rank_order_sum(partials)
        total = cluster.comm.allreduce_sum(partials)
        assert total.tobytes() == expected.tobytes()

    # Nine ranks, so a pairwise ``sum`` (eight partial accumulators) would
    # group the leading rows differently from the running sum.
    @pytest.mark.parametrize("column, expected", [
        ([1.0, 0.0, 1e16, -1e16, 0, 0, 0, 0, 0], 0.0),
        ([1e308, 0.0, 1e308, -1e308, 0, 0, 0, 0, 0], np.inf),
        ([1.0, np.nan, 2.0, 0, 0, 0, 0, 0, 0], np.nan),
        ([np.inf, 0.0, -np.inf, 0, 0, 0, 0, 0, 0], np.nan),
        ([-0.0] * 9, -0.0),
    ], ids=["absorption", "overflow", "nan", "inf-minus-inf", "negative-zero"])
    def test_rank_order_edge_values(self, column, expected):
        """Absorption, overflow, NaN/inf and the sign of zero come out as
        the running sum over ranks makes them."""
        partials = np.array(column)[:, None]
        cluster = VirtualCluster(len(column))
        with np.errstate(over="ignore", invalid="ignore"):
            reference = rank_order_sum(partials)
            total = cluster.comm.allreduce_sum(partials)
        assert total.tobytes() == reference.tobytes()
        assert np.array_equal(total, [expected], equal_nan=True)
        if expected == 0.0:
            assert np.signbit(total[0]) == np.signbit(expected)

    def test_partials_untouched_and_result_not_a_view(self, cluster):
        partials = np.arange(8.0).reshape(4, 2)
        kept = partials.copy()
        total = cluster.comm.allreduce_sum(partials)
        assert np.array_equal(partials, kept)
        assert not np.shares_memory(total, partials)
        total[:] = -1.0
        assert np.array_equal(partials, kept)

    def test_replaced_ranks_take_part_again(self, cluster):
        cluster.fail_nodes([2])
        cluster.replace_nodes([2])
        partials = np.arange(8.0).reshape(4, 2)
        total = cluster.comm.allreduce_sum(partials)
        assert np.array_equal(total, [12.0, 16.0])
        assert cluster.ledger.total_time([Phase.ALLREDUCE_COMM]) > 0

    def test_single_rank_returns_its_row_and_moves_nothing(self):
        cluster = VirtualCluster(1, machine=MachineModel(jitter_rel_std=0.0))
        partials = np.array([[1.5, -2.0, 3.25]])
        total = cluster.comm.allreduce_sum(partials)
        assert total.tobytes() == partials[0].tobytes()
        assert cluster.ledger.total_messages([Phase.ALLREDUCE_COMM]) == 0
        assert cluster.ledger.total_elements([Phase.ALLREDUCE_COMM]) == 0
        assert cluster.ledger.total_time([Phase.ALLREDUCE_COMM]) == 0.0

    @pytest.mark.parametrize("n_ranks", [2, 3, 4, 5, 8, 9, 128])
    def test_charge_follows_the_tree_model(self, n_ranks):
        """Reduce plus broadcast over ``ceil(log2 N)`` levels: every rank
        sends one message per level and direction, each carrying all
        ``m`` components."""
        width = 3
        cluster = VirtualCluster(n_ranks,
                                 machine=MachineModel(jitter_rel_std=0.0))
        cluster.comm.allreduce_sum(np.ones((n_ranks, width)))
        levels = math.ceil(math.log2(n_ranks))
        ledger = cluster.ledger
        assert ledger.total_messages([Phase.ALLREDUCE_COMM]) == \
            2 * levels * n_ranks
        assert ledger.total_elements([Phase.ALLREDUCE_COMM]) == \
            2 * levels * n_ranks * width
        assert ledger.total_time([Phase.ALLREDUCE_COMM]) == pytest.approx(
            ledger.model.allreduce_time(n_ranks, width))

    def test_standalone_communicator_charges_its_ledger(self, cluster):
        ledger = CostLedger(model=MachineModel(jitter_rel_std=0.0))
        comm = Communicator(cluster.nodes, ledger)
        total = comm.allreduce_sum(np.ones((4, 2)))
        assert np.array_equal(total, [4.0, 4.0])
        assert ledger.total_messages([Phase.ALLREDUCE_COMM]) == 2 * 2 * 4
        assert cluster.ledger.total_messages() == 0


class TestInterface:
    def test_allreduce_sum_is_the_only_method(self):
        methods = sorted(name for name, value in vars(Communicator).items()
                         if callable(value))
        assert methods == ["__init__", "allreduce_sum"]
        assert list(inspect.signature(Communicator).parameters) == \
            ["nodes", "ledger"]

    @pytest.mark.parametrize("option", ["alive_only", "phase"])
    def test_allreduce_sum_takes_no_options(self, cluster, option):
        before = ledger_state(cluster)
        with pytest.raises(TypeError):
            cluster.comm.allreduce_sum(np.ones((4, 1)), **{option: True})
        assert ledger_state(cluster) == before
