"""Guard against per-rank lookups in the hot kernels, by counting calls.

The whole-array kernels -- block BLAS-1, the batched reductions and the
SpMV -- check liveness once per memory epoch, not once per rank, and the
SpMV runs one sparse kernel over all ranks.  So after a warm-up call, one
``axpy``, one ``dots`` and one ``distributed_spmv`` make the same number of
node-memory reads and writes and ``csr_matvecs`` calls on 16 nodes as on
128.  A fused reduction batches its partial dots per run of equal block
size and checks for failed nodes once per memory epoch, so warm, it makes
the same C-level calls and runs the same Python lines on 16 and 128 nodes;
a one-column preconditioner application makes one Python-level call per
rank: the ``apply_block`` itself.  The ESR stores refill buffers
whose views the holders already keep, so a warm store writes no node
memory at all, at any node count, and after a replacement only the
replaced node's entries are written again; the holders of an owner's
copies are a per-owner lookup.  In the same way the recovery's rows of
``M`` are built per failed rank, not per failed row, and the scatter plan
answers each per-rank query from tables built once, so a query costs the
rank's degree and a redundancy-scheme build the same per rank at any node
count.  Counting calls instead of timing them keeps the guard
deterministic; the cyclic garbage collector is paused while a count runs,
so a collection cannot add events of its own.
"""

import contextlib
import gc
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import MachineModel, VirtualCluster
from repro.cluster.node import NodeMemory
from repro.core.block_pcg import BlockPCG
from repro.core.esr import ESRProtocol
from repro.core.redundancy import RedundancyScheme
from repro.distributed import (
    BlockRowPartition,
    DistributedMatrix,
    DistributedMultiVector,
    distributed_spmv,
    spmv_engine,
)
from repro.distributed.dmultivector import fused_dots
from repro.matrices import poisson_1d, poisson_2d
from repro.precond import BlockJacobiPreconditioner

SIDE = 16  # n = 256: at least two rows per rank on 128 nodes


def make_operands(n_nodes, k):
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    matrix = poisson_2d(SIDE)
    partition = BlockRowPartition(matrix.shape[0], n_nodes)
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    rng = np.random.default_rng(0)
    x, y = (DistributedMultiVector.from_global(
        cluster, partition, name, rng.standard_normal((matrix.shape[0], k)))
        for name in ("x", "y"))
    return dist, dist.context, x, y


def count_calls(monkeypatch, op):
    """``(node-memory reads, csr_matvecs calls, node-memory writes)`` of
    ``op()``."""
    counts = {"reads": 0, "kernels": 0, "writes": 0}
    read = NodeMemory.__getitem__
    write = NodeMemory.__setitem__
    kernel = spmv_engine._csr_matvecs

    def counted_read(memory, key):
        counts["reads"] += 1
        return read(memory, key)

    def counted_write(memory, key, value):
        counts["writes"] += 1
        write(memory, key, value)

    def counted_kernel(*args):
        counts["kernels"] += 1
        return kernel(*args)

    with monkeypatch.context() as patch:
        patch.setattr(NodeMemory, "__getitem__", counted_read)
        patch.setattr(NodeMemory, "__setitem__", counted_write)
        patch.setattr(spmv_engine, "_csr_matvecs", counted_kernel)
        op()
    return counts["reads"], counts["kernels"], counts["writes"]


OPS = {
    "axpy": lambda dist, context, x, y: y.axpy(0.5, x),
    "dots": lambda dist, context, x, y: x.dots(y),
    "distributed_spmv": lambda dist, context, x, y: distributed_spmv(
        dist, x, y),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(OPS))
def test_counts_do_not_grow_with_node_count(monkeypatch, name, k):
    counts = {}
    for n_nodes in (16, 128):
        operands = make_operands(n_nodes, k)
        op = OPS[name]
        op(*operands)  # warm-up: liveness checked, engine built
        counts[n_nodes] = count_calls(monkeypatch, lambda: op(*operands))
    assert counts[16] == counts[128]
    if name == "distributed_spmv":
        assert counts[128][1] == 1


@contextlib.contextmanager
def collector_paused():
    """Collect garbage now and keep the cyclic collector off until the
    block ends, then restore its prior state.  A collection that ran while
    an op is counted, and the weak-reference callbacks it fires (SimSan
    watches solvers through a ``WeakKeyDictionary``), would count as the
    op's own events."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def count_profile_events(op, event):
    """How many ``sys.setprofile`` events named *event* ``op()`` makes
    (``"call"``: Python-level calls; ``"c_call"``: C-level calls)."""
    seen = [0]

    def profile(frame, name, arg):
        if name == event:
            seen[0] += 1

    previous = sys.getprofile()
    with collector_paused():
        sys.setprofile(profile)
        try:
            op()
        finally:
            sys.setprofile(previous)
    return seen[0]


def count_lines(op):
    """How many Python lines ``op()`` executes (``sys.settrace`` line
    events; a loop body counts once per pass)."""
    seen = [0]

    def trace(frame, event, arg):
        if event == "line":
            seen[0] += 1
        return trace

    # Put back whatever traced before (a coverage run's tracer, say).
    previous = sys.gettrace()
    with collector_paused():
        sys.settrace(trace)
        try:
            op()
        finally:
            sys.settrace(previous)
    return seen[0]


# 256 rows split evenly over 16 and 128 ranks, 300 rows unevenly.
@pytest.mark.parametrize("n", [256, 300])
@pytest.mark.parametrize("k", [1, 3])
def test_fused_dots_calls_do_not_grow_with_node_count(n, k):
    """The partial dots are batched per run of equal block size and the
    allreduce's failed-node check is one epoch comparison: a warm fused
    reduction makes the same C-level calls and runs the same Python lines
    on 16 and 128 nodes."""
    counts = {}
    for n_nodes in (16, 128):
        cluster = VirtualCluster(n_nodes,
                                 machine=MachineModel(jitter_rel_std=0.0))
        partition = BlockRowPartition(n, n_nodes)
        rng = np.random.default_rng(0)
        x, y = (DistributedMultiVector.from_global(
            cluster, partition, name, rng.standard_normal((n, k)))
            for name in ("x", "y"))

        def op():
            fused_dots([(x, y), (x, x)])

        op()  # warm-up: liveness checked, no node failed
        counts[n_nodes] = (count_profile_events(op, "c_call"),
                           count_lines(op))
    assert counts[16] == counts[128]


def test_preconditioner_makes_one_python_call_per_rank():
    """A warm one-column application calls ``apply_block`` once per rank
    and nothing else per rank (no partition lookups, no rank checks)."""
    counts = {}
    for n_nodes in (16, 128):
        dist, _, x, y = make_operands(n_nodes, 1)
        solver = BlockPCG(dist, x, BlockJacobiPreconditioner())
        solver._apply_preconditioner(x, y)  # warm-up: liveness checked
        counts[n_nodes] = count_profile_events(
            lambda: solver._apply_preconditioner(x, y), "call")
    assert counts[128] - counts[16] == 128 - 16


def esr_store(esr, p, iteration):
    """What the resilient solver stores after the SpMV of *iteration*."""
    esr.after_spmv(p, iteration)
    esr.store_replicated_scalars(iteration, beta=np.full(p.n_cols, 0.5))


def test_warm_esr_stores_write_no_node_memory(monkeypatch):
    counts = {}
    for n_nodes in (16, 128):
        dist, context, x, _ = make_operands(n_nodes, 1)
        esr = ESRProtocol(dist.cluster, RedundancyScheme(context, 3))
        esr_store(esr, x, 0)  # warm-up: both slots registered
        esr_store(esr, x, 1)
        counts[n_nodes] = [count_calls(monkeypatch,
                                       lambda j=j: esr_store(esr, x, j))[2]
                           for j in (2, 3)]
    assert counts == {16: [0, 0], 128: [0, 0]}


def test_esr_stores_register_each_slot_once_after_replacement(monkeypatch):
    """After rank 5 is replaced, each slot's next store puts back only the
    views rank 5 holds, and the first of them also the replicated-scalar
    holder on rank 5; no other node lost anything, so none is written."""
    dist, context, x, _ = make_operands(16, 1)
    cluster = dist.cluster
    scheme = RedundancyScheme(context, 3)
    esr = ESRProtocol(cluster, scheme)

    def writes(iteration):
        return count_calls(monkeypatch,
                           lambda: esr_store(esr, x, iteration))[2]

    cold = [writes(0), writes(1)]
    pairs = len(scheme.held_pattern())
    assert cold == [pairs + 16, pairs]
    views_on_5 = len(scheme.held_index().slices[5])
    assert views_on_5 > 0
    values = x.to_global()
    cluster.fail_nodes([5])
    cluster.replace_nodes([5])
    start, stop = x.partition.range_of(5)
    x.restore_block(5, values[start:stop])
    assert [writes(2), writes(3)] == [views_on_5 + 1, views_on_5]
    assert [writes(4), writes(5)] == [0, 0]


def test_plan_queries_and_scheme_build_do_not_grow_with_node_count():
    """On a 1-D Laplacian every rank has at most two neighbours at any node
    count.  A warm query of one rank then runs the same Python lines on 16
    and 128 ranks, and one ``RedundancyScheme`` build runs the same lines
    per rank.  The build's count is affine in N, not proportional (the two
    end ranks have one neighbour each, and the build has a fixed set-up),
    so per rank it agrees to 2 %.  A scan of the whole plan per query, as
    the pre-indexed plan made, grows the build's count per rank about 2x
    from 16 to 128 ranks."""
    queries, build_per_rank = {}, {}
    for n_nodes in (16, 128):
        cluster = VirtualCluster(n_nodes,
                                 machine=MachineModel(jitter_rel_std=0.0))
        matrix = poisson_1d(4 * n_nodes)
        partition = BlockRowPartition(matrix.shape[0], n_nodes)
        context = DistributedMatrix.from_global(
            cluster, partition, "A", matrix).context
        rank = 5
        ops = (lambda: context.receivers_of(rank),
               lambda: context.senders_to(rank),
               lambda: context.send_indices(rank, rank + 1),
               lambda: context.multiplicity(rank),
               lambda: RedundancyScheme(context, 3))
        for op in ops:
            op()  # warm-up
        *query_lines, build_lines = (count_lines(op) for op in ops)
        queries[n_nodes] = query_lines
        build_per_rank[n_nodes] = build_lines / n_nodes
    assert queries[16] == queries[128]
    assert build_per_rank[128] == pytest.approx(build_per_rank[16], rel=0.02)


def test_holders_with_copies_does_not_grow_with_node_count():
    """On a 1-D Laplacian an owner has the same holders at any node count,
    and a warm ``holders_with_copies`` reads them from the scheme's
    per-owner holder list: it runs the same Python lines on 16 and 128
    ranks.  A scan of the whole held pattern grows with the node count."""
    lines = {}
    for n_nodes in (16, 128):
        cluster = VirtualCluster(n_nodes,
                                 machine=MachineModel(jitter_rel_std=0.0))
        matrix = poisson_1d(4 * n_nodes)
        partition = BlockRowPartition(matrix.shape[0], n_nodes)
        dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
        x = DistributedMultiVector.from_global(
            cluster, partition, "x", np.ones((matrix.shape[0], 1)))
        esr = ESRProtocol(cluster, RedundancyScheme(dist.context, 3))
        esr.after_spmv(x, 0)

        def op():
            return esr.holders_with_copies(5, 0)

        assert op() == [4, 6, 7]
        lines[n_nodes] = count_lines(op)
    assert lines[16] == lines[128]


def test_forward_rows_builds_per_rank_not_per_row(monkeypatch):
    """The rows of one failed rank cost the same number of CSR
    constructions whether the rank owns 16 rows or 64."""
    matrix = poisson_2d(SIDE)
    counts = {}
    for n_nodes in (16, 4):
        partition = BlockRowPartition(matrix.shape[0], n_nodes)
        preconditioner = BlockJacobiPreconditioner()
        preconditioner.setup(matrix, partition)
        rows = partition.indices_of(1)
        built = {"csr": 0}
        init = sp.csr_matrix.__init__

        def counted_init(self, *args, **kwargs):
            built["csr"] += 1
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(sp.csr_matrix, "__init__", counted_init)
            preconditioner.forward_rows(rows)
        counts[rows.size] = built["csr"]
    assert counts[16] == counts[64]
