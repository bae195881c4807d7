"""Guard against per-rank lookups in the hot kernels, by counting calls.

The whole-array kernels -- block BLAS-1, the batched reductions and the
SpMV -- check liveness once per memory epoch, not once per rank, and the
SpMV runs one sparse kernel over all ranks.  So after a warm-up call, one
``axpy``, one ``dots`` and one ``distributed_spmv`` make the same number of
node-memory reads and ``csr_matvecs`` calls on 16 nodes as on 128.  Counting
calls instead of timing them keeps the guard deterministic.
"""

import numpy as np
import pytest

from repro.cluster import MachineModel, VirtualCluster
from repro.cluster.node import NodeMemory
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedMultiVector,
    distributed_spmv,
    spmv_engine,
)
from repro.matrices import poisson_2d

SIDE = 16  # n = 256: at least two rows per rank on 128 nodes


def make_operands(n_nodes, k):
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    matrix = poisson_2d(SIDE)
    partition = BlockRowPartition(matrix.shape[0], n_nodes)
    dist = DistributedMatrix.from_global(cluster, partition, "A", matrix)
    context = CommunicationContext.from_matrix(dist)
    rng = np.random.default_rng(0)
    x, y = (DistributedMultiVector.from_global(
        cluster, partition, name, rng.standard_normal((matrix.shape[0], k)))
        for name in ("x", "y"))
    return dist, context, x, y


def count_calls(monkeypatch, op):
    """``(node-memory reads, csr_matvecs calls)`` of ``op()``."""
    counts = {"reads": 0, "kernels": 0}
    read = NodeMemory.__getitem__
    kernel = spmv_engine._csr_matvecs

    def counted_read(memory, key):
        counts["reads"] += 1
        return read(memory, key)

    def counted_kernel(*args):
        counts["kernels"] += 1
        return kernel(*args)

    with monkeypatch.context() as patch:
        patch.setattr(NodeMemory, "__getitem__", counted_read)
        patch.setattr(spmv_engine, "_csr_matvecs", counted_kernel)
        op()
    return counts["reads"], counts["kernels"]


OPS = {
    "axpy": lambda dist, context, x, y: y.axpy(0.5, x),
    "dots": lambda dist, context, x, y: x.dots(y),
    "distributed_spmv": lambda dist, context, x, y: distributed_spmv(
        dist, x, y, context),
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
