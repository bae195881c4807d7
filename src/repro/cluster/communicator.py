"""The one collective of the virtual cluster: the dot-product allreduce.

The PCG method needs one collective, the allreduce behind its dot products.
Its other traffic -- the SpMV halo exchange and the ESR redundancy messages
(Sec. 4.2) -- is charged by the SpMV engine and the ESR protocol.

Data movement is simulated: the per-rank partial sums arrive as the rows of
one array in the host process and are summed there.  The allreduce still
charges the latency-bandwidth cost model and updates the traffic counters,
which is what the paper's analysis (Sec. 4.2) and experiments measure.  It
is *fault aware* in the spirit of ULFM (Sec. 1.1.1): it raises
:class:`~repro.cluster.errors.CommunicationError` while any node is failed.
A node failing or being replaced clears its memory, which moves the
cluster's :class:`~repro.cluster.node.MemoryEpoch`, so the nodes are looked
at only when the epoch moved since the last allreduce found none failed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import sanitizer as _sanitizer
from .cost_model import CostLedger, Phase
from .errors import CommunicationError
from .node import Node, NodeStatus


class Communicator:
    """Simulated communicator over the nodes of a :class:`VirtualCluster`."""

    def __init__(self, nodes: Sequence[Node], ledger: CostLedger):
        self._nodes = list(nodes)
        self._ledger = ledger
        self._epoch = self._nodes[0].epoch
        if any(node.epoch is not self._epoch for node in self._nodes):
            raise ValueError("the nodes of a communicator must share one "
                             "memory epoch (the nodes of one cluster do)")
        #: Epoch value at which no node was last seen failed.
        self._alive_at = -1

    def allreduce_sum(self, partials: np.ndarray) -> np.ndarray:
        """Sum the rows of *partials* and make the result globally known.

        Row ``r`` of the ``(N, m)`` array is rank ``r``'s contribution.  The
        rows are summed as a running sum in ascending rank order
        (``np.add.accumulate``; ``sum`` may pair terms), so each of the
        ``m`` components accumulates exactly like a one-component reduction
        of that component alone.  That order is the numeric contract that
        a batched reduction matches its single-column counterparts bit for
        bit.

        The ``m`` components of a batched reduction -- the ``k`` per-column
        dots of a multi-RHS block -- ship together: each tree hop still
        moves **one** message, and only the per-hop volume scales with
        ``m``, as the SpMV's ``halo_exchange_cost`` scales with ``n_rhs``.

        Raises :class:`~repro.cluster.errors.CommunicationError`, booking
        nothing, if *partials* is not an ``(N, m)`` array or any node is
        failed.
        """
        n_ranks = len(self._nodes)
        if partials.ndim != 2 or partials.shape[0] != n_ranks:
            raise CommunicationError(
                f"allreduce needs one row per rank, an ({n_ranks}, m) "
                f"array, got shape {partials.shape}")
        epoch = self._epoch.value
        if self._alive_at != epoch:
            failed = [node.rank for node in self._nodes
                      if node.status is NodeStatus.FAILED]
            if failed:
                raise CommunicationError("allreduce involves failed node(s)",
                                         failed_ranks=failed)
            self._alive_at = epoch
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_collective()
        total = np.add.accumulate(partials, axis=0)[-1]
        n_scalars = partials.shape[1]
        phase = Phase.ALLREDUCE_COMM
        self._ledger.add_time(
            phase, self._ledger.model.allreduce_time(n_ranks, n_scalars))
        levels = math.ceil(math.log2(n_ranks)) if n_ranks > 1 else 0
        self._ledger.add_traffic(phase, 2 * levels * n_ranks,
                                 2 * levels * n_ranks * n_scalars)
        return total
