"""MPI-like communication layer of the virtual cluster.

The solver code is written against this class the same way an MPI code is
written against a communicator: point-to-point sends/receives plus the
collective operations the PCG method needs (allreduce for dot products,
broadcast, gather, allgather).  Two things distinguish it from a real MPI:

* Data movement is simulated -- payloads are handed over by reference on the
  driver process -- but every operation charges the latency-bandwidth cost
  model and updates traffic counters, which is what the paper's analysis
  (Sec. 4.2) and experiments measure.
* The communicator is *fault aware* in the spirit of ULFM (Sec. 1.1.1): an
  operation that involves a failed node raises
  :class:`~repro.cluster.errors.CommunicationError` unless the caller
  explicitly asks for the surviving-subset semantics (``alive_only=True``),
  which models a shrunken/repaired communicator after failure notification.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import sanitizer as _sanitizer
from .cost_model import CostLedger, Phase
from .errors import CommunicationError, NodeFailedError
from .network import Topology
from .node import Node, NodeStatus

#: Marks a rank without a contribution (``None`` is a valid payload).
_MISSING = object()


class Communicator:
    """Simulated communicator over the nodes of a :class:`VirtualCluster`."""

    def __init__(self, nodes: Sequence[Node], topology: Topology,
                 ledger: CostLedger):
        if len(nodes) != topology.n_nodes:
            raise ValueError(
                f"{len(nodes)} nodes but topology has {topology.n_nodes}"
            )
        self._nodes = list(nodes)
        self._topology = topology
        self._ledger = ledger
        #: In-flight point-to-point messages: (dst, tag) -> list of (src, payload)
        self._mailboxes: Dict[Tuple[int, Any], List[Tuple[int, Any]]] = {}

    # -- basic queries ------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of ranks (alive or failed)."""
        return len(self._nodes)

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def ledger(self) -> CostLedger:
        return self._ledger

    def alive_ranks(self) -> List[int]:
        """Ranks whose nodes are currently alive (including replacements)."""
        return [n.rank for n in self._nodes if n.is_alive]

    def failed_ranks(self) -> List[int]:
        """Ranks whose nodes are currently failed."""
        return [n.rank for n in self._nodes if n.is_failed]

    def node(self, rank: int) -> Node:
        return self._nodes[rank]

    def _require_alive(self, ranks: Iterable[int], op: str) -> None:
        failed = [r for r in ranks if self._nodes[r].is_failed]
        if failed:
            raise CommunicationError(
                f"{op} involves failed node(s)", failed_ranks=failed
            )

    # -- cost helpers ---------------------------------------------------------
    def _charge_message(self, src: int, dst: int, n_elements: int,
                        phase: str) -> float:
        latency = self._topology.latency(src, dst)
        cost = self._ledger.model.message_time(latency, n_elements)
        self._ledger.add_time(phase, cost)
        self._ledger.add_traffic(phase, 1, n_elements)
        return cost

    # -- point-to-point -------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, *, tag: Any = None,
             n_elements: Optional[int] = None, phase: str = Phase.HALO_COMM,
             charge: bool = True) -> None:
        """Send *payload* from rank *src* to rank *dst*.

        ``n_elements`` overrides the element count used for cost accounting
        (by default the payload's ``size``/length is used).  The payload is
        buffered until the matching :meth:`recv`.
        """
        self._require_alive([src, dst], "send")
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_send(self, src, dst, tag)
        if charge:
            if n_elements is None:
                n_elements = _payload_elements(payload)
            self._charge_message(src, dst, n_elements, phase)
        self._mailboxes.setdefault((dst, tag), []).append((src, payload))

    def recv(self, dst: int, src: Optional[int] = None, *, tag: Any = None) -> Any:
        """Receive a message addressed to *dst* (optionally from a given *src*)."""
        if self._nodes[dst].is_failed:
            raise NodeFailedError(dst, "cannot receive on a failed node")
        box = self._mailboxes.get((dst, tag), [])
        for idx, (sender, payload) in enumerate(box):
            if src is None or sender == src:
                box.pop(idx)
                if not box:
                    self._mailboxes.pop((dst, tag), None)
                return payload
        raise CommunicationError(
            f"no matching message for rank {dst} (src={src}, tag={tag!r})"
        )

    def pending_messages(self) -> int:
        """Number of sent-but-not-received messages (should be 0 between phases)."""
        return sum(len(v) for v in self._mailboxes.values())

    def drop_messages_to_failed(self) -> int:
        """Discard buffered messages addressed to failed ranks (ULFM semantics)."""
        dropped = 0
        for (dst, tag) in list(self._mailboxes.keys()):
            if self._nodes[dst].is_failed:
                dropped += len(self._mailboxes.pop((dst, tag)))
        return dropped

    # -- collectives ------------------------------------------------------------
    def allreduce_sum(self, contributions: Dict[int, Any], *,
                      alive_only: bool = False,
                      phase: str = Phase.ALLREDUCE_COMM) -> Any:
        """Sum the per-rank *contributions* and make the result globally known.

        Parameters
        ----------
        contributions:
            Mapping ``rank -> value`` (scalar or ndarray).  Every alive rank
            must contribute exactly once, and all contributions must carry
            the same element count.
        alive_only:
            If false (default), any failed rank among the contributors or in
            the communicator aborts the operation, mimicking a collective on a
            broken communicator.  If true, the collective runs on the shrunken
            set of alive ranks only (post-notification semantics).

        Notes
        -----
        Batched reductions -- the ``k`` per-column dots of a multi-RHS
        block -- pass ndarray contributions: each tree hop still moves
        **one** message (the message count is independent of the payload
        width), only the per-hop volume scales with the element count,
        mirroring how the SpMV's ``halo_exchange_cost`` scales with
        ``n_rhs``.  This is the amortization
        :meth:`~repro.distributed.dmultivector.DistributedMultiVector.dots`
        and :class:`~repro.core.block_pcg.BlockPCG` build on.  The partial
        values are summed in ascending rank order regardless of payload
        shape, so each component of a batched reduction accumulates exactly
        like the corresponding scalar reduction.
        """
        # One pass over the ranks validates and collects the values.
        failed: List[int] = []
        missing: List[int] = []
        values: List[Any] = []
        sizes: List[int] = []
        for rank, node in enumerate(self._nodes):
            if node.status is NodeStatus.FAILED:
                if not alive_only:
                    failed.append(rank)
                continue
            value = contributions.get(rank, _MISSING)
            if value is _MISSING:
                missing.append(rank)
                continue
            values.append(value)
            sizes.append(value.size if type(value) is np.ndarray
                         else _payload_elements(value))
        if failed:
            raise CommunicationError("allreduce involves failed node(s)",
                                     failed_ranks=failed)
        if missing:
            raise CommunicationError(
                f"allreduce is missing contributions from ranks {missing}"
            )
        if not values:
            raise CommunicationError("allreduce with no participants")
        n_scalars = sizes[0]
        if sizes.count(n_scalars) != len(sizes):
            raise CommunicationError(
                f"allreduce contributions have mismatched sizes "
                f"{sorted(set(sizes))}"
            )
        if _sanitizer._ACTIVE is not None:
            # After the size check: a size mismatch stays a CommunicationError
            # (the communicator's own contract); the sanitizer adds the
            # stricter same-shape check on top.
            _sanitizer._ACTIVE.on_collective(
                self, "allreduce_sum",
                {rank: contributions[rank]
                 for rank, node in enumerate(self._nodes)
                 if node.is_alive and rank in contributions})
        # Summed in rank order with a plain Python loop (not np.sum over a
        # stacked array): the accumulation order is part of the numeric
        # contract that batched reductions match their scalar counterparts
        # component by component.
        total = values[0]
        for value in values[1:]:
            total = total + value
        n_participants = len(values)
        self._ledger.add_time(
            phase, self._ledger.model.allreduce_time(n_participants, n_scalars)
        )
        levels = math.ceil(math.log2(n_participants)) if n_participants > 1 else 0
        self._ledger.add_traffic(phase, 2 * levels * n_participants,
                                 2 * levels * n_participants * n_scalars)
        return total

    def bcast(self, root: int, payload: Any, *, alive_only: bool = False,
              phase: str = Phase.ALLREDUCE_COMM) -> Dict[int, Any]:
        """Broadcast *payload* from *root*; returns ``rank -> payload`` map."""
        participants = self.alive_ranks() if alive_only else list(range(self.size))
        if not alive_only:
            self._require_alive(participants, "bcast")
        if self._nodes[root].is_failed:
            raise CommunicationError("broadcast root has failed",
                                     failed_ranks=[root])
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_collective(self, "bcast")
        n_elements = _payload_elements(payload)
        n_participants = len(participants)
        levels = math.ceil(math.log2(n_participants)) if n_participants > 1 else 0
        per_level = self._ledger.model.allreduce_term_latency + \
            n_elements * self._ledger.model.element_transfer_time
        self._ledger.add_time(phase, levels * per_level)
        self._ledger.add_traffic(phase, max(n_participants - 1, 0),
                                 max(n_participants - 1, 0) * n_elements)
        return {rank: payload for rank in participants if self._nodes[rank].is_alive}

    def gather(self, root: int, contributions: Dict[int, Any], *,
               alive_only: bool = False,
               phase: str = Phase.RECOVERY_COMM) -> Dict[int, Any]:
        """Gather per-rank payloads at *root*; returns the collected mapping."""
        participants = self.alive_ranks() if alive_only else list(range(self.size))
        if not alive_only:
            self._require_alive(participants, "gather")
        if self._nodes[root].is_failed:
            raise CommunicationError("gather root has failed", failed_ranks=[root])
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_collective(self, "gather")
        collected: Dict[int, Any] = {}
        for rank in participants:
            if rank not in contributions:
                continue
            payload = contributions[rank]
            if rank != root:
                self._charge_message(rank, root, _payload_elements(payload), phase)
            collected[rank] = payload
        return collected

    def allgather(self, contributions: Dict[int, Any], *,
                  alive_only: bool = False,
                  phase: str = Phase.RECOVERY_COMM) -> Dict[int, Any]:
        """All-to-all gather: every alive rank ends up with every contribution.

        Cost model: ring/bruck-style allgather, ``(p-1)`` rounds each moving
        the average payload size.
        """
        participants = self.alive_ranks() if alive_only else list(range(self.size))
        if not alive_only:
            self._require_alive(participants, "allgather")
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_collective(self, "allgather")
        present = [r for r in participants if r in contributions]
        if not present:
            return {}
        sizes = [_payload_elements(contributions[r]) for r in present]
        total_elements = int(np.sum(sizes))
        p = len(present)
        if p > 1:
            max_latency = max(
                self._topology.latency(a, b)
                for a in present for b in present if a != b
            )
            cost = (p - 1) * max_latency + \
                total_elements * self._ledger.model.element_transfer_time
            self._ledger.add_time(phase, cost)
            self._ledger.add_traffic(phase, p * (p - 1), (p - 1) * total_elements)
        return {r: contributions[r] for r in present}

    def barrier(self, *, alive_only: bool = False,
                phase: str = Phase.ALLREDUCE_COMM) -> None:
        """Synchronise all (alive) ranks; charged like a zero-payload allreduce."""
        participants = self.alive_ranks() if alive_only else list(range(self.size))
        if not alive_only:
            self._require_alive(participants, "barrier")
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_collective(self, "barrier")
        self._ledger.add_time(
            phase, self._ledger.model.allreduce_time(len(participants), 0)
        )


def _payload_elements(payload: Any) -> int:
    """Best-effort element count of a message payload for cost accounting."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (int, float, complex, np.generic)):
        return 1
    if isinstance(payload, (list, tuple)):
        return sum(_payload_elements(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_payload_elements(p) for p in payload.values())
    size = getattr(payload, "size", None)
    if size is not None:
        return int(size)
    return 1
