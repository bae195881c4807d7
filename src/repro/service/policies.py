"""Batching policies: which pending requests coalesce into which batch.

A batching policy decides, given the FIFO queue of pending requests and the
current instant, which batches are ready to dispatch *now*.  Policies are
plain functions registered by a decorator in :data:`BATCHING_POLICIES`, a
:class:`~repro.utils.registry.Registry` (the class every named choice
uses), which stores the function itself; a
:class:`~repro.service.SolverService` picks one by its registered name:

.. code-block:: python

    @register_batching_policy("my_policy", "one-line description")
    def my_policy(pending, *, now, window_s, k_max, drain=False):
        return [batch, batch2, ...]   # disjoint sublists of ``pending``

Contract (shared by every policy; pinned by ``tests/test_service_policies``):

* requests may only share a batch if they share the same coalescing ``key``
  and are ``coalescable`` (non-coalescable requests always dispatch alone);
* batches never exceed ``k_max`` requests and list their members in FIFO
  (``seq``) order, so the column order of the resulting block solve -- and
  with it the bit-exact batch execution -- is deterministic;
* with ``drain=True`` every pending request must land in some batch (the
  queue is being flushed for shutdown);
* the returned batches are disjoint and each member is drawn from
  ``pending``; the scheduler removes dispatched requests, anything not
  returned stays queued for a later window.

Two built-in policies:

``fifo_window``
    Strict arrival order: the oldest request defines the head batch, which
    dispatches once full (``k_max``), once the head has waited ``window_s``,
    or on drain.  No request ever overtakes an older one, so per-request
    latency is bounded by ``window_s`` plus the solves queued ahead of it.
``greedy_width``
    Throughput first: pending requests are grouped by key and the widest
    groups dispatch first; full ``k_max`` batches ship immediately while
    partial groups wait out the window of their oldest member.  Maximizes
    amortization at the price of letting wide groups overtake old narrow
    ones.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..utils.registry import Registry
from .jobs import ServiceRequest

#: A batching-policy function:
#: ``(pending, *, now, window_s, k_max, drain) -> batches``.
BatchingPolicyFn = Callable[..., List[List[ServiceRequest]]]

#: The registry :class:`repro.service.SolverService` picks its policy from.
BATCHING_POLICIES: Registry[BatchingPolicyFn] = Registry("batching policy")

#: Register a policy function in :data:`BATCHING_POLICIES` (decorator).
register_batching_policy = BATCHING_POLICIES.register


def _take_group(pending: List[ServiceRequest], head: ServiceRequest,
                k_max: int) -> List[ServiceRequest]:
    """The head batch: *head* plus up to ``k_max - 1`` later key-mates.

    Non-coalescable heads dispatch alone; members keep FIFO order by
    construction (``pending`` is scanned in arrival order).
    """
    if not head.coalescable or k_max <= 1:
        return [head]
    group = [head]
    for req in pending:
        if len(group) == k_max:
            break
        if req is head:
            continue
        if req.coalescable and req.key == head.key:
            group.append(req)
    return group


@register_batching_policy(
    "fifo_window",
    "strict arrival order; head batch waits at most window_s")
def fifo_window(pending: List[ServiceRequest], *, now: float,
                window_s: float, k_max: int,
                drain: bool = False) -> List[List[ServiceRequest]]:
    remaining = list(pending)
    batches: List[List[ServiceRequest]] = []
    while remaining:
        head = remaining[0]
        group = _take_group(remaining, head, k_max)
        full = len(group) == k_max or not head.coalescable
        expired = (now - head.enqueued_at) >= window_s
        if not (full or expired or drain):
            # The head is still inside its batching window: nothing younger
            # may overtake it, so the whole queue waits.
            break
        batches.append(group)
        taken = {req.seq for req in group}
        remaining = [req for req in remaining if req.seq not in taken]
    return batches


@register_batching_policy(
    "greedy_width",
    "widest key groups first; full batches ship immediately")
def greedy_width(pending: List[ServiceRequest], *, now: float,
                 window_s: float, k_max: int,
                 drain: bool = False) -> List[List[ServiceRequest]]:
    # Group by coalescing key; non-coalescable requests are singleton groups
    # keyed by their (unique) sequence number.
    groups: Dict[object, List[ServiceRequest]] = {}
    for req in pending:
        group_key: object = req.key if req.coalescable else ("solo", req.seq)
        groups.setdefault(group_key, []).append(req)
    # Widest first, ties broken by the oldest member -- a deterministic total
    # order, independent of dict insertion order.
    ordered = sorted(groups.values(),
                     key=lambda g: (-len(g), g[0].seq))
    batches: List[List[ServiceRequest]] = []
    for group in ordered:
        solo = not group[0].coalescable
        # Full k_max chunks ship immediately (members stay in FIFO order).
        while len(group) >= k_max and not solo:
            batches.append(group[:k_max])
            group = group[k_max:]
        if not group:
            continue
        expired = (now - group[0].enqueued_at) >= window_s
        if solo or expired or drain:
            batches.append(group)
    return batches
