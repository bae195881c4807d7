"""Backup-node placement strategies behind a decorator registry.

The paper selects the ``phi`` backup nodes ``d_i1 .. d_iphi`` of owner ``i``
with the alternating-neighbour heuristic of Eqn. (5) and explicitly leaves
the optimal placement for general settings as future work.  This module
turns the placement choice into a registry: each strategy is a function
``(owner, phi, n_nodes) -> targets`` registered under a short name via
``@register_placement("name")`` in :data:`PLACEMENTS` -- a
:class:`~repro.utils.registry.Registry`, the class every named choice
uses.  A placement is picked by its registered name everywhere (the
:class:`~repro.core.spec.ResilienceSpec` field, the redundancy schemes,
the analysis helpers, the harness), and
:func:`~repro.core.redundancy.backup_targets` looks the function up and
checks the targets it returns.

Besides the three historical options (``"paper"``, ``"next_ranks"``,
``"random"``), two failure-domain-aware strategies are provided for the
reliability campaigns of :mod:`repro.harness.campaign`:

``"rack_aware"``
    Spread the backups over ranks in *other* racks (failure domains), so a
    correlated burst that takes out the owner's whole rack never takes the
    designated backups with it.
``"copyset"``
    Copyset-style placement: the ranks are grouped into a small number of
    fixed copysets of ``phi + 1`` members each (built rack-striding, so a
    set spans as many racks as possible) and an owner's backups all come
    from its own copyset.  This minimises the number of distinct
    ``phi + 1``-subsets whose simultaneous loss is fatal.

Racks are modelled by :class:`RackLayout`: ``rack_size`` contiguous ranks
per rack.  Every rack-aware decision -- these two placements, the parity
stripes of :mod:`repro.core.rs_parity` and the correlated bursts of
:mod:`repro.failures.traces` -- uses the one layout
:meth:`RackLayout.default` derives from the node count, so a burst and
the backups placed against it agree on what a rack is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..utils.registry import Registry
from ..utils.rng import as_rng


#: Ranks per rack of the default layout (clamped to keep two racks).
DEFAULT_RACK_SIZE = 4


@dataclass(frozen=True)
class RackLayout:
    """Contiguous-rank rack model: rack ``j`` holds ranks ``[j*s, (j+1)*s)``.

    This is the failure-domain model shared by the placement strategies,
    the parity stripes and the correlated-burst trace generator
    (:class:`repro.failures.traces.TraceSpec`): a "rack" is ``rack_size``
    contiguous ranks (the last rack may be smaller).  All of them use
    :meth:`default`.
    """

    n_nodes: int
    rack_size: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.rack_size < 1:
            raise ValueError(
                f"rack_size must be positive, got {self.rack_size}")

    @classmethod
    def default(cls, n_nodes: int) -> "RackLayout":
        """Layout for *n_nodes*, clamping the rack size to keep >= 2 racks.

        With fewer than two racks every rack-aware strategy would degenerate
        (there is no "other" failure domain), so the rack size is
        ``min(DEFAULT_RACK_SIZE, ceil(n_nodes / 2))``.
        """
        return cls(n_nodes, min(DEFAULT_RACK_SIZE, max(1, (n_nodes + 1) // 2)))

    @property
    def n_racks(self) -> int:
        return -(-self.n_nodes // self.rack_size)

    def rack_of(self, rank: int) -> int:
        if not 0 <= rank < self.n_nodes:
            raise ValueError(
                f"rank {rank} out of range for {self.n_nodes} nodes")
        return rank // self.rack_size

    def position_in_rack(self, rank: int) -> int:
        """Offset of *rank* inside its rack (0-based)."""
        return rank - self.rack_of(rank) * self.rack_size

    def ranks_in(self, rack: int) -> List[int]:
        if not 0 <= rack < self.n_racks:
            raise ValueError(
                f"rack {rack} out of range for {self.n_racks} racks")
        start = rack * self.rack_size
        return list(range(start, min(start + self.rack_size, self.n_nodes)))

    def racks(self) -> List[List[int]]:
        return [self.ranks_in(j) for j in range(self.n_racks)]

    def striding_order(self) -> List[int]:
        """The ranks rack-striding: first one rank per rack, then the second
        rank of every rack, ... -- consecutive entries live in distinct
        racks, so a contiguous group spans as many racks as exist."""
        return sorted(range(self.n_nodes),
                      key=lambda r: (self.position_in_rack(r),
                                     self.rack_of(r)))


#: A placement function: ``(owner, phi, n_nodes) -> targets``.
PlacementFn = Callable[[int, int, int], List[int]]

#: The registry :func:`~repro.core.redundancy.backup_targets` consults.
PLACEMENTS: Registry[PlacementFn] = Registry("placement")

#: Register a placement function in :data:`PLACEMENTS` (decorator).
register_placement = PLACEMENTS.register


def paper_backup_target(owner: int, k: int, n_nodes: int) -> int:
    """``d_ik`` of Eqn. (5) (1-based round index ``k``)."""
    if k < 1:
        raise ValueError(f"round index k must be >= 1, got {k}")
    if k % 2 == 1:
        return (owner + math.ceil(k / 2)) % n_nodes
    return (owner - k // 2) % n_nodes


@register_placement("paper", "Eqn. (5): alternating +-1, +-2, ... neighbours")
def _paper_placement(owner: int, phi: int, n_nodes: int) -> List[int]:
    return [paper_backup_target(owner, k, n_nodes) for k in range(1, phi + 1)]


@register_placement("next_ranks", "the next phi ranks i+1 .. i+phi (mod N)")
def _next_ranks_placement(owner: int, phi: int, n_nodes: int) -> List[int]:
    return [(owner + k) % n_nodes for k in range(1, phi + 1)]


@register_placement("random", "phi distinct ranks chosen uniformly per owner")
def _random_placement(owner: int, phi: int, n_nodes: int) -> List[int]:
    # Seeded per owner: reproducible without any configuration.
    rng = as_rng(owner)
    candidates = [r for r in range(n_nodes) if r != owner]
    idx = rng.choice(len(candidates), size=phi, replace=False)
    return [candidates[int(t)] for t in idx]


@register_placement("rack_aware",
                    "spread the backups over ranks in other racks")
def _rack_aware_placement(owner: int, phi: int, n_nodes: int) -> List[int]:
    layout = RackLayout.default(n_nodes)
    owner_rack = layout.rack_of(owner)
    targets: List[int] = []
    chosen = {owner}
    used_racks = {owner_rack}
    # Pass 1: walk away from the owner, taking at most one rank per rack and
    # skipping the owner's own rack entirely -- each backup lands in a fresh
    # failure domain.
    for off in range(1, n_nodes):
        if len(targets) == phi:
            break
        rank = (owner + off) % n_nodes
        rack = layout.rack_of(rank)
        if rack not in used_racks:
            targets.append(rank)
            chosen.add(rank)
            used_racks.add(rack)
    # Pass 2 (fewer racks than phi + 1): any off-rack rank.
    for off in range(1, n_nodes):
        if len(targets) == phi:
            break
        rank = (owner + off) % n_nodes
        if rank not in chosen and layout.rack_of(rank) != owner_rack:
            targets.append(rank)
            chosen.add(rank)
    # Pass 3 (phi too large for the off-rack population): anything distinct.
    for off in range(1, n_nodes):
        if len(targets) == phi:
            break
        rank = (owner + off) % n_nodes
        if rank not in chosen:
            targets.append(rank)
            chosen.add(rank)
    return targets


@functools.lru_cache(maxsize=32)
def _default_striding_order(n_nodes: int) -> Tuple[int, ...]:
    """The default layout's rack-striding order, sorted once per node count
    (every owner of a copyset scheme build reads it)."""
    return tuple(RackLayout.default(n_nodes).striding_order())


@register_placement("copyset",
                    "fixed rack-striding copysets of phi + 1 ranks")
def _copyset_placement(owner: int, phi: int, n_nodes: int) -> List[int]:
    if phi == 0:
        return []
    layout = RackLayout.default(n_nodes)
    order = _default_striding_order(n_nodes)
    group_size = phi + 1
    n_groups = max(n_nodes // group_size, 1)
    pos = order.index(owner)
    group = min(pos // group_size, n_groups - 1)
    start = group * group_size
    # The last group absorbs the remainder so every group has >= phi + 1
    # members.
    stop = start + group_size if group < n_groups - 1 else n_nodes
    members = list(order[start:stop])
    at = members.index(owner)
    ring = members[at + 1:] + members[:at]
    # Off-rack members first (stable within each class): the round-1 backup
    # -- which receives the largest extra sets -- never shares the owner's
    # failure domain when the copyset spans more than one rack.
    owner_rack = layout.rack_of(owner)
    ring.sort(key=lambda r: layout.rack_of(r) == owner_rack)
    return ring[:phi]
