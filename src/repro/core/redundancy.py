"""Redundant-copy placement for the ESR approach (Secs. 3 and 4.1).

During every SpMV ``u = A p``, node ``i`` sends the subset ``S_ik`` of its
block ``p_{I_i}`` to node ``k`` (determined by the sparsity pattern of ``A``).
Every receiver keeps what it received, so after the SpMV each element ``s`` of
``p_{I_i}`` already has ``m_i(s)`` copies on other nodes (Eqn. (3)).

*Chen's single-failure scheme* (Sec. 3) additionally ships the never-sent
elements ``R^c_i = {s : m_i(s) = 0}`` to the next rank ``d_i = (i+1) mod N``
-- enough for one failure, but two adjacent simultaneous failures lose data.

*The paper's multi-failure scheme* (Sec. 4.1) designates ``phi`` backup nodes
``d_i1, ..., d_iphi`` per owner (Eqn. (5): alternating +1, -1, +2, -2, ...
neighbours) and ships to backup ``d_ik`` the minimal extra set ``R^c_ik`` of
Eqn. (6), which guarantees that every element ends up on at least ``phi``
distinct nodes other than its owner.

:class:`RedundancyScheme` computes these sets from a
:class:`~repro.distributed.comm_context.CommunicationContext`, provides the
held-element pattern the ESR protocol stores each iteration, and knows the
per-round communication overhead of Sec. 4.2.  Alternative placements (naive
next-ranks, random, and the failure-domain-aware strategies) are included
for the placement ablation the paper lists as future work; they are
registered by name in :mod:`repro.core.placement`.

**The scheme registry.**  Keeping ``phi`` *full* copies is only one point
on the overhead-vs-tolerance frontier; erasure-coded alternatives (e.g. the
Reed-Solomon parity stripes of :mod:`repro.core.rs_parity`) tolerate the
same number of failures at a fraction of the stored volume.  The redundancy
layer is therefore pluggable: scheme classes register under short names via
``@register_redundancy_scheme("name")`` in :data:`REDUNDANCY_SCHEMES` (a
:class:`~repro.utils.registry.Registry`, the class every named choice
uses), a :class:`~repro.core.spec.ResilienceSpec` selects one by name
through its ``scheme`` field, and :func:`build_redundancy_scheme` builds
the named class -- once per plan and layout: the scheme is kept in the
plan's :attr:`~repro.distributed.comm_context.CommunicationContext.schemes`
under ``(name, phi, placement)``, so every resilient solve of one problem
(whose matrix owns the plan) with that layout gets the same instance, and
it is freed with the problem.  A solver's ``_init_resilience`` hands it to
its :class:`~repro.core.esr.ESRProtocol`.  Caching is safe because a
scheme holds only static layout, derived from the plan, ``phi`` and the
placement alone: the rack layout is
:meth:`~repro.core.placement.RackLayout.default` of the node count and
the ``random`` placement seeds per owner.  :class:`RedundancySchemeBase`
holds the layout every scheme shares (``phi``, partition, placement) and
what is derived from it once: the static tables of a held pattern
(:class:`HeldIndex`), which every ESR protocol over the scheme reads, and
the per-iteration overhead charge.  ``"copies"`` -- this module's
:class:`RedundancyScheme` -- is the default and reproduces the paper's
behaviour bit for bit; ``"rs_parity"`` registers when :mod:`repro.core`
imports :mod:`repro.core.rs_parity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from ..cluster.network import FatTreeTopology
from ..distributed.comm_context import CommunicationContext
from ..distributed.partition import BlockRowPartition
from ..utils.registry import Registry
from .placement import PLACEMENTS

__all__ = [
    "HeldIndex",
    "OwnerRedundancy",
    "REDUNDANCY_SCHEMES",
    "RedundancyScheme",
    "RedundancySchemeBase",
    "backup_targets",
    "build_redundancy_scheme",
    "register_redundancy_scheme",
]


def backup_targets(owner: int, phi: int, n_nodes: int,
                   placement: str = "paper") -> List[int]:
    """The ``phi`` backup nodes of *owner* under the chosen placement.

    *placement* is a name registered in
    :data:`repro.core.placement.PLACEMENTS`.  The targets are guaranteed to
    be distinct and different from the owner; this requires
    ``phi < n_nodes``.
    """
    if not 0 <= owner < n_nodes:
        raise ValueError(f"owner {owner} out of range for {n_nodes} nodes")
    if phi < 0:
        raise ValueError(f"phi must be non-negative, got {phi}")
    if phi >= n_nodes:
        raise ValueError(
            f"phi must be smaller than the number of nodes ({phi} >= {n_nodes}): "
            "fewer than phi+1 distinct nodes cannot hold phi+1 copies"
        )
    targets = PLACEMENTS.get(placement)(owner, phi, n_nodes)
    if len(targets) != phi or len(set(targets)) != len(targets) \
            or owner in targets:
        # A real error, not an assert: a broken *registered* strategy must
        # fail loudly (and identifiably) even under ``python -O``.
        raise ValueError(
            f"placement strategy {placement.lower()!r} returned invalid backup "
            f"targets {targets} for owner {owner} (phi={phi}, N={n_nodes}): "
            "targets must be phi distinct ranks different from the owner"
        )
    return [int(t) for t in targets]


@dataclass(frozen=True)
class OwnerRedundancy:
    """Redundancy bookkeeping for one owner node ``i``."""

    owner: int
    #: Backup ranks ``d_i1 .. d_iphi`` in round order.
    targets: Tuple[int, ...]
    #: Per round ``k`` (0-based list index): global indices of ``R^c_ik``.
    extra_indices: Tuple[np.ndarray, ...]
    #: ``m_i(s)`` per local element.
    multiplicity: np.ndarray
    #: ``g_i(s)`` per local element (copies landing on designated backups anyway).
    natural_backup_count: np.ndarray

    @property
    def extra_counts(self) -> List[int]:
        """``|R^c_ik|`` per round."""
        return [int(idx.size) for idx in self.extra_indices]

    @property
    def total_extra(self) -> int:
        return int(sum(self.extra_counts))


class HeldIndex:
    """The static tables of a held pattern, built once per scheme.

    Every ESR protocol over the scheme reads them
    (:meth:`RedundancySchemeBase.held_index` builds them on first use):

    * :attr:`local` -- per ``(owner, holder)`` pair, the offsets of its
      elements in the owner's block;
    * :attr:`gather` -- the global indices of all pairs, concatenated holder
      by holder in ascending order (owners ascending within a holder): one
      gather index into the search direction;
    * :attr:`slices` -- per holder, in ascending order, ``[(owner, lo, hi),
      ...]``: each of its pairs' copies are rows ``lo:hi`` of the gathered
      rows;
    * :attr:`holders_of` -- per owner, the holders of its copies in
      ascending order.
    """

    def __init__(self, pattern: Mapping[Tuple[int, int], np.ndarray],
                 partition: BlockRowPartition):
        self.local: Dict[Tuple[int, int], np.ndarray] = {}
        self.holders_of: Dict[int, List[int]] = {}
        by_holder: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for (owner, holder), idx in sorted(pattern.items()):
            start, _ = partition.range_of(owner)
            self.local[(owner, holder)] = idx - start
            self.holders_of.setdefault(owner, []).append(holder)
            by_holder.setdefault(holder, []).append((owner, idx))
        self.slices: Dict[int, List[Tuple[int, int, int]]] = {}
        chunks: List[np.ndarray] = []
        pos = 0
        for holder in sorted(by_holder):
            slices = self.slices[holder] = []
            for owner, idx in by_holder[holder]:
                slices.append((owner, pos, pos + int(idx.size)))
                chunks.append(idx)
                pos += int(idx.size)
        self.gather = (np.concatenate(chunks) if chunks
                       else np.empty(0, dtype=np.int64))


class RedundancySchemeBase:
    """Interface every registered redundancy scheme implements.

    A scheme decides *what* redundant state the ESR protocol keeps per
    generation and what it costs; the protocol (:class:`repro.core.esr.
    ESRProtocol`) owns the node-memory I/O.  Concrete schemes come in two
    kinds, advertised through :attr:`kind`:

    ``"pattern"``
        Full-copy schemes: :meth:`held_pattern` maps ``(owner, holder)``
        pairs to the global element indices the holder snapshots each
        iteration, and recovery re-assembles a block from surviving copies.

    ``"parity"``
        Erasure-coded schemes: owners are grouped into stripes and only
        small parity blocks travel; recovery solves the per-group parity
        system (see :mod:`repro.core.rs_parity`).

    Every scheme owes the **charge-model contract** of Sec. 4.2: the
    per-round times, the per-iteration traffic, and bounds satisfying
    ``lower <= per_iteration_overhead_time <= upper`` for every node count
    / ``n_cols`` / placement combination (pinned by the property tests for
    all registered schemes).
    """

    #: Registered name; set by :func:`register_redundancy_scheme`.
    scheme_name: str = "?"
    #: ``"pattern"`` (full copies) or ``"parity"`` (erasure-coded).
    kind: str = "pattern"

    def __init__(self, context: CommunicationContext, phi: int, *,
                 placement: str = "paper"):
        """The layout every scheme shares: ``0 <= phi < N`` over the
        context's partition and the placement's registered name."""
        if phi < 0:
            raise ValueError(f"phi must be non-negative, got {phi}")
        self.context = context
        self.partition: BlockRowPartition = context.partition
        self.phi = int(phi)
        PLACEMENTS.get(placement)  # an unknown name raises ValueError
        #: The placement's registered (lower-case) name.
        self.placement = placement.lower()
        n_nodes = self.partition.n_parts
        if phi >= n_nodes:
            raise ValueError(
                f"phi={phi} requires at least phi+1={phi + 1} nodes, "
                f"but the cluster has {n_nodes}"
            )
        #: ``(topology, model, n_cols) -> iteration_overhead(...)``.
        self._overheads: Dict[Tuple[Any, ...],
                              Tuple[float, Tuple[int, int]]] = {}
        self._held_index: Optional[HeldIndex] = None

    # -- held pattern (``kind = "pattern"``) ----------------------------------
    def held_pattern(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Map ``(owner, holder) -> global indices`` the holder keeps per
        iteration (pattern-kind schemes)."""
        raise NotImplementedError

    def held_index(self) -> HeldIndex:
        """The static tables of :meth:`held_pattern`, built on first use."""
        if self._held_index is None:
            self._held_index = HeldIndex(self.held_pattern(), self.partition)
        return self._held_index

    # -- charge model (Sec. 4.2) ------------------------------------------------
    def round_overhead_times(self, topology: FatTreeTopology, model: Any,
                             n_cols: int = 1) -> List[float]:
        """Per-round redundancy overhead times (one entry per round)."""
        raise NotImplementedError

    def per_iteration_overhead_time(self, topology: FatTreeTopology,
                                    model: Any, n_cols: int = 1) -> float:
        """Total redundancy overhead per iteration (sum of the round maxima)."""
        return float(sum(self.round_overhead_times(topology, model,
                                                   n_cols=n_cols)))

    def iteration_overhead(self, topology: FatTreeTopology, model: Any,
                           n_cols: int = 1
                           ) -> Tuple[float, Tuple[int, int]]:
        """``(per_iteration_overhead_time, extra_traffic_per_iteration)``,
        computed once per topology, machine model and column count (what
        an ESR protocol charges every iteration)."""
        key = (topology, model, n_cols)
        overhead = self._overheads.get(key)
        if overhead is None:
            overhead = self._overheads[key] = (
                self.per_iteration_overhead_time(topology, model,
                                                 n_cols=n_cols),
                self.extra_traffic_per_iteration(n_cols=n_cols))
        return overhead

    def overhead_bounds(self, topology: FatTreeTopology, model: Any,
                        n_cols: int = 1) -> Tuple[float, float]:
        """``(lower, upper)`` sandwich around the per-iteration overhead.

        ``lower`` is the scheme's volume with every latency hidden
        (:meth:`_lower_bound_elements` elements), ``upper`` the Sec. 4.2
        bound ``phi (lambda_max + ceil(n/N) mu)`` of completely unshared,
        full-block messages.  For block solves (``n_cols > 1``) the volume
        terms of both scale with the column count, matching
        :meth:`round_overhead_times`.
        """
        mu = model.element_transfer_time * n_cols
        upper = self.phi * (
            topology.max_latency() + self.partition.max_block_size() * mu
        )
        return float(self._lower_bound_elements() * mu), float(upper)

    def _lower_bound_elements(self) -> int:
        """Elements of the lower bound (the overhead with no latency)."""
        raise NotImplementedError

    def extra_traffic_per_iteration(self, n_cols: int = 1) -> Tuple[int, int]:
        """``(messages, elements)`` of extra redundancy traffic per iteration."""
        raise NotImplementedError

    # -- storage accounting ------------------------------------------------------
    def redundant_elements_per_generation(self, n_cols: int = 1) -> int:
        """Redundant elements stored cluster-wide per retained generation.

        The storage-overhead axis of the scheme frontier
        (``bench_redundancy_schemes.py``): full copies store the whole held
        pattern, parity schemes a local snapshot plus ``m`` parity blocks
        per group.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}(phi={self.phi})"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()


#: The registry consulted by :func:`build_redundancy_scheme`.
REDUNDANCY_SCHEMES: Registry[Type[RedundancySchemeBase]] = \
    Registry("redundancy scheme")


def register_redundancy_scheme(name: str, description: str = ""
                               ) -> Callable[[Type[RedundancySchemeBase]],
                                             Type[RedundancySchemeBase]]:
    """Decorator adding a scheme class to :data:`REDUNDANCY_SCHEMES`."""
    key = str(name).lower()

    def decorator(cls: Type[RedundancySchemeBase]
                  ) -> Type[RedundancySchemeBase]:
        cls.scheme_name = key
        REDUNDANCY_SCHEMES.add(key, cls, description)
        return cls

    return decorator


def build_redundancy_scheme(name: str, context: CommunicationContext,
                            phi: int, *,
                            placement: str = "paper"
                            ) -> RedundancySchemeBase:
    """The scheme registered under *name*, laid out over *context*.

    The registered class is built as ``cls(context, phi,
    placement=...)`` and kept in ``context.schemes`` under ``(name, phi,
    placement)``: a later call with the same layout returns that instance.
    An invalid layout raises ``ValueError`` on every call, and nothing is
    kept.
    """
    cls = REDUNDANCY_SCHEMES.get(name)
    key = (cls.scheme_name, phi, str(placement).lower())
    scheme = context.schemes.get(key)
    if scheme is None:
        scheme = context.schemes[key] = cls(context, phi, placement=placement)
    return scheme


@register_redundancy_scheme(
    "copies",
    "phi full off-node copies per block (the paper's Sec. 4.1 scheme)")
class RedundancyScheme(RedundancySchemeBase):
    """Computes and stores the multi-failure redundancy sets of Sec. 4.1."""

    def __init__(self, context: CommunicationContext, phi: int, *,
                 placement: str = "paper"):
        super().__init__(context, phi, placement=placement)
        self._owners: Dict[int, OwnerRedundancy] = {}
        for owner in range(self.partition.n_parts):
            self._owners[owner] = self._compute_owner(owner)
        # The held pattern is immutable after construction; memoize it so
        # per-iteration consumers (the ESR protocol) pay O(pattern) once
        # instead of O(N * pattern) per query.
        self._held_pattern = self._compute_held_pattern()
        #: Per-owner copy counts; only the invariant oracle reads them, so
        #: the first :meth:`copy_count` counts them.
        self._copy_counts: Optional[Dict[int, np.ndarray]] = None

    # -- per-owner computation -------------------------------------------------
    def _compute_owner(self, owner: int) -> OwnerRedundancy:
        partition = self.partition
        n_nodes = partition.n_parts
        start, _stop = partition.range_of(owner)
        size = partition.size_of(owner)
        multiplicity = self.context.multiplicity(owner)

        targets = backup_targets(owner, self.phi, n_nodes, self.placement)

        # Membership masks: does backup d_ik naturally receive element s?
        member = np.zeros((self.phi, size), dtype=bool)
        for k0, target in enumerate(targets):
            idx = self.context.send_indices(owner, target)
            if idx.size:
                member[k0, idx - start] = True
        natural_backup_count = member.sum(axis=0).astype(np.int64)

        extras: List[np.ndarray] = []
        for k0 in range(self.phi):
            k = k0 + 1  # Eqn. (6) uses 1-based round indices
            need_mask = (~member[k0]) & (
                multiplicity - natural_backup_count <= self.phi - k
            )
            extras.append(np.nonzero(need_mask)[0].astype(np.int64) + start)
        return OwnerRedundancy(
            owner=owner,
            targets=tuple(targets),
            extra_indices=tuple(extras),
            multiplicity=multiplicity,
            natural_backup_count=natural_backup_count,
        )

    # -- queries ------------------------------------------------------------------
    def owner(self, rank: int) -> OwnerRedundancy:
        return self._owners[rank]

    def extra_indices(self, owner: int, round_k: int) -> np.ndarray:
        """``R^c_ik`` (global indices) for 1-based round ``round_k``."""
        if not 1 <= round_k <= self.phi:
            raise ValueError(f"round_k must be in [1, {self.phi}], got {round_k}")
        return self._owners[owner].extra_indices[round_k - 1]

    def extra_count(self, owner: int, round_k: int) -> int:
        return int(self.extra_indices(owner, round_k).size)

    def max_extra_per_round(self) -> List[int]:
        """``max_i |R^c_ik|`` per round (Sec. 4.2)."""
        return [
            max((self.extra_count(owner, k) for owner in self._owners), default=0)
            for k in range(1, self.phi + 1)
        ]

    def total_extra_elements(self) -> int:
        """Total extra elements shipped per iteration across all nodes/rounds."""
        return sum(o.total_extra for o in self._owners.values())

    # -- held-element pattern (what each node stores after the exchange) ----------------
    def held_pattern(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Map ``(owner, holder) -> global indices`` the holder keeps per iteration.

        The holder keeps the union of what it receives naturally for the SpMV
        (``S_ik``) and the extras it receives as a designated backup
        (``R^c_ik``).  The ESR protocol snapshots exactly these values for the
        two most recent search directions.

        The pattern is immutable after ``__init__`` and memoized; callers get
        a fresh dict whose index arrays are shared and must not be mutated.
        """
        return dict(self._held_pattern)

    def _compute_held_pattern(self) -> Dict[Tuple[int, int], np.ndarray]:
        pattern: Dict[Tuple[int, int], np.ndarray] = {}
        for owner, info in self._owners.items():
            # natural receivers
            for holder in self.context.receivers_of(owner):
                pattern[(owner, holder)] = self.context.send_indices(owner, holder)
            # designated backups (merge extras into whatever they already get)
            for k0, holder in enumerate(info.targets):
                extra = info.extra_indices[k0]
                if extra.size == 0:
                    continue
                existing = pattern.get((owner, holder))
                if existing is None:
                    pattern[(owner, holder)] = extra
                else:
                    pattern[(owner, holder)] = np.union1d(existing, extra)
        return pattern

    def copy_count(self, owner: int) -> np.ndarray:
        """Number of distinct non-owner nodes holding each element of *owner*.

        This is the quantity the redundancy invariant bounds from below by
        ``phi``; it is exercised directly by the property tests.  The first
        call counts every owner in one pass over the (immutable) held
        pattern, so each later call is ``O(n_owner)`` instead of
        ``O(N * pattern)``.
        """
        if self._copy_counts is None:
            counts = {owner: np.zeros(self.partition.size_of(owner),
                                      dtype=np.int64)
                      for owner in self._owners}
            for (held_owner, _holder), idx in self._held_pattern.items():
                if idx.size:
                    start, _ = self.partition.range_of(held_owner)
                    counts[held_owner][idx - start] += 1
            self._copy_counts = counts
        return self._copy_counts[owner].copy()

    def verify_invariant(self) -> bool:
        """True if every element has at least ``phi`` off-node copies."""
        if self.phi == 0:
            return True
        return all(
            bool(np.all(self.copy_count(owner) >= self.phi))
            for owner in self._owners
        )

    # -- communication overhead (Sec. 4.2) ---------------------------------------------
    def round_overhead_times(self, topology: FatTreeTopology, model,
                             n_cols: int = 1) -> List[float]:
        """Per-round redundancy overhead ``max_i (lambda_ik? + |R^c_ik| n_cols mu)``.

        The latency term is only paid when the extras cannot piggyback on an
        SpMV message that goes to the same backup anyway (``S_{i,d_ik}``
        empty), exactly as analysed in Sec. 4.2.  For block (multi-RHS)
        solves with ``n_cols > 1`` every extra set ships all ``n_cols``
        columns of its elements in the same message -- the latency term is
        unchanged and only the volume term scales, mirroring how the halo
        exchange charge scales with the column count.
        """
        mu = model.element_transfer_time
        times: List[float] = []
        for k in range(1, self.phi + 1):
            worst = 0.0
            for owner, info in self._owners.items():
                target = info.targets[k - 1]
                extra = self.extra_count(owner, k)
                if extra == 0:
                    continue
                piggyback = self.context.send_count(owner, target) > 0
                latency = 0.0 if piggyback else topology.latency(owner, target)
                cost = latency + extra * n_cols * mu
                worst = max(worst, cost)
            times.append(worst)
        return times

    def _lower_bound_elements(self) -> int:
        """``max_i sum_k |R^c_ik|``: every extra set piggybacks on an SpMV
        message (the Sec. 4.2 lower bound)."""
        return max(
            (sum(info.extra_counts) for info in self._owners.values()), default=0
        )

    def extra_traffic_per_iteration(self, n_cols: int = 1) -> Tuple[int, int]:
        """``(messages, elements)`` of extra redundancy traffic per iteration.

        With ``n_cols > 1`` (block solves) each extra set ships all columns
        in one message: the message count is independent of the column count
        and the element volume scales with it.
        """
        messages = 0
        elements = 0
        for owner, info in self._owners.items():
            for k0, target in enumerate(info.targets):
                extra = info.extra_counts[k0]
                if extra == 0:
                    continue
                elements += extra * n_cols
                if self.context.send_count(owner, target) == 0:
                    messages += 1
        return messages, elements

    def redundant_elements_per_generation(self, n_cols: int = 1) -> int:
        """Elements snapshotted cluster-wide per generation (the held pattern).

        Every ``(owner, holder)`` pattern entry is stored in full on the
        holder; block protocols store all ``n_cols`` columns of each entry.
        """
        per_entry = sum(int(idx.size) for idx in self._held_pattern.values())
        return per_entry * int(n_cols)

    def describe(self) -> str:
        total = self.total_extra_elements()
        return (
            f"RedundancyScheme(phi={self.phi}, placement={self.placement}, "
            f"extra_elements_per_iteration={total})"
        )
