"""The ESR protocol: keeping and retrieving redundant search-direction copies.

During the failure-free iterations, :class:`ESRProtocol.after_spmv` snapshots,
on every holder node, the elements of other nodes' search-direction blocks
that the holder either received naturally during the SpMV halo exchange or was
sent explicitly as a designated backup (the ``R^c_ik`` sets of Eqn. (6)).  Two
generations are retained -- ``p^(j)`` and ``p^(j-1)`` -- as required for the
exact state reconstruction (Sec. 2.2).  The *extra* traffic is charged to the
``comm.redundancy`` phase of the cost model using the latency-bandwidth
analysis of Sec. 4.2 (piggybacked extras pay no latency).

**Static tables and per-solve buffers.**  What depends only on the layout
is built once per scheme, and the scheme once per problem and layout (see
:func:`~repro.core.redundancy.build_redundancy_scheme`): the ``(owner,
holder)`` held pattern of the :class:`~repro.core.redundancy.
RedundancyScheme` is translated, on first use, into its
:class:`~repro.core.redundancy.HeldIndex` -- one gather index over the
global rows of the search direction grouped by holder, the local offsets
of every pair, and each owner's holders -- and the per-iteration overhead
charge is computed once per topology, machine model and column count.  A
protocol keeps only what one solve writes: the buffers of its two
generation slots (:class:`StagingIndex`), their generation tags and its
replicated-coefficient holder, so two solves never share a buffer.

**Staging.**  Each pair's copies are a zero-copy view of its slot's buffer
held in the holder's node memory.  Every iteration refills the slot's
buffer in place with one ``np.take`` from the search direction's contiguous
``(n, k)`` array (see :mod:`repro.distributed.blockstore`), so the holders'
views see the new copies without a node-memory write.  The views of a slot
are written into the holders' memories again only when they may be gone.
After a failure or a replacement (the cluster's
:class:`~repro.cluster.node.MemoryEpoch` has moved) that is on the holders
whose own memory lost something (:attr:`~repro.cluster.node.NodeMemory.
wipes` moved), typically just the replaced nodes.  After another protocol
stored into the same slot (the slot's buffer is recorded in the cluster's
``arrays``; a different record there means the entries are no longer
ours), or after a store that skipped failed owners, it is on every alive
holder.  A dead holder stores nothing, and a failed owner's pairs keep
their previous copies for the iteration.  The replicated ``beta`` works the
same way: one read-only holder per protocol sits in every alive node's
memory, each store swaps its payload, and after a failure it is put back
only where a memory was wiped.

After node failures, :meth:`recover_block` re-assembles a failed node's block
of either generation from the copies on surviving nodes, charging the reverse
communication to the recovery phase; :meth:`recover_replicated_vector`
fetches the replicated ``(k,)`` coefficient vector (``beta^(j-1)``) from any
survivor.

**Column count.**  A protocol protects the ``(n_i, k)`` search-direction
blocks of a lock-step solve with ``n_cols = k`` columns
(:class:`~repro.core.resilient_block_pcg.ResilientBlockPCG`; a single
right-hand side is ``k = 1``): the stored copies are ``(|R^c_ik|, k)`` row
slices of the one gather.  The **charge model** mirrors the batched halo
exchange: per round the overhead is ``max_i (lambda_ik? + |R^c_ik| * k *
mu)`` -- the extras of all ``k`` columns travel in *one* message, so the
message count (and every latency term) is independent of ``k`` and only the
volume term scales (see :meth:`RedundancyScheme.round_overhead_times`).
Recovery reassembles all ``k`` columns of a failed ``(n_i, k)`` block from
the same surviving copies (one message per holder, ``rows * k`` elements).

**Parity schemes.**  The storage strategy above is the default ``"copies"``
redundancy scheme; the protocol equally drives any scheme registered in
:data:`~repro.core.redundancy.REDUNDANCY_SCHEMES`.  For ``kind = "parity"``
schemes (``"rs_parity"``) the per-generation store is one owner snapshot
plus ``m = phi`` Reed--Solomon parity rows per rack-spanning stripe of ``g``
owner blocks, written to the stripe's off-stripe holder nodes; recovery
decodes the lost blocks bit-exactly from any ``g`` surviving
snapshot/parity rows (charged as ``g`` block downloads) and then re-encodes
the stripe's missing parity so the tolerance is restored before the solve
resumes.  Because the decode is bit-exact, everything downstream -- the
reconstruction, the iterates, the convergence trajectory -- is bit-identical
to the copies path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import (Any, Collection, Dict, Iterator, List, Optional, Set,
                    Tuple)

import numpy as np

from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import Phase
from ..cluster.errors import NodeFailedError, UnrecoverableStateError
from ..distributed.partition import BlockRowPartition
from .redundancy import HeldIndex, RedundancySchemeBase

#: Node-memory key prefix for ESR ghost stores.
_ESR_KEY = "esr_store"
#: Node-memory key for replicated scalars.
_SCALAR_KEY = "esr_scalars"
#: Node-memory key prefix for an owner's own generation snapshot (parity
#: schemes; tagged with the iteration so stale entries never decode).
_ESR_SELF_KEY = "esr_self"
#: Node-memory key prefix for stored parity rows (parity schemes).
_ESR_PARITY_KEY = "esr_parity"


class _Registration:
    """Where one protocol's entries under one cluster record stand.

    The entries of *value* -- a slot buffer's views, or the replicated
    coefficients' holder -- are put into the memories of the alive nodes
    among *ranks*, and *value* is recorded in ``cluster.arrays[key]``.
    They stay current while the cluster's memory epoch is the one of the
    last write and the record is still *value*.  The record is the
    ownership guard: another protocol writing the same entries replaces it,
    and then every node gets ours again.  When only the epoch has moved,
    only the nodes whose memory lost something since -- their
    :attr:`~repro.cluster.node.NodeMemory.wipes` moved -- get them again.
    """

    def __init__(self, key: Any, value: Any, ranks: List[int]):
        self._key = key
        self._value = value
        self._ranks = ranks
        #: Memory epoch of the last write (-1: every node is due).
        self._epoch = -1
        #: Per rank, its memory's wipe count at the last write (-1: due).
        self._wipes = [-1] * len(ranks)

    def due(self, cluster: VirtualCluster) -> List[int]:
        """The alive ranks whose memories need the entries (the caller
        writes them all); records *value* as the cluster's entries."""
        epoch = cluster.epoch.value
        ours = cluster.arrays.get(self._key) is self._value
        if ours and self._epoch == epoch:
            return []
        every = not ours or self._epoch < 0
        nodes = cluster.nodes
        wipes = self._wipes
        due = []
        for pos, rank in enumerate(self._ranks):
            node = nodes[rank]
            count = node.memory.wipes
            if not every and wipes[pos] == count:
                continue
            if node.is_alive:
                due.append(rank)
                wipes[pos] = count
            else:
                # A failed node stores nothing; it is due again once
                # replaced.
                wipes[pos] = -1
        cluster.arrays[self._key] = self._value
        self._epoch = epoch
        return due

    def expire(self) -> None:
        """Make every alive node due at the next :meth:`due`."""
        self._epoch = -1


class StagingIndex:
    """The slot buffers of one protocol's redundant stores.

    The gather tables are the scheme's, built once per scheme
    (:class:`~repro.core.redundancy.HeldIndex`): one gather index into the
    search direction, and per holder ``[(owner, lo, hi)]`` locating each
    pair's copies as a contiguous slice of the gathered rows.  Each
    generation slot of this protocol owns one ``(len(gather), n_cols)``
    buffer of gathered rows, and a holder keeps the pair's copies as the
    view ``buffer[lo:hi]`` under ``(_ESR_KEY, slot, owner)``.

    The views of a slot are *registered* -- written into the alive holders'
    memories -- per slot: writing one slot never registers the other, so a
    replacement holder cannot pass for a holder of a generation it never
    received.  The slot's record in ``cluster.arrays``, under
    ``(_ESR_KEY, slot)``, is the ownership guard (see
    :class:`_Registration`): after a failure only the holders whose memory
    was wiped get the views again, but after another protocol stored into
    the same slot, every holder does.
    """

    def __init__(self, held: HeldIndex, n_cols: int):
        #: Nothing to stage at all (no pattern entries, e.g. a single-node
        #: run): lets the per-iteration path skip staging entirely.
        self.is_empty = not held.slices
        self._held = held
        #: One buffer of gathered rows per generation slot.
        self._buffers = tuple(np.zeros((held.gather.size, n_cols))
                              for _ in range(2))
        holders = list(held.slices)
        self._registrations = tuple(
            _Registration((_ESR_KEY, slot), self._buffers[slot], holders)
            for slot in range(2))

    def distribute(self, cluster: VirtualCluster, p, slot: int) -> None:
        """Refill *slot*'s buffer with the copies of *p*, registering its
        views under ``(_ESR_KEY, slot, owner)`` where they are not current.

        One ``np.take`` pulls all copies out of *p*'s ``(n, k)`` array into
        the buffer; with the registration current (same memory epoch, the
        slot's record still this buffer) that is the whole store.  A failed
        owner's pairs are skipped -- its block will be reconstructed before
        the solver continues: its rows keep the copies the slot held before,
        its pairs are not registered on holders that lack them, and the slot
        is left unregistered so its next store registers every holder.
        """
        buffer = self._buffers[slot]
        try:
            np.take(p.stacked(), self._held.gather, axis=0, out=buffer)
        except NodeFailedError:
            self._distribute_alive_owners(cluster, p, slot)
            return
        self._register(cluster, slot)

    def _distribute_alive_owners(self, cluster: VirtualCluster, p,
                                 slot: int) -> None:
        """The store of an iteration in which some owners have failed."""
        failed = set(cluster.failed_ranks())
        buffer = self._buffers[slot]
        kept = [(lo, hi, buffer[lo:hi].copy())
                for slices in self._held.slices.values()
                for owner, lo, hi in slices if owner in failed]
        np.take(p.stacked(alive_only=True), self._held.gather, axis=0,
                out=buffer)
        for lo, hi, rows in kept:
            buffer[lo:hi] = rows
        registration = self._registrations[slot]
        registration.expire()
        self._register(cluster, slot, skip=failed)
        # Some pairs were left out, so the next store registers again.
        registration.expire()

    def _register(self, cluster: VirtualCluster, slot: int,
                  skip: Collection[int] = ()) -> None:
        """Put *slot*'s views of all owners but *skip* on the holders that
        need them (a failed holder simply stores nothing; the invariant
        still guarantees enough surviving copies as long as the total
        number of failures stays within phi)."""
        buffer = self._buffers[slot]
        nodes = cluster.nodes
        slices_of = self._held.slices
        for holder in self._registrations[slot].due(cluster):
            memory = nodes[holder].memory
            for owner, lo, hi in slices_of[holder]:
                if owner not in skip:
                    memory[(_ESR_KEY, slot, owner)] = buffer[lo:hi]


class ReplicatedScalars(Mapping[str, Any]):
    """The read-only holder of a protocol's replicated coefficients.

    Every alive node's memory holds this one object under ``_SCALAR_KEY``,
    and a store swaps its payload instead of writing every node memory.
    It has no item assignment, so no node can alter what the others hold.
    """

    __slots__ = ("_payload",)

    def __init__(self) -> None:
        self._payload: Dict[str, Any] = {}

    def __getitem__(self, key: str) -> Any:
        return self._payload[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._payload)

    def __len__(self) -> int:
        return len(self._payload)


@dataclass
class GenerationInfo:
    """Which solver iteration a storage generation (parity slot) holds."""

    iteration: int = -1


class ESRProtocol:
    """Maintains the redundant copies required by the ESR approach.

    *scheme* is a built redundancy scheme (the resilient solver gets it
    from :func:`~repro.core.redundancy.build_redundancy_scheme`, once per
    problem and layout); the protocol protects the scheme's partition with
    the scheme's ``phi``, reads the scheme's static tables and keeps its own
    slot buffers.
    """

    def __init__(self, cluster: VirtualCluster, scheme: RedundancySchemeBase,
                 *, n_cols: int = 1):
        self.cluster = cluster
        self.scheme = scheme
        self.context = scheme.context
        self.partition: BlockRowPartition = scheme.partition
        self.phi = scheme.phi
        #: Columns of the protected ``(n_i, k)`` search-direction blocks
        #: (copies are ``(rows, k)`` slices, charges follow the block charge
        #: model of the module docstring).
        self.n_cols = int(n_cols)
        if self.n_cols < 1:
            raise ValueError(f"n_cols must be positive, got {n_cols}")
        #: Non-``None`` for parity-kind schemes: storage switches from the
        #: held-pattern snapshots to owner-local snapshots + parity rows.
        self._parity = self.scheme if self.scheme.kind == "parity" else None
        #: The scheme's static tables of its held pattern (``None`` for
        #: parity schemes, which stage nothing through the pattern path).
        held = None if self._parity is not None else scheme.held_index()
        #: Local (owner-block) offsets per ``(owner, holder)`` pattern entry.
        self._pattern_local: Dict[Tuple[int, int], np.ndarray] = (
            {} if held is None else held.local)
        #: Per owner, the holders of its copies in ascending order.
        self._holders_of: Dict[int, List[int]] = (
            {} if held is None else held.holders_of)
        #: This protocol's slot buffers over the scheme's gather tables.
        self._staging = (None if held is None
                         else StagingIndex(held, self.n_cols))
        #: Iteration number stored in each of the two generation slots.
        self._generations: Dict[int, GenerationInfo] = {
            0: GenerationInfo(), 1: GenerationInfo()
        }
        #: The holder of the replicated coefficients, and where it stands
        #: in the alive nodes' memories.
        self._scalars = ReplicatedScalars()
        self._scalars_registration = _Registration(
            _SCALAR_KEY, self._scalars, list(range(cluster.n_nodes)))
        # The per-iteration redundancy overhead (the pattern is static): the
        # volume terms scale with the column count, latency terms and
        # message counts do not.
        self._overhead_time, self._overhead_traffic = (
            scheme.iteration_overhead(cluster.topology, cluster.machine,
                                      n_cols=self.n_cols))

    # -- storage during failure-free iterations -------------------------------
    def _slot_for(self, iteration: int) -> int:
        return iteration % 2

    def after_spmv(self, p, iteration: int) -> None:
        """Record redundant copies of ``p^(iteration)`` on all holder nodes.

        *p* is a :class:`~repro.distributed.dmultivector.
        DistributedMultiVector` with ``n_cols`` columns.  Called right after
        the SpMV of the given iteration (when the halo values have just been
        communicated anyway).  Charges only the *extra* redundancy traffic;
        the natural halo traffic was already charged by the SpMV itself.
        """
        if getattr(p, "n_cols", None) != self.n_cols:
            raise ValueError(
                f"ESR protocol stores (rows, {self.n_cols}) copies but "
                f"got an operand with n_cols={getattr(p, 'n_cols', None)}"
            )
        slot = self._slot_for(iteration)
        # The slot holds no whole generation until the store succeeds: a
        # store that raises must not leave it tagged as p^(iteration).
        generation = self._generations[slot]
        generation.iteration = -1
        if self._parity is not None:
            self._store_parity(p, iteration, slot)
        elif not self._staging.is_empty:
            self._staging.distribute(self.cluster, p, slot)
        generation.iteration = iteration
        # Charge the extra redundancy communication of this iteration.
        if self.phi > 0 and self._overhead_time > 0.0:
            self.cluster.ledger.add_time(Phase.REDUNDANCY_COMM, self._overhead_time)
        messages, elements = self._overhead_traffic
        if messages or elements:
            self.cluster.ledger.add_traffic(Phase.REDUNDANCY_COMM, messages, elements)

    def _store_parity(self, p, iteration: int, slot: int) -> None:
        """Parity-scheme storage: owner-local snapshots + per-stripe parity.

        Every alive owner keeps a node-local copy of its own block for the
        slot (no traffic -- the extra traffic charged by ``after_spmv`` is
        the parity shipping the scheme's charge model accounts for); every
        stripe whose members are all alive encodes ``m`` parity rows onto
        its alive holders.  A stripe with a failed member keeps its older
        parity untouched -- entries are tagged with the iteration, so
        recovery never mixes generations.
        """
        scheme = self._parity
        blocks: Dict[int, np.ndarray] = {}
        failed: Set[int] = set()
        for owner in range(self.partition.n_parts):
            try:
                block = p.get_block(owner)
            except NodeFailedError:
                # The owner itself is failed; its block will be
                # reconstructed before the solver continues.
                failed.add(owner)
                continue
            blocks[owner] = block
            self.cluster.node(owner).memory[(_ESR_SELF_KEY, slot)] = (
                iteration, np.array(block, dtype=np.float64, copy=True),
            )
        for gidx in range(scheme.n_groups):
            members = scheme.group_members(gidx)
            if any(rank in failed for rank in members):
                continue
            rows = scheme.encode(gidx, [blocks[rank] for rank in members])
            for j, holder in enumerate(scheme.group_holders(gidx)):
                node = self.cluster.node(holder)
                if node.is_alive:
                    node.memory[(_ESR_PARITY_KEY, slot, gidx, j)] = (
                        iteration, rows[j],
                    )

    def store_replicated_scalars(self, iteration: int, **scalars) -> None:
        """Replicate solver coefficients (e.g. the ``(k,)`` ``beta``) on every
        alive node.

        The values are copied once and made read-only, and become the
        payload of the protocol's one :class:`ReplicatedScalars` holder: a
        later in-place update by the solver cannot rewrite history, and no
        node can alter the copy the others hold.  The holder is put into a
        node's memory only when it is not current there: after a failure,
        on the nodes whose memory was wiped; after another protocol's
        holder took over ``_SCALAR_KEY`` (its record in ``cluster.arrays``),
        on every alive node.
        """
        payload = {}
        for key, value in scalars.items():
            if isinstance(value, np.ndarray):
                value = np.array(value, copy=True)
                value.flags.writeable = False
            payload[key] = value
        payload["iteration"] = iteration
        holder = self._scalars
        holder._payload = payload
        nodes = self.cluster.nodes
        for rank in self._scalars_registration.due(self.cluster):
            nodes[rank].memory[_SCALAR_KEY] = holder

    # -- queries --------------------------------------------------------------------
    def available_generations(self) -> List[int]:
        """Iteration numbers currently retained (at most two)."""
        return sorted(
            info.iteration for info in self._generations.values()
            if info.iteration >= 0
        )

    def holders_with_copies(self, owner: int, iteration: int) -> List[int]:
        """Surviving holders with copies of *owner*'s elements (copies
        schemes; a parity scheme recovers from its stripe instead)."""
        key = (_ESR_KEY, self._slot_for(iteration), owner)
        nodes = self.cluster.nodes
        return [holder for holder in self._holders_of.get(owner, ())
                if nodes[holder].is_alive and key in nodes[holder].memory]

    # -- recovery -----------------------------------------------------------------------
    def recover_block(self, owner: int, iteration: int) -> np.ndarray:
        """Re-assemble ``p^(iteration)_{I_owner}`` from surviving copies.

        The reverse communication -- to *owner*'s replacement node -- is
        charged to the recovery phase.

        Parameters
        ----------
        owner:
            The failed rank whose block is reconstructed.
        iteration:
            Which retained generation to recover (must be one of
            :meth:`available_generations`).

        Raises
        ------
        UnrecoverableStateError
            If some element has no surviving copy (more failures than the
            configured redundancy can tolerate).
        """
        slot = self._slot_for(iteration)
        stored = self._generations[slot].iteration
        if stored != iteration:
            raise UnrecoverableStateError(
                f"no retained copies of iteration {iteration} "
                f"(slot holds iteration {stored})"
            )
        if self._parity is not None:
            return self._recover_parity_block(owner, iteration, slot)
        size = self.partition.size_of(owner)
        block = np.full((size, self.n_cols), np.nan)
        covered = np.zeros(size, dtype=bool)

        # First, the owner's own copy if the owner is somehow still alive
        # (e.g. recovery triggered for a different node); normally it is not.
        for holder in self.holders_with_copies(owner, iteration):
            node = self.cluster.node(holder)
            key = (_ESR_KEY, slot, owner)
            values = node.memory[key]
            local_idx = self._pattern_local[(owner, holder)]
            newly = ~covered[local_idx]
            if not np.any(newly):
                continue
            block[local_idx[newly]] = values[newly]
            covered[local_idx[newly]] = True
            # One message per holder, all k columns of the covered rows in
            # it (rows * k elements).
            self._charge_recovery_message(
                holder, owner, int(np.count_nonzero(newly)) * self.n_cols)
            if np.all(covered):
                break

        if not np.all(covered):
            missing = int(np.count_nonzero(~covered))
            raise UnrecoverableStateError(
                f"cannot recover block of rank {owner} at iteration {iteration}: "
                f"{missing} of {size} elements have no surviving copy "
                f"(phi={self.phi} redundant copies were kept)"
            )
        return block

    def _parity_snapshot(self, rank: int, slot: int,
                         iteration: int) -> Optional[np.ndarray]:
        """*rank*'s own generation snapshot if alive and iteration-tagged."""
        node = self.cluster.node(rank)
        if not node.is_alive:
            return None
        key = (_ESR_SELF_KEY, slot)
        if key not in node.memory:
            return None
        tag, block = node.memory[key]
        return block if tag == iteration else None

    def _charge_recovery_message(self, source: int, destination: int,
                                 n_elements: int) -> None:
        """One recovery message of *n_elements* (node-local transfers free)."""
        if source == destination:
            return
        ledger = self.cluster.ledger
        latency = self.cluster.topology.latency(source, destination)
        ledger.add_time(Phase.RECOVERY_COMM,
                        ledger.model.message_time(latency, n_elements))
        ledger.add_traffic(Phase.RECOVERY_COMM, 1, n_elements)

    def _recover_parity_block(self, owner: int, iteration: int,
                              slot: int) -> np.ndarray:
        """Parity-scheme recovery: solve the stripe's parity system.

        CR-SIM's ``repair`` cost model: *owner*'s replacement node downloads
        the ``g`` stripe units -- the surviving member snapshots plus as many
        parity rows as members are missing -- decodes the missing blocks,
        and heals the stripe (writes the decoded snapshots back onto the
        replaced members and re-encodes lost parity rows), so co-failed
        members recover node-locally and the next failure sees a fully
        redundant stripe again.
        """
        scheme = self._parity
        row_width = self.n_cols
        own = self._parity_snapshot(owner, slot, iteration)
        if own is not None:
            # The owner's snapshot survived (e.g. a previous recovery of a
            # co-failed stripe member healed it); node-local, no charge.
            return np.array(own, copy=True)
        gidx = scheme.group_of(owner)
        members = scheme.group_members(gidx)
        have: Dict[int, np.ndarray] = {}
        for rank in members:
            snap = self._parity_snapshot(rank, slot, iteration)
            if snap is not None:
                have[rank] = snap
        missing = [rank for rank in members if rank not in have]
        rows: Dict[int, Tuple[int, np.ndarray]] = {}
        for j, holder in enumerate(scheme.group_holders(gidx)):
            node = self.cluster.node(holder)
            key = (_ESR_PARITY_KEY, slot, gidx, j)
            if node.is_alive and key in node.memory:
                tag, row = node.memory[key]
                if tag == iteration:
                    rows[j] = (holder, row)
        if len(rows) < len(missing):
            raise UnrecoverableStateError(
                f"cannot recover block of rank {owner} at iteration "
                f"{iteration}: stripe {gidx} lost {len(missing)} of "
                f"{len(members)} members but only {len(rows)} parity rows "
                f"survive (m={scheme.m})"
            )
        use = sorted(rows)[:len(missing)]
        decoded = scheme.decode(gidx, have,
                                {j: rows[j][1] for j in use},
                                n_cols=self.n_cols)
        # Download the g stripe units to the owner's replacement.
        for rank in sorted(have):
            self._charge_recovery_message(
                rank, owner, self.partition.size_of(rank) * row_width)
        padded = scheme.padded_rows(gidx) * row_width
        for j in use:
            self._charge_recovery_message(rows[j][0], owner, padded)
        self._heal_parity_group(gidx, slot, iteration, have, decoded, owner)
        return np.array(decoded[owner], copy=True)

    def _heal_parity_group(self, gidx: int, slot: int, iteration: int,
                           have: Dict[int, np.ndarray],
                           decoded: Dict[int, np.ndarray],
                           destination: int) -> None:
        """Write decoded snapshots onto replaced members, restore parity.

        Each upload (a member snapshot or a re-encoded parity row) is one
        recovery message from the decoding destination; writes onto the
        destination itself are node-local and free.
        """
        scheme = self._parity
        row_width = self.n_cols
        members = scheme.group_members(gidx)
        for rank in sorted(decoded):
            node = self.cluster.node(rank)
            if not node.is_alive:
                continue
            node.memory[(_ESR_SELF_KEY, slot)] = (
                iteration, np.array(decoded[rank], dtype=np.float64,
                                    copy=True),
            )
            self._charge_recovery_message(
                destination, rank, self.partition.size_of(rank) * row_width)
        blocks = {}
        blocks.update(have)
        blocks.update(decoded)
        parity_rows = scheme.encode(
            gidx, [blocks[rank] for rank in members])
        padded = scheme.padded_rows(gidx) * row_width
        for j, holder in enumerate(scheme.group_holders(gidx)):
            node = self.cluster.node(holder)
            if not node.is_alive:
                continue
            key = (_ESR_PARITY_KEY, slot, gidx, j)
            if key in node.memory and node.memory[key][0] == iteration:
                continue
            node.memory[key] = (iteration, parity_rows[j])
            self._charge_recovery_message(destination, holder, padded)

    def recover_replicated_vector(self, name: str) -> np.ndarray:
        """Fetch a replicated ``(k,)`` coefficient vector from any survivor
        (one recovery message of ``k`` elements)."""
        for rank in self.cluster.alive_ranks():
            memory = self.cluster.node(rank).memory
            if _SCALAR_KEY not in memory or name not in memory[_SCALAR_KEY]:
                continue
            payload = memory[_SCALAR_KEY]
            value = np.atleast_1d(np.asarray(payload[name], dtype=np.float64))
            ledger = self.cluster.ledger
            ledger.add_time(
                Phase.RECOVERY_COMM,
                ledger.model.message_time(
                    self.cluster.topology.max_latency(), value.size),
            )
            ledger.add_traffic(Phase.RECOVERY_COMM, 1, value.size)
            return value.copy()
        raise UnrecoverableStateError(
            f"replicated scalar {name!r} is not available on any surviving node"
        )

    # -- cost/overhead introspection ------------------------------------------------------
    @property
    def per_iteration_overhead_time(self) -> float:
        """Simulated redundancy overhead charged per iteration."""
        return self._overhead_time

    def overhead_summary(self) -> Dict[str, float]:
        """Summary used by the analysis module and the reports."""
        lower, upper = self.scheme.overhead_bounds(
            self.cluster.topology, self.cluster.machine,
            n_cols=self.n_cols,
        )
        messages, elements = self._overhead_traffic
        return {
            "phi": float(self.phi),
            "n_cols": float(self.n_cols),
            "per_iteration_time": self._overhead_time,
            "lower_bound": lower,
            "upper_bound": upper,
            "extra_messages": float(messages),
            "extra_elements": float(elements),
        }
