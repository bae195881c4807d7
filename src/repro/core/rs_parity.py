"""Reed-Solomon parity redundancy: ``m`` failures at ``m/g`` storage overhead.

The ``"copies"`` scheme of :mod:`repro.core.redundancy` keeps ``phi`` full
off-node copies of every search-direction block -- a 1x storage and traffic
overhead per tolerated failure.  Erasure coding buys the same tolerance far
cheaper: group ``g`` owner blocks into a stripe, add ``m = phi`` parity
blocks held on nodes *outside* the stripe, and any ``m`` simultaneous
in-group losses are decodable from the ``g`` surviving units (CR-SIM's
``RS.repair``: ``g`` blocks downloaded per repair).  The stored redundancy
drops from ``phi * n`` to roughly ``n + (m/g) * n`` elements and the
per-iteration redundancy traffic to ``m`` parity blocks per group.

**Stripes.**  The owners are laid out in the rack-striding order of the
default rack layout, also used by the ``"copyset"`` placement (first one
rank per rack, then the second rank of every rack, ...) and chopped into
consecutive groups of :data:`GROUP_SIZE` data blocks -- consecutive
entries live in distinct racks, so one correlated rack burst hits each
stripe at most ``ceil(g/racks)`` times.  The ``m`` parity holders of a
stripe are chosen by the configured placement strategy from the ranks
outside the stripe.

**Coding.**  Parity is computed over the *bytes* of the staged float64
blocks in GF(2^8) (primitive polynomial ``0x11d``) with a Cauchy
coefficient matrix ``C[j][i] = 1 / (x_j XOR y_i)`` -- data unit ``i`` of a
stripe gets the field identifier ``y_i = i``, parity unit ``j`` gets
``x_j = g + j``, deterministically, so encode/decode are bit-exact and
reproducible across runs.  Every square submatrix of a Cauchy matrix is
invertible, hence *any* ``f <= m`` missing data blocks are recoverable from
any ``f`` parity rows.  Byte-level XOR arithmetic makes the recovered
float64 blocks **bit-identical** to the originals -- the property the exact
state reconstruction needs.

**Charge model** (the Sec. 4.2 contract, ``m/g``-scaled): per iteration the
scheme ships one parity block per stripe per round (``m`` rounds), charged
``latency(lead, holder_j) + padded_g * n_cols * mu`` per group and round --
the XOR-combine of the ``g`` member contributions is modelled as a
pipelined in-group reduction whose final hop (one parity block of
``padded_g`` rows) dominates, i.e. ``m/g`` of the stripe volume per data
block.  Repair downloads ``g`` units (CR-SIM's ``repair`` cost) and is
charged by the protocol's recovery path.  The owners' own generation
snapshots are node-local (no traffic).  The bounds sandwich
``lower <= per-iteration time <= upper`` holds for every node count and
column count (pinned by the property tests).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from ..cluster.network import FatTreeTopology
from ..distributed.comm_context import CommunicationContext
from .placement import RackLayout
from .redundancy import (
    RedundancySchemeBase,
    backup_targets,
    register_redundancy_scheme,
)

__all__ = ["RSParityScheme", "gf256_mul"]

#: Data blocks per parity stripe (clamped to ``n_nodes - m``).
GROUP_SIZE = 4

_PRIMITIVE_POLY = 0x11D


def _build_gf_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EXP/LOG/INV/MUL tables of GF(2^8) with primitive polynomial 0x11d."""
    exp = np.zeros(512, dtype=np.int64)
    log = np.zeros(256, dtype=np.int64)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    exp[255:510] = exp[:255]
    inv = np.zeros(256, dtype=np.uint8)
    inv[1:] = exp[255 - log[np.arange(1, 256)]]
    a = np.arange(256)
    mul = np.zeros((256, 256), dtype=np.uint8)
    nz = a[1:]
    mul[1:, 1:] = exp[(log[nz][:, None] + log[nz][None, :]) % 255]
    return exp.astype(np.uint8), log.astype(np.uint8), inv, mul

_GF_EXP, _GF_LOG, _GF_INV, _GF_MUL = _build_gf_tables()


def gf256_mul(a: int, b: int) -> int:
    """Scalar GF(2^8) product (table lookup); exposed for the tests."""
    return int(_GF_MUL[a & 0xFF, b & 0xFF])


def _to_padded_bytes(block: np.ndarray, n_bytes: int) -> np.ndarray:
    """The float64 bytes of *block*, zero-padded to *n_bytes*."""
    raw = np.frombuffer(
        np.ascontiguousarray(block, dtype=np.float64).tobytes(),
        dtype=np.uint8,
    )
    if raw.size > n_bytes:
        raise ValueError(
            f"block of {raw.size} bytes exceeds the stripe's padded "
            f"length {n_bytes}"
        )
    padded = np.zeros(n_bytes, dtype=np.uint8)
    padded[:raw.size] = raw
    return padded


@register_redundancy_scheme(
    "rs_parity",
    "Reed-Solomon parity stripes: any m = phi in-group failures at m/g "
    "storage overhead")
class RSParityScheme(RedundancySchemeBase):
    """Erasure-coded redundancy: rack-spanning RS(g + m, g) parity stripes.

    Parameters
    ----------
    context, phi:
        As for :class:`~repro.core.redundancy.RedundancyScheme`; ``phi`` is
        the number of parity blocks ``m`` per stripe, i.e. the number of
        simultaneous in-group failures survived.
    placement:
        Registered name of the strategy choosing each stripe's parity
        holders (from the ranks outside the stripe); ``"paper"`` by
        default.

    Each stripe holds :data:`GROUP_SIZE` data blocks, clamped to
    ``n_nodes - phi`` so every stripe keeps ``m`` off-stripe holder
    candidates.
    """

    kind = "parity"

    def __init__(self, context: CommunicationContext, phi: int, *,
                 placement: str = "paper"):
        super().__init__(context, phi, placement=placement)
        self.m = self.phi
        n_nodes = self.partition.n_parts
        #: Stripe width, clamped so every stripe has >= m off-stripe ranks.
        self.group_size = min(GROUP_SIZE, max(1, n_nodes - self.m))
        if self.group_size + self.m > 256:
            raise ValueError(
                f"GF(2^8) coding supports at most 256 units per stripe, got "
                f"g={self.group_size} data + m={self.m} parity"
            )
        # Rack-striding owner order: each stripe spans racks.
        order = RackLayout.default(n_nodes).striding_order()
        self._groups: List[Tuple[int, ...]] = [
            tuple(order[lo:lo + self.group_size])
            for lo in range(0, n_nodes, self.group_size)
        ]
        self._group_of: Dict[int, int] = {}
        for gidx, members in enumerate(self._groups):
            for rank in members:
                self._group_of[rank] = gidx
        self._holders: List[Tuple[int, ...]] = [
            self._choose_holders(members) for members in self._groups
        ]
        #: Per stripe: the padded row count every coded unit is sized to.
        self._padded_rows: List[int] = [
            max(self.partition.size_of(rank) for rank in members)
            for members in self._groups
        ]

    def _choose_holders(self, members: Tuple[int, ...]) -> Tuple[int, ...]:
        """The stripe's ``m`` parity holders: placement-preferred, off-stripe."""
        if self.m == 0:
            return ()
        n_nodes = self.partition.n_parts
        lead = members[0]
        preference = backup_targets(lead, n_nodes - 1, n_nodes,
                                    self.placement)
        member_set = set(members)
        holders = [rank for rank in preference if rank not in member_set]
        if len(holders) < self.m:
            raise ValueError(
                f"stripe {sorted(members)} has only {len(holders)} off-stripe "
                f"holder candidates for m={self.m} parity blocks "
                f"(N={n_nodes})"
            )
        return tuple(holders[:self.m])

    # -- stripe layout queries ---------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def group_of(self, rank: int) -> int:
        """Stripe index of *rank*."""
        return self._group_of[rank]

    def group_members(self, gidx: int) -> Tuple[int, ...]:
        """Data-block owner ranks of stripe *gidx* (coding-unit order)."""
        return self._groups[gidx]

    def group_holders(self, gidx: int) -> Tuple[int, ...]:
        """Parity-holder ranks of stripe *gidx* (one per parity unit)."""
        return self._holders[gidx]

    def padded_rows(self, gidx: int) -> int:
        """Rows every coded unit of stripe *gidx* is zero-padded to."""
        return self._padded_rows[gidx]

    def verify_invariant(self) -> bool:
        """True if every stripe has ``m`` distinct off-stripe parity holders."""
        for gidx, members in enumerate(self._groups):
            holders = self._holders[gidx]
            if len(holders) != self.m or len(set(holders)) != len(holders):
                return False
            if set(holders) & set(members):
                return False
        return True

    # -- coding -------------------------------------------------------------------
    def _coeff(self, gidx: int, parity_j: int, pos: int) -> int:
        """Cauchy coefficient of data unit *pos* in parity row *parity_j*."""
        g_len = len(self._groups[gidx])
        return int(_GF_INV[(g_len + parity_j) ^ pos])

    def _padded_nbytes(self, gidx: int, row_width: int) -> int:
        return self._padded_rows[gidx] * 8 * int(row_width)

    def encode(self, gidx: int, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """The ``m`` parity byte-rows of stripe *gidx* over *blocks*.

        *blocks* are the members' ``(rows, k)`` float64 blocks in
        :meth:`group_members` order; each parity row is a
        ``padded_rows * 8 * k`` byte array.
        """
        members = self._groups[gidx]
        if len(blocks) != len(members):
            raise ValueError(
                f"stripe {gidx} has {len(members)} members but got "
                f"{len(blocks)} blocks"
            )
        if self.m == 0:
            return []
        n_bytes = self._padded_nbytes(gidx, int(blocks[0].shape[1]))
        data = [_to_padded_bytes(block, n_bytes) for block in blocks]
        rows: List[np.ndarray] = []
        for j in range(self.m):
            acc = np.zeros(n_bytes, dtype=np.uint8)
            for pos, unit in enumerate(data):
                acc ^= _GF_MUL[self._coeff(gidx, j, pos)][unit]
            rows.append(acc)
        return rows

    def decode(self, gidx: int, have: Mapping[int, np.ndarray],
               parity_rows: Mapping[int, np.ndarray],
               n_cols: int = 1) -> Dict[int, np.ndarray]:
        """Recover the missing ``(rows, n_cols)`` member blocks of stripe *gidx*.

        *have* maps surviving member ranks to their blocks, *parity_rows*
        maps parity-unit indices to surviving parity byte-rows; any
        ``f = len(missing)`` parity rows suffice (Cauchy submatrices are
        invertible).  Returns ``{rank: block}`` for the missing members,
        bit-identical to the encoded originals.
        """
        members = self._groups[gidx]
        missing = [rank for rank in members if rank not in have]
        if not missing:
            return {}
        rows_avail = sorted(parity_rows)
        if len(rows_avail) < len(missing):
            raise ValueError(
                f"stripe {gidx}: {len(missing)} members missing but only "
                f"{len(rows_avail)} parity rows survive"
            )
        use = rows_avail[:len(missing)]
        row_width = int(n_cols)
        n_bytes = self._padded_nbytes(gidx, row_width)

        # rhs_j = parity_j XOR (contributions of the surviving members)
        rhs: List[np.ndarray] = []
        for j in use:
            acc = np.array(parity_rows[j], dtype=np.uint8, copy=True)
            if acc.size != n_bytes:
                raise ValueError(
                    f"stripe {gidx}: parity row {j} has {acc.size} bytes, "
                    f"expected {n_bytes}"
                )
            for pos, rank in enumerate(members):
                if rank in have:
                    unit = _to_padded_bytes(have[rank], n_bytes)
                    acc ^= _GF_MUL[self._coeff(gidx, j, pos)][unit]
            rhs.append(acc)

        # Solve the f x f Cauchy subsystem by Gaussian elimination over
        # GF(2^8), applied to the byte vectors.
        pos_of = {rank: members.index(rank) for rank in missing}
        matrix = [
            [self._coeff(gidx, j, pos_of[rank]) for rank in missing]
            for j in use
        ]
        f = len(missing)
        for col in range(f):
            piv = next(r for r in range(col, f) if matrix[r][col])
            matrix[col], matrix[piv] = matrix[piv], matrix[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = int(_GF_INV[matrix[col][col]])
            matrix[col] = [gf256_mul(inv, a) for a in matrix[col]]
            rhs[col] = _GF_MUL[inv][rhs[col]]
            for r in range(f):
                if r != col and matrix[r][col]:
                    c = matrix[r][col]
                    matrix[r] = [a ^ gf256_mul(c, b)
                                 for a, b in zip(matrix[r], matrix[col])]
                    rhs[r] = rhs[r] ^ _GF_MUL[c][rhs[col]]

        decoded: Dict[int, np.ndarray] = {}
        for rank, byte_vec in zip(missing, rhs):
            size = self.partition.size_of(rank)
            used = size * 8 * row_width
            values = np.frombuffer(byte_vec[:used].tobytes(),
                                   dtype=np.float64).copy()
            decoded[rank] = values.reshape(size, row_width)
        return decoded

    # -- charge model (Sec. 4.2, m/g-scaled) --------------------------------------
    def round_overhead_times(self, topology: FatTreeTopology, model: Any,
                             n_cols: int = 1) -> List[float]:
        """Per-round overhead ``max_g (lambda(lead_g, holder_gj) + padded_g k mu)``.

        Round ``j`` ships stripe ``g``'s parity block ``j`` (the final hop
        of the in-group XOR combine) to its holder; parity never piggybacks
        on an SpMV message, so the latency is always paid.  Volume scales
        with the column count exactly as the copies scheme's extras do.
        """
        mu = model.element_transfer_time
        times: List[float] = []
        for j in range(self.m):
            worst = 0.0
            for gidx, members in enumerate(self._groups):
                holder = self._holders[gidx][j]
                latency = topology.latency(members[0], holder)
                cost = latency + self._padded_rows[gidx] * n_cols * mu
                worst = max(worst, cost)
            times.append(worst)
        return times

    def _lower_bound_elements(self) -> int:
        """``max_g m padded_g``: the widest stripe's parity volume.  Padded
        stripe rows never exceed the largest block, so the sandwich
        ``lower <= per-iteration time <= upper`` holds structurally."""
        return max((self.m * rows for rows in self._padded_rows), default=0)

    def extra_traffic_per_iteration(self, n_cols: int = 1) -> Tuple[int, int]:
        """``m`` parity messages per stripe, ``padded_g * k`` elements each."""
        messages = self.m * self.n_groups
        elements = self.m * sum(self._padded_rows) * int(n_cols)
        return messages, elements

    def redundant_elements_per_generation(self, n_cols: int = 1) -> int:
        """Owner-local snapshots (``n``) plus ``m`` padded parity rows per stripe.

        Parity rows are byte-coded but sized in float64-element equivalents
        (``padded_rows * k``), so the number is directly comparable to the
        copies scheme's held-pattern elements.
        """
        snapshots = self.partition.n
        parity = self.m * sum(self._padded_rows)
        return (snapshots + parity) * int(n_cols)

    def describe(self) -> str:
        return (
            f"RSParityScheme(m={self.m}, group_size={self.group_size}, "
            f"n_groups={self.n_groups}, placement={self.placement})"
        )
