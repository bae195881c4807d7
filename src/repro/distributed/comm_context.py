"""SpMV communication contexts (generalized scatter plans).

The PCG solver's only structured communication is the halo exchange of the
sparse matrix-vector product ``u = A p`` (Eqn. (1) of the paper): node ``k``
needs, from every other node ``i``, exactly those elements of ``p_{I_i}``
whose global indices appear as column indices in ``k``'s row block of ``A``.
PETSc calls the resulting plan a *generalized scatter*; the paper's notation
(Sec. 3) is

* ``S_i``   -- all elements of ``p_{I_i}`` (the block owned by node ``i``),
* ``S_ik``  -- the elements of ``p_{I_i}`` sent from ``i`` to ``k``,
* ``R_i``   -- the union of all ``S_ik`` (everything ``i`` sends to anybody),
* ``R^c_i`` -- ``S_i \\ R_i`` (elements that are sent to *no* other node), and
* ``m_i(s)``-- the multiplicity of element ``s``: to how many distinct nodes
  it is sent during the SpMV (Eqn. (3)).

:class:`CommunicationContext` computes all of these once from the matrix
sparsity pattern; the ESR redundancy scheme (:mod:`repro.core.redundancy`)
and the overhead analysis (:mod:`repro.analysis.overhead`) are built on top.
The *reverse* of the context (who holds copies of which remote elements after
the exchange) is what reconstruction uses to re-gather lost search-direction
blocks, exactly as the paper's implementation reverses the PETSc scatter
(Sec. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .dmatrix import DistributedMatrix
from .partition import BlockRowPartition


@dataclass(frozen=True)
class ScatterEdge:
    """One sender->receiver edge of the scatter plan."""

    src: int
    dst: int
    #: Global indices (owned by ``src``) whose values are shipped to ``dst``.
    indices: np.ndarray

    @property
    def count(self) -> int:
        return int(self.indices.size)


class CommunicationContext:
    """The generalized-scatter plan of a distributed SpMV."""

    def __init__(self, partition: BlockRowPartition,
                 edges: Dict[Tuple[int, int], np.ndarray]):
        self.partition = partition
        # Normalise: sorted unique int64 indices per (src, dst) edge, drop empties.
        self._edges: Dict[Tuple[int, int], np.ndarray] = {}
        for (src, dst), idx in edges.items():
            if src == dst:
                continue
            arr = np.unique(np.asarray(idx, dtype=np.int64))
            if arr.size:
                self._edges[(int(src), int(dst))] = arr
        self._multiplicity_cache: Dict[int, np.ndarray] = {}

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix: DistributedMatrix) -> "CommunicationContext":
        """Derive the scatter plan from the sparsity pattern of *matrix*.

        For every receiving node ``k``, the needed global column indices are
        grouped by their owner ``i``; the group owned by ``i != k`` is
        ``S_ik``.
        """
        partition = matrix.partition
        edges: Dict[Tuple[int, int], np.ndarray] = {}
        for dst in range(partition.n_parts):
            needed = matrix.needed_column_indices(dst)
            if needed.size == 0:
                continue
            owners = partition.owner_of(needed)
            for src in np.unique(owners):
                src = int(src)
                if src == dst:
                    continue
                edges[(src, dst)] = needed[owners == src]
        return cls(partition, edges)

    # -- basic queries -------------------------------------------------------------
    def send_indices(self, src: int, dst: int) -> np.ndarray:
        """``S_ik``: global indices sent from *src* to *dst* (possibly empty)."""
        return self._edges.get((src, dst), np.empty(0, dtype=np.int64))

    def send_count(self, src: int, dst: int) -> int:
        """``|S_ik|``."""
        return int(self.send_indices(src, dst).size)

    def receivers_of(self, src: int) -> List[int]:
        """Nodes that receive at least one element from *src* during SpMV."""
        return sorted(dst for (s, dst) in self._edges if s == src)

    def senders_to(self, dst: int) -> List[int]:
        """Nodes that send at least one element to *dst* during SpMV."""
        return sorted(src for (src, d) in self._edges if d == dst)

    def edges(self) -> List[ScatterEdge]:
        """All non-empty edges of the plan."""
        return [
            ScatterEdge(src, dst, idx)
            for (src, dst), idx in sorted(self._edges.items())
        ]

    def edge_count_matrix(self) -> np.ndarray:
        """Dense ``(N, N)`` matrix of ``|S_ik|`` (zero diagonal)."""
        n = self.partition.n_parts
        mat = np.zeros((n, n), dtype=np.int64)
        for (src, dst), idx in self._edges.items():
            mat[src, dst] = idx.size
        return mat

    # -- paper quantities --------------------------------------------------------------
    def multiplicity(self, src: int) -> np.ndarray:
        """``m_i(s)`` for every element of ``S_i`` (as a local-index array).

        Entry ``j`` of the returned array is the number of distinct nodes the
        ``j``-th locally-owned element of *src* is sent to during SpMV.
        """
        if src not in self._multiplicity_cache:
            size = self.partition.size_of(src)
            counts = np.zeros(size, dtype=np.int64)
            start, _ = self.partition.range_of(src)
            for (s, _dst), idx in self._edges.items():
                if s == src:
                    counts[idx - start] += 1
            self._multiplicity_cache[src] = counts
        return self._multiplicity_cache[src]

    def unsent_indices(self, src: int) -> np.ndarray:
        """``R^c_i``: global indices of *src* that no other node receives."""
        start, _ = self.partition.range_of(src)
        local = np.nonzero(self.multiplicity(src) == 0)[0]
        return local + start

    def natural_copy_count(self, src: int, min_copies: int) -> int:
        """Number of elements of ``S_i`` with ``m_i(s) >= min_copies``.

        Sec. 5: if this equals ``|S_i|`` for ``min_copies = phi`` on every
        node, the redundancy scheme needs no extra communication at all.
        """
        return int(np.count_nonzero(self.multiplicity(src) >= min_copies))

    # -- reverse plan (who holds what after the exchange) ---------------------------------
    def holders_of_block(self, owner: int, exclude: Iterable[int] = ()
                         ) -> Dict[int, np.ndarray]:
        """Map ``receiver -> global indices of *owner*'s block it received``.

        This is the reverse scatter used in reconstruction: after a failure of
        *owner*, surviving receivers can return the copies they naturally hold
        (the designated ESR backups additionally hold the ``R^c_ik`` extras,
        tracked by the ESR protocol itself).
        """
        excluded = set(int(e) for e in exclude)
        return {
            dst: idx
            for (src, dst), idx in self._edges.items()
            if src == owner and dst not in excluded
        }

    # -- summaries used by the cost/overhead analysis ----------------------------------------
    def total_exchanged_elements(self) -> int:
        """Total number of vector elements moved per SpMV."""
        return int(sum(idx.size for idx in self._edges.values()))

    def total_messages(self) -> int:
        """Number of point-to-point messages per SpMV."""
        return len(self._edges)

    def incoming_counts(self, dst: int) -> Dict[int, int]:
        """Per-sender element counts arriving at *dst*."""
        return {
            src: int(idx.size)
            for (src, d), idx in self._edges.items()
            if d == dst
        }

    def describe(self) -> str:
        """Short human-readable summary of the plan."""
        counts = [idx.size for idx in self._edges.values()]
        if not counts:
            return "CommunicationContext(no off-node dependencies)"
        return (
            f"CommunicationContext(messages={len(counts)}, "
            f"elements={int(np.sum(counts))}, "
            f"max_message={int(np.max(counts))})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()
