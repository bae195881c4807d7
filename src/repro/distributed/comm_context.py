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

:class:`CommunicationContext` indexes the plan once, when it is built: per
sender ``i`` the table ``{k: S_ik}`` in ascending receiver order, and per
receiver ``k`` its senders in ascending order.  Every per-rank query is a
lookup that costs that rank's degree, and ``m_i(s)`` is counted from
sender ``i``'s own row.  A plan that ships an index its sender does not own
raises :class:`ContextMismatchError` when it is built.  A
:class:`~repro.distributed.dmatrix.DistributedMatrix` derives its one plan
from its own pattern (:attr:`DistributedMatrix.context`), so that plan
covers the matrix by construction.  The ESR redundancy scheme
(:mod:`repro.core.redundancy`) and the overhead analysis
(:mod:`repro.analysis.overhead`) are built on top.  The plan also memoizes
what is laid out over it: :attr:`CommunicationContext.schemes` keeps each
redundancy scheme :func:`~repro.core.redundancy.build_redundancy_scheme`
builds, keyed by its layout, so every resilient solve of one problem and
layout shares one scheme and its static tables, and they are freed with
the plan.  The *reverse* scatter (who holds copies of which remote
elements after the exchange) is read with
:meth:`CommunicationContext.senders_to`: it is what reconstruction uses to
re-gather lost search-direction blocks, exactly as the paper's
implementation reverses the PETSc scatter (Sec. 6).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from .dmatrix import DistributedMatrix
from .partition import BlockRowPartition


class ContextMismatchError(ValueError):
    """The scatter plan does not fit the partition.

    Raised when a :class:`CommunicationContext` is built with an edge that
    ships an index its sender does not own, or that names a rank outside
    the partition.
    """


class CommunicationContext:
    """The generalized-scatter plan of a distributed SpMV."""

    def __init__(self, partition: BlockRowPartition,
                 edges: Dict[Tuple[int, int], np.ndarray]):
        self.partition = partition
        n_parts = partition.n_parts
        #: Per sender ``i``: ``{k: S_ik}`` in ascending receiver order, each
        #: ``S_ik`` sorted unique int64 indices; empty edges are dropped.
        self._sends: List[Dict[int, np.ndarray]] = [{} for _ in range(n_parts)]
        #: Per receiver ``k``: its senders in ascending order.
        self._senders: List[List[int]] = [[] for _ in range(n_parts)]
        for (src, dst), idx in sorted(edges.items()):
            src, dst = int(src), int(dst)
            if not (0 <= src < n_parts and 0 <= dst < n_parts):
                raise ContextMismatchError(
                    f"scatter plan edge ({src}, {dst}) names a rank outside "
                    f"the {n_parts}-rank partition"
                )
            arr = np.unique(np.asarray(idx, dtype=np.int64))
            if src == dst or not arr.size:
                continue
            start, stop = partition.range_of(src)
            if arr[0] < start or arr[-1] >= stop:
                raise ContextMismatchError(
                    f"scatter plan sends rank {dst} indices that rank {src} "
                    "does not own"
                )
            self._sends[src][dst] = arr
            self._senders[dst].append(src)
        #: Redundancy schemes laid out over this plan, keyed by their
        #: layout (filled by :func:`~repro.core.redundancy.
        #: build_redundancy_scheme`).
        self.schemes: Dict[Tuple[Any, ...], Any] = {}

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix: DistributedMatrix) -> "CommunicationContext":
        """Derive the scatter plan from the sparsity pattern of *matrix*.

        For every receiving node ``k``, the needed global column indices are
        grouped by their owner ``i``; the group owned by ``i != k`` is
        ``S_ik``.  :attr:`DistributedMatrix.context` calls this once; the
        matrix's engine, its solvers and the analyses all read that plan.
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
        idx = self._sends[src].get(dst)
        return idx if idx is not None else np.empty(0, dtype=np.int64)

    def send_count(self, src: int, dst: int) -> int:
        """``|S_ik|``."""
        return int(self.send_indices(src, dst).size)

    def receivers_of(self, src: int) -> List[int]:
        """Nodes that receive at least one element from *src* during SpMV,
        in ascending order."""
        return list(self._sends[src])

    def senders_to(self, dst: int) -> List[int]:
        """Nodes that send at least one element to *dst* during SpMV, in
        ascending order (the reverse scatter of *dst*)."""
        return list(self._senders[dst])

    # -- paper quantities --------------------------------------------------------------
    def multiplicity(self, src: int) -> np.ndarray:
        """``m_i(s)`` for every element of ``S_i`` (as a local-index array).

        Entry ``j`` of the returned array is the number of distinct nodes the
        ``j``-th locally-owned element of *src* is sent to during SpMV.
        """
        start, stop = self.partition.range_of(src)
        row = list(self._sends[src].values())
        if not row:
            return np.zeros(stop - start, dtype=np.int64)
        return np.bincount(np.concatenate(row) - start, minlength=stop - start)

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

    # -- summaries used by the cost/overhead analysis ----------------------------------------
    def _counts(self) -> List[int]:
        """``|S_ik|`` of every edge, in (sender, receiver) order."""
        return [idx.size for row in self._sends for idx in row.values()]

    def total_exchanged_elements(self) -> int:
        """Total number of vector elements moved per SpMV."""
        return int(sum(self._counts()))

    def total_messages(self) -> int:
        """Number of point-to-point messages per SpMV."""
        return sum(len(row) for row in self._sends)

    def describe(self) -> str:
        """Short human-readable summary of the plan."""
        counts = self._counts()
        if not counts:
            return "CommunicationContext(no off-node dependencies)"
        return (
            f"CommunicationContext(messages={len(counts)}, "
            f"elements={int(np.sum(counts))}, "
            f"max_message={int(np.max(counts))})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()
