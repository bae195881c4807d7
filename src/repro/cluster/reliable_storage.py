"""Reliable external storage for static problem data.

Sec. 1.1.2 of the paper assumes that the *static* input data -- the system
matrix ``A``, the right-hand side ``b`` and the preconditioner ``M`` -- can be
retrieved from reliable external storage after a node failure (e.g. from a
checkpoint taken before entering the solver), so it never has to be protected
by the ESR scheme.  :class:`ReliableStorage` models exactly that: a key/value
store that survives any number of node failures, whose reads are charged to
the recovery phase of the cost ledger.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

import numpy as np
import scipy.sparse as sp

from .cost_model import CostLedger, Phase


def _element_count(value: Any) -> int:
    """Number of stored scalar elements in *value* (for retrieval cost)."""
    if isinstance(value, np.ndarray):
        return int(value.size)
    if sp.issparse(value):
        return int(value.nnz)
    if isinstance(value, (int, float, complex, np.generic)):
        return 1
    if isinstance(value, (list, tuple)):
        return sum(_element_count(v) for v in value)
    return 1


class ReliableStorage:
    """Failure-proof store for static data blocks.

    Keys are arbitrary hashables; by convention the library uses
    ``(name, rank)`` tuples for per-node blocks (e.g. ``("A_rows", 3)``) and
    plain strings for global items (e.g. ``"b"``).
    """

    def __init__(self, ledger: CostLedger):
        self._store: Dict[Any, Any] = {}
        self._ledger = ledger
        self.retrieval_count = 0

    # -- population (free: happens before the solver starts) ---------------
    def put(self, key: Any, value: Any) -> None:
        """Store *value* under *key* (no cost: done during problem setup)."""
        self._store[key] = value

    def put_block(self, name: str, rank: int, value: Any) -> None:
        """Store a per-node block under the conventional ``(name, rank)`` key."""
        self.put((name, rank), value)

    def __contains__(self, key: Any) -> bool:
        return key in self._store

    def keys(self) -> Iterable[Any]:
        return list(self._store.keys())

    # -- retrieval (charged to recovery) ------------------------------------
    def retrieve(self, key: Any, charge: bool = True) -> Any:
        """Fetch the value stored under *key*.

        Parameters
        ----------
        charge:
            If true (the default), the read is charged to the
            ``recovery.storage`` phase of the ledger -- retrieval only happens
            during reconstruction after a failure.
        """
        if key not in self._store:
            raise KeyError(f"reliable storage has no entry for {key!r}")
        value = self._store[key]
        if charge:
            n_elem = _element_count(value)
            self._ledger.add_time(
                Phase.STORAGE_RETRIEVE,
                self._ledger.model.storage_retrieve_time(n_elem),
            )
            self._ledger.add_traffic(Phase.STORAGE_RETRIEVE, 1, n_elem)
        self.retrieval_count += 1
        return value

    def retrieve_block(self, name: str, rank: int, charge: bool = True) -> Any:
        """Fetch a per-node block stored via :meth:`put_block`."""
        return self.retrieve((name, rank), charge=charge)

    def items(self) -> Iterable[Tuple[Any, Any]]:
        return list(self._store.items())
