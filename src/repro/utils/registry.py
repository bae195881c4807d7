"""One case-insensitive name registry for every pluggable choice.

The solver, the preconditioner, the backup placement, the redundancy scheme
and the service's batching policy are each picked by a short name, through
:data:`~repro.core.registry.SOLVERS`,
:data:`~repro.precond.factory.PRECONDITIONERS`,
:data:`~repro.core.placement.PLACEMENTS`,
:data:`~repro.core.redundancy.REDUNDANCY_SCHEMES` and
:data:`~repro.service.policies.BATCHING_POLICIES`.  All five are
:class:`Registry` instances and so share one lookup behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, Tuple, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Case-insensitive ``name -> (object, description)`` table.

    *kind* names what the registry holds (``"solver"``, ``"placement"``,
    ...) in the error of an unknown name.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Tuple[T, str]] = {}

    def register(self, name: str, description: str = ""
                 ) -> Callable[[T], T]:
        """Decorator adding its argument under *name*; returns it unchanged."""
        def decorator(obj: T) -> T:
            self.add(name, obj, description)
            return obj

        return decorator

    def add(self, name: str, obj: T, description: str = "") -> None:
        """Register *obj* under *name*, replacing any earlier entry."""
        self._entries[str(name).lower()] = (obj, description)

    def get(self, name: str) -> T:
        """The object registered under *name* (case-insensitive).

        Raises ``ValueError`` listing every registered name when *name* is
        unknown.
        """
        try:
            return self._entries[str(name).lower()][0]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """The registered names, lower-case and sorted."""
        return tuple(sorted(self._entries))

    def descriptions(self) -> Dict[str, str]:
        """``name -> description`` of every entry, in name order."""
        return {name: self._entries[name][1] for name in self.names()}

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())
