"""One JSON path for the library's configuration and result dataclasses.

A serializable type is a dataclass that inherits :class:`Serializable`
(written only: the solve results, recovery reports and request results)
or :class:`RoundTrip` (also rebuilt: the specs, campaign records and
service ledgers).  Neither restates its fields:

* ``to_dict`` (:func:`encode`) writes every field through
  :func:`jsonify`, so numpy scalars, arrays, enums, tuples and nested
  serializable values come out as plain JSON;
* ``from_dict`` (:func:`decode`) reads the field annotations, rebuilds the
  nested dataclasses, tuples and mappings they name, and calls the
  constructor.  Normalisation (lower-cased names, tuples of
  :class:`~repro.cluster.failure.FailureEvent`, enum members) stays in each
  type's ``__post_init__``, so a dictionary and a constructor call build
  the same object.

One key policy holds for every type: an unknown key raises
:class:`~repro.utils.validation.ValidationError` naming the class, a
missing key takes the field default, and a missing required field raises
the constructor's ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing
from typing import Any, Collection, Dict, Mapping, Tuple, Type, TypeVar

import numpy as np

from .validation import check_known_keys

T = TypeVar("T", bound="RoundTrip")


def jsonify(value: Any) -> Any:
    """Recursively convert a value into plain JSON-serializable types.

    numpy scalars become Python scalars, numpy arrays become (nested) lists,
    enum members become their values, mappings (with sorted string keys)
    and sequences are converted element-wise, and objects exposing their
    own ``to_dict`` delegate to it.  Anything already JSON-native
    (str/int/float/bool/None) passes through unchanged; anything else
    becomes its ``repr``.
    """
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, enum.Enum):
        return jsonify(value.value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): jsonify(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return repr(value)


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {name: hints[name] for name in _field_names(cls)}


def encode(obj: Any, *, leave_out: Collection[str] = ()) -> Dict[str, Any]:
    """The fields of the dataclass instance *obj*, in field order, as plain
    JSON (:func:`jsonify`), without the names in *leave_out*."""
    return {name: jsonify(getattr(obj, name))
            for name in _field_names(type(obj)) if name not in leave_out}


def _decode_value(hint: Any, value: Any) -> Any:
    if value is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:
        kinds = [a for a in args if a is not type(None)]
        # A union of several kinds (a name or a built object) passes as is.
        return _decode_value(kinds[0], value) if len(kinds) == 1 else value
    if dataclasses.is_dataclass(hint) and isinstance(value, Mapping):
        return decode(hint, value)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis \
            and not isinstance(value, str):
        # A str is left whole for the constructor's checks to see, not
        # split into a tuple of its letters.
        return tuple(_decode_value(args[0], v) for v in value)
    if origin is dict and len(args) == 2:
        return {k: _decode_value(args[1], v) for k, v in value.items()}
    return value


def decode(cls: Type[Any], data: Mapping[str, Any]) -> Any:
    """Rebuild a *cls* instance from :func:`encode` output (or hand-written
    JSON); see the module docstring for the key policy."""
    hints = _field_types(cls)
    check_known_keys(data, hints, cls.__name__)
    return cls(**{name: _decode_value(hints[name], value)
                  for name, value in data.items()})


class Serializable:
    """Dataclass mixin: ``to_dict`` writes every field as plain JSON.

    A subclass override only chooses fields to leave out (through
    :func:`encode`), appends derived values after the fields, or raises.
    """

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable dictionary of the fields."""
        return encode(self)


class RoundTrip(Serializable):
    """A :class:`Serializable` dataclass that ``from_dict`` rebuilds:
    ``cls.from_dict(json.loads(json.dumps(x.to_dict()))) == x``."""

    @classmethod
    def from_dict(cls: Type[T], data: Mapping[str, Any]) -> T:
        """Rebuild an instance from :meth:`to_dict` output."""
        return decode(cls, data)
