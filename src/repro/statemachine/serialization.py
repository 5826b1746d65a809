"""Checkpoint serialization and canonical state freezing.

Services declare plain-data ``state_fields``; checkpoints are copies
of those fields that share only immutable values with the live state.
The model checker needs to recognize states it has already visited, so
:func:`freeze` converts any plain-data value to a canonical hashable
form and :func:`digest` produces a stable hash of its encoding.

Plain data means: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, and ``dict``/``list``/``tuple``/``set``/``frozenset``/
``collections.deque`` of plain data, plus dataclass instances whose
fields are plain data (covers wire messages).  Deques round-trip as
deques (and freeze with their own tag) so queue-shaped service state
survives checkpoint/restore with its type intact.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Hashable, List

_SCALARS = (type(None), bool, int, float, str, bytes)
# Exact-type sets for the bulk paths; subclasses take the generic ones.
_SCALAR_TYPES = frozenset(_SCALARS)
_NESTED_TYPES = frozenset((tuple, frozenset))
_IMMUTABLE_TYPES = _SCALAR_TYPES | _NESTED_TYPES
# One-call copies of mutable containers of immutable values.  A set is
# rebuilt from an iterator, element by element, so the copy iterates in
# the same order as the per-element copy always did.
_COPIES = {list: list, deque: deque, set: lambda s: set(iter(s)), dict: dict}


class SerializationError(TypeError):
    """Raised when a value is not plain data."""


def _immutable(values) -> bool:
    """True when every one of ``values`` (a re-iterable) is a scalar or
    an exact tuple/frozenset of such at any depth, checked one level per
    C-level pass: values that can be shared by reference."""
    level = values
    while True:
        kinds = set(map(type, level))
        if kinds <= _SCALAR_TYPES:
            return True
        if not kinds <= _IMMUTABLE_TYPES:
            return False
        if not kinds.isdisjoint(_SCALAR_TYPES):
            level = [v for v in level if type(v) in _NESTED_TYPES]
        level = list(chain.from_iterable(level))


def snapshot_value(value: Any) -> Any:
    """Copy a plain-data value for a checkpoint.

    Immutable values (scalars, and exact tuples and frozensets of them)
    are shared by reference; every mutable container is copied, so a
    checkpoint never aliases live mutable state.  A list, set, deque or
    dict holding only immutable values is copied in one C-level call,
    and a dict of lists of immutable values with one shallow copy per
    list.  Dataclass instances are copied by reconstructing them.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    if kind in _NESTED_TYPES:
        if _immutable(value):
            return value
    elif kind in _COPIES:
        if not value:
            return kind()
        if _immutable(value):  # the elements, or a dict's keys
            if kind is not dict or _immutable(value.values()):
                return _COPIES[kind](value)
            values = value.values()
            if set(map(type, values)) == {list} and _immutable(list(chain.from_iterable(values))):
                return dict(zip(value, map(list.copy, values)))
            return {k: snapshot_value(v) for k, v in value.items()}
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {snapshot_value(k): snapshot_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [snapshot_value(v) for v in value]
    if isinstance(value, deque):
        return deque(snapshot_value(v) for v in value)
    if isinstance(value, tuple):
        return tuple(snapshot_value(v) for v in value)
    if isinstance(value, (set, frozenset)):
        copied = {snapshot_value(v) for v in value}
        return frozenset(copied) if isinstance(value, frozenset) else copied
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: snapshot_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return type(value)(**fields)
    raise SerializationError(
        f"value of type {type(value).__name__} is not plain data: {value!r}"
    )


def freeze(value: Any) -> Hashable:
    """Convert a plain-data value to a canonical hashable form.

    The encoding is injective per type (containers are tagged) so that
    e.g. ``[1, 2]`` and ``(1, 2)`` freeze differently.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        items = tuple(sorted(((freeze(k), freeze(v)) for k, v in value.items()),
                             key=lambda kv: repr(kv[0])))
        return ("__dict__", items)
    if isinstance(value, list):
        return ("__list__", tuple(freeze(v) for v in value))
    if isinstance(value, deque):
        return ("__deque__", tuple(freeze(v) for v in value))
    if isinstance(value, tuple):
        return ("__tuple__", tuple(freeze(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("__set__", tuple(sorted((freeze(v) for v in value), key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(
            (f.name, freeze(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
        return ("__dc__", type(value).__name__, fields)
    raise SerializationError(
        f"value of type {type(value).__name__} is not plain data: {value!r}"
    )


def encode_frozen(frozen_value: Hashable) -> bytes:
    """Canonical byte encoding of an already-frozen value.

    This is the single encoder behind every digest in the system
    (service checkpoints, world states, event keys): digesting anything
    means ``sha256(encode_frozen(freeze(value)))``.
    """
    return repr(frozen_value).encode("utf-8")


def digest_of_frozen(frozen_value: Hashable) -> str:
    """Stable hex digest of an already-frozen value."""
    return hashlib.sha256(encode_frozen(frozen_value)).hexdigest()[:16]


def _tuple_repr(parts: List[str]) -> str:
    """``repr`` of a tuple whose elements' reprs are ``parts``."""
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


_SEQUENCE_TAGS = {list: "__list__", deque: "__deque__", tuple: "__tuple__"}
_EMPTY_ENCODINGS = {kind: repr(freeze(kind()))
                    for kind in (dict, list, deque, tuple, set, frozenset)}


def _encode_all(values) -> List[str]:
    """:func:`_encode` of each of ``values`` (a re-iterable), in order.

    Scalars, and equal-length sequences of one kind holding only
    scalars, are encoded in bulk.
    """
    kinds = set(map(type, values))
    if kinds <= _SCALAR_TYPES:
        return list(map(repr, values))
    tag = _SEQUENCE_TAGS.get(kinds.pop()) if len(kinds) == 1 else None
    if tag and set(map(type, chain.from_iterable(values))) <= _SCALAR_TYPES:
        rows = values if tag == "__tuple__" else list(map(tuple, values))
        lengths = set(map(len, rows))
        if len(lengths) == 1:
            # Equal-length rows share one %-template: one C call each.
            template = f"('{tag}', {_tuple_repr(['%r'] * lengths.pop())})"
            return list(map(template.__mod__, rows))
    return list(map(_encode, values))


def _encode(value: Any) -> str:
    """``repr(freeze(value))``, written in one pass without building the
    frozen tree."""
    kind = type(value)
    if kind in _SCALAR_TYPES or isinstance(value, _SCALARS):
        return repr(value)
    if kind in _EMPTY_ENCODINGS and not value:
        return _EMPTY_ENCODINGS[kind]
    if isinstance(value, dict):
        items = sorted(zip(_encode_all(value), _encode_all(value.values())),
                       key=itemgetter(0))
        return f"('__dict__', {_tuple_repr(list(map('(%s, %s)'.__mod__, items)))})"
    if isinstance(value, list):
        tag = "__list__"
    elif isinstance(value, deque):
        tag = "__deque__"
    elif isinstance(value, tuple):
        tag = "__tuple__"
    elif isinstance(value, (set, frozenset)):
        return f"('__set__', {_tuple_repr(sorted(_encode_all(value)))})"
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [f"({f.name!r}, {_encode(getattr(value, f.name))})"
                  for f in dataclasses.fields(value)]
        return f"('__dc__', {type(value).__name__!r}, {_tuple_repr(fields)})"
    else:
        raise SerializationError(
            f"value of type {type(value).__name__} is not plain data: {value!r}"
        )
    return f"('{tag}', {_tuple_repr(_encode_all(value))})"


def digest(value: Any) -> str:
    """Stable hex digest of a plain-data value; always equal to
    ``digest_of_frozen(freeze(value))``."""
    return hashlib.sha256(_encode(value).encode("utf-8")).hexdigest()[:16]


def checkpoint_state(obj: Any, field_names) -> Dict[str, Any]:
    """Snapshot the named attributes of ``obj`` into a checkpoint dict."""
    return {name: snapshot_value(getattr(obj, name)) for name in field_names}


def restore_state(obj: Any, checkpoint: Dict[str, Any]) -> None:
    """Install a checkpoint dict onto ``obj`` (copying values as
    :func:`snapshot_value` does)."""
    for name, value in checkpoint.items():
        setattr(obj, name, snapshot_value(value))


__all__ = [
    "SerializationError",
    "snapshot_value",
    "freeze",
    "encode_frozen",
    "digest_of_frozen",
    "digest",
    "checkpoint_state",
    "restore_state",
]
