"""Checkpoint serialization, freezing, and digests."""

from collections import deque
from dataclasses import dataclass, fields, is_dataclass

import pytest
from hypothesis import given, strategies as st

from repro.statemachine import (
    Message,
    SerializationError,
    digest,
    freeze,
    snapshot_value,
)
from repro.statemachine.serialization import (
    checkpoint_state,
    digest_of_frozen,
    restore_state,
)


@dataclass
class Wire(Message):
    a: int
    b: list


# Plain-data strategy: every scalar and container shape the serializer
# accepts, including tuples that hold mutable lists and wire messages.
scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False) | st.binary(max_size=4)
)
hashables = (
    st.integers() | st.text(max_size=4)
    | st.tuples(st.integers(), st.text(max_size=2))
)
plain = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=4).map(deque)
        | st.dictionaries(hashables, children, max_size=4)
        | st.sets(hashables, max_size=4)
        | st.frozensets(hashables, max_size=4)
        | st.builds(Wire, a=st.integers(), b=st.lists(children, max_size=3))
    ),
    max_leaves=12,
)

MUTABLE = (list, dict, set, deque)


def _children(value):
    """The values directly inside a plain-data container, in order."""
    if isinstance(value, dict):
        return [*value, *value.values()]
    if isinstance(value, (list, tuple, deque, set, frozenset)):
        return list(value)
    if is_dataclass(value):
        return [getattr(value, f.name) for f in fields(value)]
    return []


def _mutable_containers(value):
    found = [value] if isinstance(value, MUTABLE) or is_dataclass(value) else []
    for child in _children(value):
        found.extend(_mutable_containers(child))
    return found


def _mutate(container):
    if isinstance(container, (list, deque)):
        container.append("mutated")
    elif isinstance(container, dict):
        container["mutated"] = "mutated"
    elif isinstance(container, set):
        container.add("mutated")
    else:
        container.a = "mutated"


@given(plain)
def test_snapshot_is_equal_but_distinct(value):
    copy = snapshot_value(value)
    assert copy == value
    if isinstance(value, (list, dict, set)):
        assert copy is not value


@given(plain)
def test_freeze_is_hashable_and_stable(value):
    frozen = freeze(value)
    hash(frozen)
    assert frozen == freeze(value)


@given(plain)
def test_digest_stable_across_copies(value):
    assert digest(value) == digest(snapshot_value(value))


@given(plain)
def test_digest_is_the_frozen_encoding(value):
    assert digest(value) == digest_of_frozen(freeze(value))


def _assert_same_types(copy, value):
    assert type(copy) is type(value)
    if isinstance(value, (set, frozenset)):
        assert copy == value
        assert sorted(map(repr, copy)) == sorted(map(repr, value))
    else:
        for copied, original in zip(_children(copy), _children(value)):
            _assert_same_types(copied, original)


@given(plain)
def test_snapshot_keeps_exact_types_at_every_level(value):
    _assert_same_types(snapshot_value(value), value)


@given(plain)
def test_mutating_a_snapshot_never_reaches_the_original(value):
    before = digest(value)
    for container in _mutable_containers(snapshot_value(value)):
        _mutate(container)
    assert digest(value) == before


def test_freeze_distinguishes_list_and_tuple():
    assert freeze([1, 2]) != freeze((1, 2))


def test_freeze_dict_order_independent():
    assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})


def test_freeze_set_order_independent():
    assert freeze({3, 1, 2}) == freeze({2, 3, 1})


def test_nested_mutation_does_not_leak():
    original = {"deep": [1, [2, 3]]}
    copy = snapshot_value(original)
    copy["deep"][1].append(4)
    assert original["deep"][1] == [2, 3]


def test_dataclass_snapshot_reconstructs():
    message = Wire(a=1, b=[1, 2])
    copy = snapshot_value(message)
    assert copy == message
    copy.b.append(3)
    assert message.b == [1, 2]


def test_dataclass_freeze_includes_class_name():
    assert "Wire" in repr(freeze(Wire(a=1, b=[])))


def test_non_plain_value_rejected():
    with pytest.raises(SerializationError):
        snapshot_value(object())
    with pytest.raises(SerializationError):
        freeze(lambda: None)


def test_checkpoint_and_restore_roundtrip():
    class Holder:
        pass

    holder = Holder()
    holder.x = [1, 2]
    holder.y = {"k": 3}
    checkpoint = checkpoint_state(holder, ("x", "y"))
    holder.x.append(99)
    holder.y["k"] = 0
    restore_state(holder, checkpoint)
    assert holder.x == [1, 2]
    assert holder.y == {"k": 3}


def test_digest_differs_for_different_values():
    assert digest({"a": 1}) != digest({"a": 2})
