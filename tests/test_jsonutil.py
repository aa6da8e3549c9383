"""The JSON writer against the text of json.dumps(obj, indent=2, allow_nan=False)."""

from __future__ import annotations

import enum
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from sdloops._jsonutil import indented_json_pieces


def indented_json(obj):
    return "".join(indented_json_pieces(obj))


def _reference(obj):
    """("text", text) or ("raises", exception type, message)."""
    try:
        return ("text", json.dumps(obj, indent=2, allow_nan=False))
    except (ValueError, TypeError) as err:
        return ("raises", type(err), str(err))


def _writer(obj):
    try:
        return ("text", indented_json(obj))
    except (ValueError, TypeError) as err:
        return ("raises", type(err), str(err))


# every code point, control characters and lone surrogates included
_text = st.text(st.characters(blacklist_categories=()), max_size=8)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1])
    | _text
)
_trees = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(_text, max_size=6)
        | st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6)
        | st.dictionaries(_text, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_trees)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example([1, "a", 1.5, None, True, False, [2.5], {"k": []}])
@example({"é\x00\n\"\\ \ud800": ["\x7f", "😀", "\x1f"]})
@example([10**100, -(10**100), -0.0, 5e-324])
@example([1.0, math.nan])
@example({"a": [math.inf]})
@example([1, -math.inf])
@example(math.nan)
def test_matches_json_dumps(obj):
    expected = _reference(obj)
    assert expected[0] == "text" or expected[1] is ValueError  # the strategy builds only JSON types
    assert _writer(obj) == expected


@settings(max_examples=300, deadline=None)
@given(_trees)
@example({"loops": [{"cycle": ["a"], "score": 1.5}, {"cycle": [], "score": -0.0}], "overflow": False})
@example([[["deep"]], {"k": {"v": [1, 2]}}])
def test_pieces_join_to_the_text(obj):
    try:
        pieces = indented_json_pieces(obj)
    except ValueError:
        with pytest.raises(ValueError):
            indented_json(obj)
        return
    assert all(type(piece) is str for piece in pieces)
    assert "".join(pieces) == indented_json(obj) == json.dumps(obj, indent=2, allow_nan=False)


def test_pieces_split_two_levels_down():
    """Each item of a container inside the top-level one is its own piece,
    so a catalog's loops are pieces, never one string."""
    loops = [{"cycle": ["a", "b"], "score": float(i)} for i in range(3)]
    pieces = indented_json_pieces({"loops": loops})
    for loop in loops:
        assert indented_json(loop).replace("\n", "\n    ") in pieces


def test_tuples_and_subclasses_are_written_as_json_dumps_writes_them():
    class Name(str):
        pass

    class Score(float):
        pass

    class Flag(enum.IntEnum):
        ON = 1

    obj = {"t": (1, "a"), "s": [Name("n"), Name("m")], "f": [Score(0.5)], "x": Name("y"), "i": Flag.ON, "g": Score(2.0)}
    assert indented_json(obj) == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize("obj", [{1: "a"}, {None: 1}, {1.5: 1}, {0: [1.0], 1: ["a"]}])
def test_non_str_key_is_a_type_error(obj):
    with pytest.raises(TypeError):
        indented_json(obj)


@pytest.mark.parametrize("obj", [{1, 2}, [object()], {"a": b"bytes"}, [1.0, 1j], {"a": {"b": [object()]}}])
def test_unsupported_type_is_a_type_error(obj):
    with pytest.raises(TypeError):
        indented_json(obj)
