"""The JSON writer against the text of json.dumps(obj, indent=2, allow_nan=False)."""

from __future__ import annotations

import dataclasses
import enum
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import sdloops as sl
from reference import _reference
from sdloops._jsonutil import _check, indented_json_pieces, iter_ranking_json
from sdloops.discovery import LoopCatalog, WeightedDigraph, enumerate_loops
from sdloops.scoring import LinkScoreSeries


def indented_json(obj):
    return "".join(indented_json_pieces(obj))


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


@settings(max_examples=400, deadline=None)
@given(_trees)
@example(["a", "b", math.nan])  # a list that starts as str
@example([1e308, 1e308, "a", -math.inf])  # finite numbers whose sum is not
@example([10**400, 0.5, math.inf])  # an int too large for a float
@example({"a": [1.0, 2.0], "b": (math.nan,), "c": [math.inf]})
@example([True, None, [], {}, [[math.inf]]])
def test_check_raises_what_json_dumps_raises(obj):
    """The check that runs before a document is written finds the value
    that json.dumps reports first, and nothing where it reports nothing."""
    expected = _reference(obj)
    try:
        _check(obj)
        got = ("text", expected[1])
    except ValueError as err:
        got = ("raises", ValueError, str(err))
    assert got == expected


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


# --------------------------------------------------------------------------
# the ranking template against the generic text

_NODES = ("a", "b", "\u00e9", "\u2603")  # two nodes that JSON writes as \u escapes
_link_scores = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -2.0, 1e-200, -1e-200, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@st.composite
def _rankings(draw):
    """A ranking_to_json_dict of a ranked catalog over the nodes, and its
    profiles.  Products of 1e-200 scores underflow to +-0.0 at active steps,
    products of 1e300 scores overflow to +-inf, and some profiles have
    another note or no mask."""
    pairs = [(src, dst) for src in _NODES for dst in _NODES]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    n = draw(st.integers(min_value=1, max_value=6))
    columns = {edge: draw(st.lists(_link_scores, min_size=n + 1, max_size=n + 1)) for edge in edges}
    series = LinkScoreSeries(tuple(edges), tuple(float(k) for k in range(n + 1)), columns)
    catalog = LoopCatalog(provenance=draw(st.sampled_from(["exhaustive", "strongest-path"])))
    for rec in enumerate_loops(WeightedDigraph.from_edges((src, dst, 1.0) for src, dst in edges)).loops():
        found_at = draw(st.one_of(st.integers(min_value=0, max_value=n), st.just("static")))
        catalog.add(rec.cycle, draw(_link_scores), found_at)
    profiles = sl.rank_and_filter(catalog, series, top=draw(st.integers(min_value=1, max_value=8)))
    for i, p in enumerate(profiles):
        change = draw(st.sampled_from(["none", "note", "no mask"]))
        if change == "note":
            profiles[i] = dataclasses.replace(p, note=draw(_text))
        elif change == "no mask":
            profiles[i] = dataclasses.replace(p, active=None)
    metadata = draw(st.one_of(st.none(), st.just({"model": "m\u00e9.sdm", "threshold": 0.0, "top": 3})))
    return sl.ranking_to_json_dict(profiles, catalog, metadata), profiles


@settings(max_examples=400, deadline=None)
@given(_rankings())
def test_ranking_pieces_match_json_dumps(case):
    ranking, profiles = case
    masks = [p.active for p in profiles]
    expected = _reference(ranking)
    try:
        got = ("text", "".join(iter_ranking_json(ranking, masks)))
    except ValueError as err:
        got = ("raises", ValueError, str(err))
    assert got == expected
    if expected[0] == "text":
        pieces = list(iter_ranking_json(ranking, masks))
        for entry in ranking["loops"]:  # one piece per loop
            assert any(piece.endswith(indented_json(entry).replace("\n", "\n    ")) for piece in pieces)


def _one_loop_ranking(**changes):
    """A ranking of one two-node loop over steps 0..2, active at step 1 only."""
    record = sl.LoopRecord(("a", "b"), 1.0, 1)
    profile = sl.LoopProfile(record, [0.0, -0.0, 0.0], [0.0, 0.0, 0.0], 0.0, "mixed", None, b"\x00\x01\x00")
    profile = dataclasses.replace(profile, **changes)
    return sl.ranking_to_json_dict([profile], LoopCatalog(), {"top": 1}), [profile.active]


@pytest.mark.parametrize(
    "changes",
    [
        {},  # an active step that underflowed to -0.0 keeps its sign
        {"score_series": [0.0, 5e-324, 0.0], "relative_series": [0.0, 1.0, 0.0], "avg_contribution": 0.5},
        {"note": "never active", "record": sl.LoopRecord(("\u00e9", "b"), -0.0, "static")},
        {"score_series": [0.0, 1.0], "relative_series": [0.0, 1.0, 0.0]},  # a series of another length
        {"score_series": [0.0, 1, 0.0]},  # an int at an active step
        {"active": None},
        {"active": b""},
    ],
)
def test_ranking_template_writes_what_json_dumps_writes(changes):
    ranking, masks = _one_loop_ranking(**changes)
    assert "".join(iter_ranking_json(ranking, masks)) == json.dumps(ranking, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "changes",
    [
        {"score_series": [0.0, math.nan, 0.0]},
        {"relative_series": [0.0, -math.inf, 0.0]},
        {"avg_contribution": math.nan},
        {"record": sl.LoopRecord(("a", "b"), math.inf, 1)},
        {"score_series": [0.0, math.nan, 0.0], "active": None},
    ],
)
def test_ranking_template_rejects_non_finite_numbers(changes):
    ranking, masks = _one_loop_ranking(**changes)
    with pytest.raises(ValueError):
        list(iter_ranking_json(ranking, masks))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_of_the_last_loop_raises_before_the_first_piece(value):
    """The check runs before the first piece: a caller that has a piece can
    open its output, because nothing later in the document raises."""
    profiles = [
        sl.LoopProfile(sl.LoopRecord(("a", f"n{i}"), 1.0, i), [0.0, 2.0, 0.0], [0.0, 0.25, 0.0], 0.1, "reinforcing", None, b"\x00\x01\x00")
        for i in range(3)
    ]
    profiles[-1].relative_series[1] = value
    ranking = sl.ranking_to_json_dict(profiles, LoopCatalog(), {"top": 3})
    masks = [p.active for p in profiles]
    with pytest.raises(ValueError) as expected:
        json.dumps(ranking, indent=2, allow_nan=False)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        next(iter_ranking_json(ranking, masks))
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        list(iter_ranking_json(ranking, masks))
