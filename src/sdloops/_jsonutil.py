"""The one JSON writer of the program.

`indented_json_pieces(obj)` returns exactly the text of
``json.dumps(obj, indent=2, allow_nan=False)`` for the types the program
emits (dicts with str keys, lists, str, int, float, bool and None) as a
list of pieces: a writer can put the pieces out one after another
without ever holding the whole text in one string.  With an indent,
`json.dumps` leaves its C encoder for a pure-Python one that yields one
small string per token; this writer instead joins each container once,
encodes strings with the C function `encode_basestring_ascii`, and turns
a list of only str or only float items into text with one `str.join`
over a `map`.

`iter_catalog_json(head, loops, loop_dict)` is the same text for a loop
catalog, the program's largest document: each loop, a tuple
`(cycle, discovery_score, found_at)`, is made by one f-string, its
indents written out and its cycle encoded with one `str.join`, and each
block of `_LOOP_BLOCK` loops is joined into one piece, so a writer makes
one call per block, not per loop.  A loop the template does not fit
goes through the generic writer as `loop_dict(*loop)`.
`iter_ranking_json` does the same for a ranking, one piece per loop:
a loop's series are "0.0" but at the steps its active-step mask marks,
the only ones that go through `float.__repr__`.

Both are checked, then written as they are rendered: before its first
piece each generator checks its document for NaN and infinities, in
document order (a list whose `sum` is finite needs no closer look), and
raises the writer's ValueError for the first, so a caller that has its
first piece can open its output and write each piece as it comes,
without holding the document.  `catalog_json_pieces` and
`ranking_json_pieces` are their pieces as a list.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import compress, islice
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

__all__ = [
    "catalog_json_pieces",
    "indented_json_pieces",
    "iter_catalog_json",
    "iter_ranking_json",
    "ranking_json_pieces",
]

_INDENT = "  "


def indented_json_pieces(obj) -> list[str]:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False)`` in
    pieces.  The top-level container and each container directly inside
    it are split at their items, so an item two levels down (one loop of
    a catalog or a ranking) is one piece and no piece holds the whole
    document.  An object of another type raises TypeError; NaN and
    infinities raise ValueError."""
    return _pieces(obj, "\n", 1)


# a catalog loop is an item of the list that is the document's last value
_LOOP_NEWLINE = "\n    "
_NODE_SEP = ",\n        "
_FOUND_AT = {int: int.__repr__, str: _encode_str}  # exact type -> writer; any other takes the generic writer
_LOOP_BLOCK = 256  # loops per piece of a catalog


def catalog_json_pieces(head: dict, loops, loop_dict) -> list[str]:
    """The pieces of iter_catalog_json as a list."""
    return list(iter_catalog_json(head, loops, loop_dict))


def iter_catalog_json(head: dict, loops, loop_dict) -> Iterator[str]:
    """The text of ``indented_json_pieces({**head, "loops": [loop_dict(*loop)
    for loop in loops]})`` in pieces, one per block of _LOOP_BLOCK loops
    (the last block may be shorter); each loop is a tuple (cycle,
    discovery_score, found_at), and `loops` a sized collection, read twice.

    Before the first piece, the document is checked: if the scores do not
    sum to a finite number, every loop is checked in order, and the first
    NaN or infinity raises the writer's ValueError.  A loop's cycle and
    found_at are trusted to be of their documented types (str nodes, an
    int or a str) when every score is finite.  Then a loop whose cycle is
    a non-empty sequence of str, whose discovery_score is a float and whose
    found_at is an int or a str is written from one template; any other
    loop is written as `loop_dict(*loop)` by the generic writer."""
    if not loops:
        yield from indented_json_pieces({**head, "loops": []})
        return
    _check(head)
    try:
        finite = math.isfinite(sum(map(itemgetter(1), loops)))
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        for loop in loops:
            _check(loop_dict(*loop))
    yield from _around_loops({**head, "loops": loops}, _catalog_blocks(loops, loop_dict))


def _catalog_blocks(loops, loop_dict) -> Iterator[str]:
    """The checked loops as text, one string per block of _LOOP_BLOCK loops."""
    write_float = float.__repr__
    rest = iter(loops)
    while True:
        block = []
        for cycle, score, found_at in islice(rest, _LOOP_BLOCK):
            found = _FOUND_AT.get(type(found_at))
            try:
                nodes = _NODE_SEP.join(map(_encode_str, cycle))
            except TypeError:
                nodes = ""
            if nodes and found is not None and type(score) is float:
                block.append(
                    f',{_LOOP_NEWLINE}{{\n      "cycle": [\n        {nodes}\n      ],\n      '
                    f'"discovery_score": {write_float(score)},\n      "found_at": {found(found_at)}{_LOOP_NEWLINE}}}'
                )
            else:
                block.append("," + _LOOP_NEWLINE + _encode(loop_dict(cycle, score, found_at), _LOOP_NEWLINE))
        if not block:
            return
        yield "".join(block)


_ENTRY_NEWLINE = "\n      "  # the line break and indent of a loop's fields
_SERIES = ("score_series", "relative_series")  # the lists that a loop's mask describes


def ranking_json_pieces(ranking: dict, masks) -> list[str]:
    """The pieces of iter_ranking_json as a list."""
    return list(iter_ranking_json(ranking, masks))


def iter_ranking_json(ranking: dict, masks) -> Iterator[str]:
    """The text of ``indented_json_pieces(ranking)`` in pieces, one per
    loop.  masks[i] is None or the active-step mask of ranking["loops"][i]
    (`LoopProfile.active`): a byte per step, 0 where both its series hold
    0.0.  Before the first piece, the whole document is checked, and its
    first NaN or infinity raises the writer's ValueError.  Then a loop
    with a mask is one f-string whose series are written from the mask; a
    loop without one is written by the generic writer."""
    loops = ranking["loops"]
    if not loops:
        yield from indented_json_pieces(ranking)
        return
    if len(masks) != len(loops):
        raise ValueError(f"{len(masks)} masks for {len(loops)} loops")
    _check(ranking)
    yield from _around_loops(ranking, map(_ranking_loop, loops, masks))


def _ranking_loop(entry, mask: bytes | None) -> str:
    """One checked loop of a ranking, after its comma and line break."""
    if mask is None or type(entry) is not dict or not entry:
        return "," + _LOOP_NEWLINE + _encode(entry, _LOOP_NEWLINE)
    fields = (
        _encode_str(key) + ": " + (_masked(v, mask) if key in _SERIES else _encode(v, _ENTRY_NEWLINE))
        for key, v in entry.items()
    )
    return f",{_LOOP_NEWLINE}{{{_ENTRY_NEWLINE}{(',' + _ENTRY_NEWLINE).join(fields)}{_LOOP_NEWLINE}}}"


def _masked(values, mask: bytes) -> str:
    """A checked series, 0.0 where `mask` holds 0, as the generic writer
    writes it, with float.__repr__ only where the mask holds 1.  A series
    whose length is not the mask's, an empty one, or one with a non-float
    where the mask holds 1 takes the generic writer."""
    n = len(mask)
    if type(values) is list and len(values) == n > 0:
        text = ["0.0"] * n
        try:
            for k, r in zip(compress(range(n), mask), map(float.__repr__, compress(values, mask))):
                text[k] = r
        except TypeError:
            return _encode(values, _ENTRY_NEWLINE)
        return f"[{_NODE_SEP[1:]}{_NODE_SEP.join(text)}{_ENTRY_NEWLINE}]"
    return _encode(values, _ENTRY_NEWLINE)


def _around_loops(doc: dict, loops: Iterator[str]) -> Iterator[str]:
    """indented_json_pieces(doc), where doc["loops"] is a non-empty list
    written as the pieces of `loops`, each after its comma and line break."""
    items = list(doc.items())
    at = list(doc).index("loops")
    yield from indented_json_pieces(dict(items[:at], loops=[]))[:-3]  # less "[]" and the closing "\n", "}"
    yield "["
    yield next(loops)[1:]  # no comma before the first loop
    yield from loops
    yield "\n  ]"
    tail = indented_json_pieces(dict(items[at + 1 :]))
    tail[:1] = [","] if len(tail) > 1 else ["\n}"]  # in place of the tail's own "{", or of its "{}"
    yield from tail


_PLAIN = frozenset({str, int, bool, type(None)})  # exact types that hold no float


def _check(obj) -> None:
    """Raise the writer's ValueError for the first NaN or infinity in obj,
    in document order.  A list or tuple that joins as str, or whose sum is
    finite, holds none, so only another one is checked item by item."""
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        try:
            if obj and type(obj[0]) is str:
                "".join(obj)
                return
            if math.isfinite(sum(obj)):
                return
        except (TypeError, OverflowError):  # not all str or all numbers, or an int too large for a float
            pass
        items = obj
    else:
        if isinstance(obj, float):
            _float(obj)
        return
    for item in items:
        kind = type(item)
        if kind is float:
            if not math.isfinite(item):
                _float(item)
        elif kind not in _PLAIN:
            _check(item)


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return float.__repr__(x)


# exact type -> writer; subclasses take the isinstance path at the end of _pieces
_SCALARS = {
    str: _encode_str,
    float: _float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(obj, newline: str) -> str:
    """`obj` as one JSON string whose closing bracket follows `newline` (a
    line break and the indent of the line `obj` starts on)."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    return "".join(_pieces(obj, newline, 0))


def _pieces(obj, newline: str, depth: int) -> list[str]:
    """`obj` as JSON pieces, closing bracket after `newline`.  Each item
    of a container is one piece at `depth` 0; at `depth` d it is split into
    pieces itself, its own items at depth d - 1."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return [scalar(obj)]
    inner = newline + _INDENT
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return ["{}"]
        parts = ["{"]
        # encode_basestring_ascii raises TypeError on a non-str key
        if depth:
            for key, value in obj.items():
                parts += (sep, _encode_str(key), ": ", *_pieces(value, inner, depth - 1))
        else:
            for key, value in obj.items():
                parts += (sep, _encode_str(key), ": ", _encode(value, inner))
        parts[1] = inner
        parts += (newline, "}")
        return parts
    if isinstance(obj, (list, tuple)):
        if not obj:
            return ["[]"]
        try:  # all str: one join, no Python call per item
            return [f"[{inner}{sep.join(map(_encode_str, obj))}{newline}]"]
        except TypeError:
            pass
        try:  # all float
            body = sep.join(map(float.__repr__, obj))
        except TypeError:
            pass
        else:
            if "n" in body:  # "nan", "inf" or "-inf": no finite float's repr has an n
                for x in obj:
                    _float(x)
            return [f"[{inner}{body}{newline}]"]
        parts = ["["]
        if depth:
            for item in obj:
                parts += (sep, *_pieces(item, inner, depth - 1))
        else:
            for item in obj:
                parts += (sep, _encode(item, inner))
        parts[1] = inner
        parts += (newline, "]")
        return parts
    for base in (str, float, int):
        if isinstance(obj, base):
            return [_SCALARS[base](obj)]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
