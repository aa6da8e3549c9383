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

`catalog_json_pieces(head, loops, loop_dict)` is the same text for a loop
catalog, the program's largest document: each loop, a tuple
`(cycle, discovery_score, found_at)`, is one piece made by one f-string,
its indents written out and its cycle encoded with one `str.join`.  A
loop the template does not fit goes through the generic writer as
`loop_dict(*loop)`.  `ranking_json_pieces` does the
same for a ranking: a loop's series are "0.0" but at the steps its
active-step mask marks, the only ones that go through `float.__repr__`.
"""

from __future__ import annotations

import math
from itertools import compress
from json.encoder import encode_basestring_ascii as _encode_str

__all__ = ["catalog_json_pieces", "indented_json_pieces", "ranking_json_pieces"]

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


def catalog_json_pieces(head: dict, loops, loop_dict) -> list[str]:
    """The text of ``indented_json_pieces({**head, "loops": [loop_dict(*loop)
    for loop in loops]})`` in pieces, one per loop; each loop is a tuple
    (cycle, discovery_score, found_at).  A loop whose cycle is a non-empty
    sequence of str, whose discovery_score is a float and whose found_at is
    an int or a str is written from one template; any other loop is written
    as `loop_dict(*loop)` by the generic writer."""
    if not loops:
        return indented_json_pieces({**head, "loops": []})
    pieces = []
    for cycle, score, found_at in loops:
        found = _FOUND_AT.get(type(found_at))
        try:
            nodes = _NODE_SEP.join(map(_encode_str, cycle))
        except TypeError:
            nodes = ""
        if nodes and found is not None and type(score) is float:
            pieces.append(
                f',{_LOOP_NEWLINE}{{\n      "cycle": [\n        {nodes}\n      ],\n      '
                f'"discovery_score": {_float(score)},\n      "found_at": {found(found_at)}{_LOOP_NEWLINE}}}'
            )
        else:
            pieces.append("," + _LOOP_NEWLINE + _encode(loop_dict(cycle, score, found_at), _LOOP_NEWLINE))
    return _around_loops({**head, "loops": loops}, pieces)


_ENTRY_NEWLINE = "\n      "  # the line break and indent of a loop's fields
_SERIES = ("score_series", "relative_series")  # the lists that a loop's mask describes


def ranking_json_pieces(ranking: dict, masks) -> list[str]:
    """The text of ``indented_json_pieces(ranking)`` in pieces, one per
    loop.  masks[i] is None or the active-step mask of ranking["loops"][i]
    (`LoopProfile.active`): a byte per step, 0 where both its series hold
    0.0.  A loop with a mask is one f-string whose series are written from
    the mask; a loop without one is written by the generic writer."""
    if not ranking["loops"]:
        return indented_json_pieces(ranking)
    pieces = []
    for entry, mask in zip(ranking["loops"], masks, strict=True):
        if mask is None or type(entry) is not dict or not entry:
            pieces.append("," + _LOOP_NEWLINE + _encode(entry, _LOOP_NEWLINE))
            continue
        n, steps = len(mask), list(compress(range(len(mask)), mask))
        fields = (
            _encode_str(key) + ": " + (_masked(v, steps, n) if key in _SERIES else _encode(v, _ENTRY_NEWLINE))
            for key, v in entry.items()
        )
        pieces.append(f",{_LOOP_NEWLINE}{{{_ENTRY_NEWLINE}{(',' + _ENTRY_NEWLINE).join(fields)}{_LOOP_NEWLINE}}}")
    return _around_loops(ranking, pieces)


def _masked(values, steps: list[int], n: int) -> str:
    """A series of n floats, 0.0 outside `steps`, as the generic writer
    writes it, with float.__repr__ only at `steps`.  A series of another
    length, or a non-float at one of the steps, takes the generic writer."""
    if type(values) is list and len(values) == n > 0:
        text = ["0.0"] * n
        try:
            for k, r in zip(steps, map(float.__repr__, map(values.__getitem__, steps))):
                text[k] = r
        except TypeError:
            return _encode(values, _ENTRY_NEWLINE)
        body = _NODE_SEP.join(text)
        if "n" in body:  # "nan", "inf" or "-inf"
            for k in steps:
                _float(values[k])
        return f"[{_NODE_SEP[1:]}{body}{_ENTRY_NEWLINE}]"
    return _encode(values, _ENTRY_NEWLINE)


def _around_loops(doc: dict, loops: list[str]) -> list[str]:
    """indented_json_pieces(doc), where doc["loops"] is a non-empty list
    written as `loops`: a piece per item, each after its comma and line break."""
    items = list(doc.items())
    at = list(doc).index("loops")
    pieces = indented_json_pieces(dict(items[:at], loops=[]))[:-3]  # less "[]" and the closing "\n", "}"
    pieces += ("[", loops[0][1:], *loops[1:], "\n  ]")  # no comma before the first loop
    tail = indented_json_pieces(dict(items[at + 1 :]))
    tail[:1] = [","] if len(tail) > 1 else ["\n}"]  # in place of the tail's own "{", or of its "{}"
    return pieces + tail


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
