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
catalog, the program's largest document: each loop record is one piece
made by one f-string, its indents written out and its cycle encoded with
one `str.join`.  A record the template does not fit goes through the
generic writer as `loop_dict(record)`; only the document's opening and
closing pieces come from `indented_json_pieces`.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str

__all__ = ["catalog_json_pieces", "indented_json_pieces"]

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
    """The text of ``indented_json_pieces({**head, "loops": [loop_dict(r)
    for r in loops]})`` in pieces, one per loop.  A record whose cycle is
    a non-empty sequence of str, whose discovery_score is a float and whose
    found_at is an int or a str is written from one template; any other
    record is written as `loop_dict(record)` by the generic writer."""
    pieces = indented_json_pieces({**head, "loops": []})
    if not loops:
        return pieces
    del pieces[-3:]  # the empty list "[]" and the document's closing "\n", "}"
    pieces.append("[")
    first = len(pieces)
    for rec in loops:
        cycle, score, found_at = rec.cycle, rec.discovery_score, rec.found_at
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
            pieces.append("," + _LOOP_NEWLINE + _encode(loop_dict(rec), _LOOP_NEWLINE))
    pieces[first] = pieces[first][1:]  # no comma before the first loop
    pieces += ("\n  ]", "\n}")
    return pieces


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
