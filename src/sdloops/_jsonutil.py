"""The one JSON writer of the program.

`indented_json(obj)` returns exactly the text of
``json.dumps(obj, indent=2, allow_nan=False)`` for the types the program
emits: dicts with str keys, lists, str, int, float, bool and None.  With
an indent, `json.dumps` leaves its C encoder for a pure-Python one that
yields one small string per token; this writer instead joins each
container once, encodes strings with the C function
`encode_basestring_ascii`, and turns a list of only str or only float
items into text with one `str.join` over a `map`.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str

__all__ = ["indented_json"]

_INDENT = "  "


def indented_json(obj) -> str:
    """Text of ``json.dumps(obj, indent=2, allow_nan=False)``.  NaN and
    infinities raise ValueError, other types TypeError."""
    return _encode(obj, "\n")


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return float.__repr__(x)


# exact type -> writer; subclasses take the isinstance path at the end of _encode
_SCALARS = {
    str: _encode_str,
    float: _float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(obj, newline: str) -> str:
    """`obj` as JSON whose closing bracket follows `newline` (a line
    break and the indent of the line `obj` starts on)."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = newline + _INDENT
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = ["{"]
        for key, value in obj.items():  # encode_basestring_ascii raises TypeError on a non-str key
            parts += (sep, _encode_str(key), ": ", _encode(value, inner))
        parts[1] = inner
        parts += (newline, "}")
        return "".join(parts)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:  # all str: one join, no Python call per item
            return f"[{inner}{sep.join(map(_encode_str, obj))}{newline}]"
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
            return f"[{inner}{body}{newline}]"
        parts = ["["]
        for item in obj:
            parts += (sep, _encode(item, inner))
        parts[1] = inner
        parts += (newline, "]")
        return "".join(parts)
    for base in (str, float, int):
        if isinstance(obj, base):
            return _SCALARS[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
