"""Deterministic JSON rendering.

Key order follows dict insertion order, floats are printed with 17
significant digits (lossless for binary64), so equal inputs render to
byte-identical text.

A table, a list of exact dicts that share one tuple of exact str keys and
whose values are exact ints or finite exact floats with each column's type
set by the first row, renders through one row template (%d for int
columns, %.17g for float ones, a % in a key written %%) applied by a
single % to all its values: the text of the oracle's support and the
fluid points.  Every other list, such as one holding a bool, a numpy
scalar, a NaN or an infinity, rows with keys reordered or missing, a
column mixing int and float, or a nested value, renders element by
element, as does a float column whose sum overflows.  Both give the same
bytes.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np


# Spaces per nesting level; part of the byte-identical output.
INDENT = 2


def _float(x: float) -> str:
    if math.isfinite(x):
        return f"{x:.17g}"
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _dict(obj: dict, level: int) -> str:
    if not obj:
        return "{}"
    pad_in = " " * (INDENT * (level + 1))
    items = ",\n".join([
        f"{pad_in}{json.dumps(str(k))}: {_render(v, level + 1)}"
        for k, v in obj.items()])
    return "{\n" + items + "\n" + pad_in[INDENT:] + "}"


def _table(rows, pad: str) -> str | None:
    """The rows as _list renders them at indent pad, by one %-template;
    None if rows is not a table."""
    first = rows[0]
    if type(first) is not dict or not first or set(map(type, rows)) != {dict}:
        return None
    # every key an exact str (an equal str subclass renders by its str()),
    # in the first row's order
    keys = list(first)
    names = list(chain.from_iterable(rows))
    if names != keys * len(rows) or set(map(type, names)) != {str}:
        return None
    types = list(map(type, first.values()))
    vals = list(chain.from_iterable(map(dict.values, rows)))
    if not set(types) <= {int, float} or list(map(type, vals)) != types * len(rows):
        return None
    # a NaN or an infinity makes its column's sum non-finite (so may an
    # overflowing sum of finite floats, which then takes the general path)
    m = len(keys)
    if not all(math.isfinite(sum(vals[j::m])) for j, t in enumerate(types) if t is float):
        return None
    pad_v = pad + " " * INDENT
    row = pad + "{\n" + ",\n".join([
        f"{pad_v}{json.dumps(k).replace('%', '%%')}: {'%d' if t is int else '%.17g'}"
        for k, t in zip(keys, types)]) + "\n" + pad + "}"
    return ",\n".join([row] * len(rows)) % tuple(vals)


def _list(obj, level: int) -> str:
    if not obj:
        return "[]"
    pad_in = " " * (INDENT * (level + 1))
    items = _table(obj, pad_in)
    if items is None:
        items = ",\n".join([pad_in + _render(v, level + 1) for v in obj])
    return "[\n" + items + "\n" + pad_in[INDENT:] + "]"


def _render(obj, level: int) -> str:
    if isinstance(obj, dict):
        return _dict(obj, level)
    if isinstance(obj, (list, tuple)):
        return _list(obj, level)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj)!r} deterministically")


def dumps(obj) -> str:
    """Render obj to deterministic JSON text (with trailing newline)."""
    return _render(obj, 0) + "\n"
