"""Deterministic JSON rendering.

Key order follows dict insertion order, floats are printed with 17
significant digits (lossless for binary64), so equal inputs render to
byte-identical text.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np


# Spaces per nesting level; part of the byte-identical output.
INDENT = 2


@functools.lru_cache(maxsize=1024)
def _key(k: str) -> str:
    """JSON text of a str key; keys repeat across the rows of a table."""
    return json.dumps(k)


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
        f"{pad_in}{_key(k) if type(k) is str else json.dumps(str(k))}: {_render(v, level + 1)}"
        for k, v in obj.items()])
    return "{\n" + items + "\n" + pad_in[INDENT:] + "}"


def _list(obj, level: int) -> str:
    if not obj:
        return "[]"
    pad_in = " " * (INDENT * (level + 1))
    items = ",\n".join([pad_in + _render(v, level + 1) for v in obj])
    return "[\n" + items + "\n" + pad_in[INDENT:] + "]"


def _render(obj, level: int) -> str:
    # exact built-in types first; subclasses (bool among them), numpy
    # scalars, str and None take the isinstance chain
    t = type(obj)
    if t is float:
        return _float(obj)
    if t is int:
        return str(obj)
    if t is dict:
        return _dict(obj, level)
    if t is list or t is tuple:
        return _list(obj, level)
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
