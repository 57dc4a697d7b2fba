"""Deterministic JSON rendering.

Key order follows dict insertion order, floats are printed with 17
significant digits (lossless for binary64), so equal inputs render to
byte-identical text.
"""

from __future__ import annotations

import json
import math

import numpy as np


# Spaces per nesting level; part of the byte-identical output.
INDENT = 2


def _render(obj, level: int) -> str:
    pad = " " * (INDENT * level)
    pad_in = " " * (INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad_in}{json.dumps(str(k))}: {_render(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad_in}{_render(v, level + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return f"{x:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj)!r} deterministically")


def dumps(obj) -> str:
    """Render obj to deterministic JSON text (with trailing newline)."""
    return _render(obj, 0) + "\n"
