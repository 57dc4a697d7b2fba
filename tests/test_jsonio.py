"""Exact bytes of jsonio.dumps on the branches no golden output reaches:
non-finite and signed-zero floats, numpy scalars, booleans, empty and
nested containers, non-string keys and non-ASCII text."""

import numpy as np
import pytest

from conftest import rng_for
from oracles import dumps_reference
from rumour import jsonio


def test_floats():
    assert jsonio.dumps([float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 2.0,
                         1e300, 5e-324]) == (
        "[\n  NaN,\n  Infinity,\n  -Infinity,\n  -0,\n  0.10000000000000001,\n  2,\n"
        "  1.0000000000000001e+300,\n  4.9406564584124654e-324\n]\n")


def test_booleans_ints_and_numpy_scalars():
    assert jsonio.dumps([True, 1, False, 0, -3, np.bool_(True), np.bool_(False),
                         np.int64(-7), np.int32(5), np.float64(0.1), np.float32(0.1),
                         np.float64("-inf"), None]) == (
        "[\n  true,\n  1,\n  false,\n  0,\n  -3,\n  true,\n  false,\n  -7,\n  5,\n"
        "  0.10000000000000001,\n  0.10000000149011612,\n  -Infinity,\n  null\n]\n")


def test_containers_keys_and_text():
    obj = {"a": {}, "b": [], "c": (1, (2.5, "x")), 1: "one", "é": "ü",
           "n": {"m": {"k": [1, {}]}}, "s": np.str_("t\n\"")}
    assert jsonio.dumps(obj) == (
        '{\n  "a": {},\n  "b": [],\n  "c": [\n    1,\n    [\n      2.5,\n      "x"\n    ]\n'
        '  ],\n  "1": "one",\n  "\\u00e9": "\\u00fc",\n  "n": {\n    "m": {\n      "k": [\n'
        '        1,\n        {}\n      ]\n    }\n  },\n  "s": "t\\n\\""\n}\n')


def test_equal_keys_of_different_types_render_apart():
    # 1 == True == 1.0 as dict keys, but each prints its own str()
    assert jsonio.dumps([{1: 0}, {True: 0}, {1.0: 0}, {None: 0}]) == (
        '[\n  {\n    "1": 0\n  },\n  {\n    "True": 0\n  },\n  {\n    "1.0": 0\n  },\n'
        '  {\n    "None": 0\n  }\n]\n')


@pytest.mark.parametrize("bad", [set(), {1}, b"x", [b"x"], {"k": {2}}])
def test_unrenderable_types_raise(bad):
    with pytest.raises(TypeError, match="cannot render"):
        jsonio.dumps(bad)


# Tables: lists of dicts with one tuple of str keys and int or finite float
# values render through one row template; everything else element by
# element.  Both must give the reference renderer's bytes.
KEYS = ("x", "u", "p", "a%d", "%", "100%%s", 'say "hi"', "é", "ü\n", "")
INTS = (0, -1, 7, 2**63, 2**64 + 5, -(2**64) - 1, 10**30)
FLOATS = (-0.0, 0.0, 5e-324, 1e300, -2.5e-308, 0.1, 1.0)


def draw_value(rng, kind):
    if kind is int:
        k = rng.integers(len(INTS) + 1)
        return INTS[k] if k < len(INTS) else int(rng.integers(-10**9, 10**9))
    k = rng.integers(len(FLOATS) + 2)
    if k < len(FLOATS):
        return FLOATS[k]
    return float(rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)))


def clean_table(rng, min_rows=1):
    m = int(rng.integers(1, 5))
    keys = [KEYS[i] for i in rng.permutation(len(KEYS))[:m]]
    kinds = [(int, float)[i] for i in rng.integers(2, size=m)]
    return [{k: draw_value(rng, t) for k, t in zip(keys, kinds)}
            for _ in range(int(rng.integers(min_rows, 7)))]


def _set(rng, rows, value):
    row = rows[rng.integers(len(rows))]
    row[list(row)[rng.integers(len(row))]] = value


def _retype(rng, rows):
    # a row other than the first, so the column mixes int and float
    i = int(rng.integers(1, len(rows)))
    k = list(rows[i])[rng.integers(len(rows[i]))]
    rows[i][k] = float(rows[i][k]) if type(rows[i][k]) is int else 3


def _reorder(rng, rows):
    i = int(rng.integers(len(rows)))
    rows[i] = dict(reversed(rows[i].items())) if len(rows[i]) > 1 else {**rows[i], "z": 1}


SPOILS = {
    "bool": lambda rng, rows: _set(rng, rows, bool(rng.integers(2))),
    "numpy float": lambda rng, rows: _set(rng, rows, np.float64(0.1)),
    "numpy int": lambda rng, rows: _set(rng, rows, np.int64(-3)),
    "numpy bool": lambda rng, rows: _set(rng, rows, np.bool_(True)),
    "nan": lambda rng, rows: _set(rng, rows, float("nan")),
    "inf": lambda rng, rows: _set(rng, rows, float("inf")),
    "-inf": lambda rng, rows: _set(rng, rows, float("-inf")),
    "nested list": lambda rng, rows: _set(rng, rows, [1, 2.5, {}]),
    "nested table": lambda rng, rows: _set(rng, rows, clean_table(rng)),
    "empty dict value": lambda rng, rows: _set(rng, rows, {}),
    "str value": lambda rng, rows: _set(rng, rows, "%d"),
    "none": lambda rng, rows: _set(rng, rows, None),
    "mixed column": _retype,
    "reordered keys": _reorder,
    "missing key": lambda rng, rows: rows[-1].popitem(),
    "extra key": lambda rng, rows: rows[0].update({"%extra": 1}),
    "non-str key": lambda rng, rows: rows[-1].update({1: 2}),
    "numpy str key": lambda rng, rows: rows.append(
        {np.str_(k) if i == 0 else k: v for i, (k, v) in enumerate(rows[0].items())}),
    "empty row": lambda rng, rows: rows.insert(int(rng.integers(len(rows) + 1)), {}),
    "list row": lambda rng, rows: rows.append([1.5]),
    "tuple of rows": lambda rng, rows: rows.append(tuple(rows)),
}


def spoiled_table(rng):
    rows = clean_table(rng, min_rows=2)
    name = list(SPOILS)[rng.integers(len(SPOILS))]
    SPOILS[name](rng, rows)
    return name, rows


def random_obj(rng, depth):
    k = int(rng.integers(8 if depth else 3))
    if k == 0:
        return draw_value(rng, (int, float)[rng.integers(2)])
    if k == 1:
        return (True, None, "%s é", np.float32(0.1), float("nan"), -0.0)[rng.integers(6)]
    if k == 2:
        return []
    if k == 3:
        return {KEYS[i]: random_obj(rng, depth - 1) for i in rng.permutation(len(KEYS))[:3]}
    if k == 4:
        return tuple(random_obj(rng, depth - 1) for _ in range(rng.integers(4)))
    if k == 5:
        return clean_table(rng)
    if k == 6:
        return spoiled_table(rng)[1]
    return [random_obj(rng, depth - 1) for _ in range(rng.integers(4))]


def test_random_objects_match_reference_renderer():
    rng = rng_for("jsonio-random-objects")
    for _ in range(600):
        obj = random_obj(rng, 3)
        assert jsonio.dumps(obj) == dumps_reference(obj), obj


def test_tables_take_the_template_and_the_rest_do_not():
    rng = rng_for("jsonio-tables")
    seen = set()
    for _ in range(600):
        rows = clean_table(rng)
        assert jsonio._table(rows, "  ") is not None, rows
        assert jsonio.dumps({"t": rows}) == dumps_reference({"t": rows}), rows
        name, rows = spoiled_table(rng)
        seen.add(name)
        assert jsonio._table(rows, "  ") is None, (name, rows)
        assert jsonio.dumps([rows]) == dumps_reference([rows]), (name, rows)
    assert seen == set(SPOILS)


def test_finite_column_whose_sum_overflows():
    rows = [{"a": 1e308, "n": 1}, {"a": 1e308, "n": 2**70}]
    assert jsonio.dumps(rows) == dumps_reference(rows) == (
        '[\n  {\n    "a": 1e+308,\n    "n": 1\n  },\n'
        '  {\n    "a": 1e+308,\n    "n": 1180591620717411303424\n  }\n]\n')


def test_percent_in_keys_is_escaped():
    rows = [{"a%d": 1, "%": 2.5, "%%": -0.0}] * 2
    text = '  {\n    "a%d": 1,\n    "%": 2.5,\n    "%%": -0\n  }'
    assert jsonio.dumps(rows) == "[\n" + text + ",\n" + text + "\n]\n"
