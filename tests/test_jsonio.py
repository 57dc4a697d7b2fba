"""Exact bytes of jsonio.dumps on the branches no golden output reaches:
non-finite and signed-zero floats, numpy scalars, booleans, empty and
nested containers, non-string keys and non-ASCII text."""

import numpy as np
import pytest

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
