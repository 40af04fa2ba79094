"""The indented-JSON writer against ``json.dumps`` itself."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consensus_net.jsontext import indented_json

#: floats at the edges of what ``repr`` and ``json`` spell differently or
#: not at all: both zeros, the smallest subnormal, the largest exponents,
#: and the non-finite values that ``json`` spells NaN and Infinity
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1,
                                math.nan, math.inf, -math.inf])

_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
            | st.floats(allow_nan=True, allow_infinity=True) | _EDGE_FLOATS
            | st.text(max_size=8))

#: documents of JSON types, containers nested and empty, lists of one kind
#: (which the writer joins at once) as well as mixed ones
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_EDGE_FLOATS | st.floats(), max_size=6)
    | st.lists(st.integers(-10, 10 ** 6), max_size=6),
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=30)


@given(_DOCUMENTS)
@settings(max_examples=200, deadline=None)
@example([])
@example({})
@example({"a": [[], {}], "b": {"c": []}})
@example([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 1, True, False, None])
@example({"é": "☃ \U0001F600 \"\\\n\t\x00"})
@example([1.0, 2.5, math.nan])
@example([1, True])
@example([1, 2.0])
def test_indented_json_is_the_indented_dump(doc):
    """Byte for byte ``json.dumps(doc, indent=2, sort_keys=True)``."""
    assert indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_indented_json_spells_numpy_floats_as_json_does():
    """``np.float64`` is a float, which ``json`` spells by
    ``float.__repr__``; ``np.int64`` is no int, which it refuses."""
    doc = {"x": [np.float64(0.1), np.float64(-0.0)], "y": np.float64(1e308)}
    assert indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        json.dumps([np.int64(1)], indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        indented_json([np.int64(1)])


@given(st.lists(_EDGE_FLOATS | st.floats(), max_size=12), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_indented_json_spells_arrays_as_their_lists(values, rows):
    """A float array, spelled once per bit pattern, is spelled as its
    ``tolist()``: 1-D, 2-D (rows empty or not) and 0-D, as is an int
    array."""
    flat = np.array(values, dtype=np.float64)
    arrays = [flat, flat[:len(values) // rows * rows].reshape(rows, -1), np.arange(len(values))]
    if values:
        arrays.append(flat[:1].reshape(()))
    for array in arrays:
        doc = {"P": array, "n": [array]}
        assert indented_json(doc) == json.dumps({"P": array.tolist(), "n": [array.tolist()]},
                                                indent=2, sort_keys=True)
