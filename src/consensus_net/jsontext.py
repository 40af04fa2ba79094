"""The one writer of indented JSON text.

``indented_json(doc)`` is ``json.dumps(doc, indent=2, sort_keys=True)``,
byte for byte, for a document of dicts with string keys, lists, tuples,
strings, ints, floats, bools and None; a numpy array in it is spelled as
its ``tolist()``.  Every JSON file the package writes goes through it:
``summary.json`` and ``certification.json``, the CLI's ``--json`` outputs
and saved scenarios.

``indent`` makes ``json`` use its pure-Python encoder, which visits every
value through a chain of generators.  Here a value is spelled by one
recursive function, and a list of numbers, the bulk of every artifact, by
one ``str.join`` of ``float.__repr__`` or ``int.__repr__``, which is how
``json`` spells each finite float and each int.  A float list that holds a
non-finite value, and every mixed list, is spelled value by value, with
``json``'s ``NaN``, ``Infinity`` and ``-Infinity``.  A float array, such
as a certificate's P, is spelled once per distinct bit pattern
(``_float_texts``).  On a 2-vCPU x86 VM the summary of the 600-agent
large-graph run took 6-8 ms here against 8-13 ms for the dump.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

#: json's spelling of the non-finite floats
_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def indented_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, without its
    pure-Python encoder; every dict key must be a string."""
    return _text(doc, "\n")


def _text(value, newline: str) -> str:
    """``value`` spelled as JSON whose lines start with ``newline``, a line
    break and the indentation of the line that holds ``value``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _NON_FINITE.get(value, "NaN")
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.ndim and value.size:
            return _nested(_float_texts(value), newline)
        return _text(value.tolist(), newline)
    if isinstance(value, (list, tuple)):
        return "[" + inner + _items(value, inner) + newline + "]" if value else "[]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is no string raises TypeError in the encoder
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _text(item, inner)
            for key, item in sorted(value.items())) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_texts(values: np.ndarray) -> np.ndarray:
    """``_text`` of each entry of the float array ``values``, in its shape,
    spelled once per distinct bit pattern (bits, not values, so that -0.0
    keeps its own spelling).  A symmetric P repeats about half of its
    entries, and ``float.__repr__`` costs about 1 us per value: on the same
    VM a 600-agent cycle's dense P took 230 ms against 365 ms entry by
    entry, and the 7,110 stored entries of a 600-agent tree's P (3,855
    distinct) 5.8 ms against 9.6 ms."""
    patterns, index = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
    floats = patterns.view(np.float64)
    spelled = np.array(list(map(float.__repr__, floats.tolist())), dtype=object)
    for k in np.flatnonzero(~np.isfinite(floats)).tolist():
        spelled[k] = _text(floats[k].item(), "")
    return spelled[index].reshape(values.shape)


def _nested(texts: np.ndarray, newline: str) -> str:
    """The non-empty array of spelled entries ``texts`` as nested lists."""
    inner = newline + "  "
    if texts.ndim == 1:
        return "[" + inner + ("," + inner).join(texts.tolist()) + newline + "]"
    return "[" + inner + ("," + inner).join(_nested(row, inner) for row in texts) + newline + "]"


def _items(values, inner: str) -> str:
    """The entries of the non-empty list ``values``, joined as ``json``
    joins them at the indentation ``inner``."""
    separator = "," + inner
    kinds = set(map(type, values))
    if kinds == {float}:
        text = separator.join(map(float.__repr__, values))
        # only inf and nan spell an "n"
        if "n" not in text:
            return text
    elif kinds == {int}:
        return separator.join(map(int.__repr__, values))
    return separator.join(_text(value, inner) for value in values)
