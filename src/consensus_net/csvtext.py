"""The one CSV number formatter: ``%.17g`` text of a block of floats.

``rows_text(block)`` is, byte for byte,
``(",".join(["%.17g"] * ncol) + "\\n") * nrows % tuple(block.ravel().tolist())``
for a 2-D float64 block of ``nrows`` rows and ``ncol`` columns.  It is
computed with numpy integer arithmetic over a few thousand values at a time;
Python's ``%`` formats only the values that this arithmetic does not prove.

A finite, normal ``x = f * 2**e2`` (``f`` of 53 bits) with decimal exponent
``E = floor(log10|x|)`` has the 17 significant digits ``q``, the integer
nearest ``|x| * 10**p`` (ties to even), where ``p = 16 - E``.  As in Adams,
"Ryu revisited: printf floating point conversion" (OOPSLA 2019), ``_powers``
tabulates, for every ``p`` a normal double needs, ``M_p = floor(10**p /
2**k_p)`` in ``[2**63, 2**64)``.  ``M_p * 2**k_p`` is ``10**p`` exactly for
``0 <= p <= 27``, since ``5**27 < 2**63``: every ``|x|`` from ``1e-11`` to
``1e16`` is exact.  The 117-bit product ``f * M_p``, formed from 32-bit
limbs, shifted right by ``s = -(e2 + k_p)`` gives the integer part ``q``
and the remainder ``frac``, in units of ``2**-s``:

- ``q`` must lie in ``[10**16, 10**17)`` before rounding, else
  ``np.log10`` was one off and the value falls back.
- Outside the exact range ``M_p`` is short of ``10**p / 2**k_p`` by less
  than one, so the true remainder lies in ``[frac, frac + f)``.  A value
  whose band reaches the half point falls back.  A band that crosses the
  next integer does not: both sides of it round to ``q + 1``.
- Ties round to the even ``q``; a carry to ``10**17`` becomes ``10**16``
  with ``E + 1``.

Each value is laid out in one static template of ``_WIDTH`` bytes, and a
keep-mask picked by (sign, exponent, number of significant digits) selects
its text by ``%g``'s rule: fixed notation for ``-4 <= E < 17``, otherwise
scientific with at least two exponent digits, trailing zeros and a bare
point dropped.  The template holds the 16 digits after the first twice,
before and after the point, so that each value's text is a few contiguous
runs of bytes, which numpy's boolean indexing copies run by run.  Zero is
``q = 0`` in fixed notation, its sign and one digit.  Subnormals, inf, nan
and every unproven value are ``"%.17g" % x``, written into their own
template row.  Nothing here calls BLAS: ``runner``'s forked child runs it.
"""

from __future__ import annotations

import numpy as np

#: the text of one value: 17 significant digits
FORMAT = b"%.17g"

#: values formatted at once.  On a 2-vCPU x86 VM a 16k-value block held
#: 1.2 MiB of temporaries in pieces of 4k values, 3.6 MiB whole (the ``%``
#: writer: 1.1 MiB), and both ran at 150-280 ns a value
_PIECE_VALUES = 1 << 12

#: the template of one value, by byte:
#:   0       the sign, ``-``
#:   1-5     ``0.000``, the lead of fixed notation for ``-4 <= E <= -1``
#:   7       the first digit
#:   8-23    the other 16 digits: the integer part of fixed notation
#:   31      the point
#:   32-47   the other 16 digits again: the fraction
#:   48-52   ``e±ddd``
#:   53      the separator, ``,`` or ``\\n``
_WIDTH = 56
_FIRST, _POINT, _FRACTION, _EXPONENT, _SEPARATOR = 7, 31, 32, 48, 53
_LEAD = np.uint64(int.from_bytes(b"-0.000\x000", "little"))
_POINT_WORD = np.uint64(ord(".") << 56)

#: the decimal exponents the tables cover: every normal double's, with room
#: for ``np.log10`` to be one off
_E_LO, _E_HI = -309, 309

#: the keep-mask table's exponent codes: 0-20 fixed notation for E = -4..16,
#: then scientific with two and with three exponent digits
_FIXED_LO, _FIXED_HI = -4, 16
_SCI2, _SCI3 = 21, 22
_KEYS = (_SCI3 + 1) * 17  # per sign: exponent code * 17 + significant digits - 1

_TEN16, _TEN17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
_TEN8, _TEN4 = np.uint64(10 ** 8), np.uint32(10 ** 4)
_LOW32, _32 = np.uint64(0xFFFF_FFFF), np.uint64(32)
_ONE = np.uint64(1)


def _powers() -> tuple:
    """``(M_p >> 32, M_p & 0xFFFFFFFF, k_p, exact)`` indexed by ``_E_HI - E``
    for ``p = 16 - E``: ``M_p * 2**k_p`` is ``10**p`` truncated to 64 bits,
    exact where ``exact``."""
    ms, ks = [], []
    ten = 10 ** (_E_HI - 16)
    for _ in range(16 - _E_HI, 0):  # 10**p = 1 / ten
        k = -(63 + ten.bit_length())
        ms.append((1 << -k) // ten)
        ks.append(k)
        ten //= 10
    for _ in range(0, 16 - _E_LO + 1):  # 10**p = ten
        k = ten.bit_length() - 64
        ms.append(ten >> k if k >= 0 else ten << -k)
        ks.append(k)
        ten *= 10
    m = np.array(ms, dtype=np.uint64)
    k = np.array(ks, dtype=np.int64)
    p = np.arange(16 - _E_HI, 16 - _E_LO + 1)
    return m >> _32, m & _LOW32, k, (0 <= p) & (k <= p)


_M_HIGH, _M_LOW, _K, _EXACT = _powers()


def _groups() -> tuple:
    """The ASCII digits of 0-9999, four to a row, and by group k (0-3) of
    the 16 digits after the first and its value: 0 when the group is 0, else
    the number of significant digits up to its last nonzero one."""
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    nonzero = np.arange(10) != 0
    last = 0
    for k in range(4):
        shape = [10 if j == k else 1 for j in range(4)]
        digits[..., k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(shape)
        last = np.maximum(last, (k + 1) * nonzero.reshape(shape))
    last = last.ravel()
    significant = np.where(last > 0, 1 + 4 * np.arange(4)[:, None] + last, 0)
    return digits.reshape(-1, 4), significant.astype(np.uint8)


_DIGITS4, _SIGNIFICANT = _groups()

#: the four ASCII digits of 0-9999, each as the little-endian uint32 of its bytes
_GROUP = _DIGITS4.view("<u4").ravel()


def _exponents() -> tuple:
    """By ``E - _E_LO``: the template's last word (``e±ddd`` and a zero
    separator, as a little-endian uint64), and the keep-mask table's
    exponent code times 17."""
    e = np.arange(_E_LO, _E_HI + 1)
    tail = np.zeros((e.size, 8), dtype=np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2:5] = _DIGITS4[np.abs(e), 1:]
    code = np.where((_FIXED_LO <= e) & (e <= _FIXED_HI), e - _FIXED_LO,
                    np.where(np.abs(e) < 100, _SCI2, _SCI3))
    return tail.view("<u8").ravel(), code * 17


_TAIL, _CODE17 = _exponents()


def _keep_table() -> np.ndarray:
    """The keep-mask of each key ``sign * _KEYS + code * 17 + significant -
    1``, a row of ``_WIDTH`` bools."""
    code, nd = (a.reshape(-1, 1) for a in np.divmod(np.arange(_KEYS), 17))
    nd = nd + 1
    byte = np.arange(_WIDTH)
    fixed = code < _SCI2
    e = np.where(fixed, code + _FIXED_LO, 0)  # scientific: the integer part is d0
    small = fixed & (e < 0)
    point = (nd - 1 > e) & ~small
    integer, fraction, exponent = byte - _FIRST, byte - _FRACTION + 1, byte - _EXPONENT
    positive = ((1 <= byte) & (byte <= 1 - e) & small
                | (0 <= integer) & (integer <= np.where(small, nd - 1, e))
                | (byte == _POINT) & point
                | (e < fraction) & (fraction < nd) & point
                | (0 <= exponent) & (exponent <= 4) & ~fixed & ((exponent != 2) | (code == _SCI3))
                | (byte == _SEPARATOR))
    negative = positive.copy()
    negative[:, 0] = True
    return np.concatenate([positive, negative])


_KEEP = _keep_table()

#: a fallback text of n bytes is written from byte 0: row n keeps it and the separator
_FALLBACK_KEEP = ((np.arange(_WIDTH) < np.arange(_WIDTH)[:, None])
                  | (np.arange(_WIDTH) == _SEPARATOR))


def rows_text(block) -> bytes:
    """``%.17g`` text of a 2-D float64 ``block``: its rows, one per line,
    values separated by ``,``, each line ended by ``\\n``."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    n_rows, n_columns = block.shape
    if not n_columns:
        return b"\n" * n_rows
    pieces = -(-block.size // _PIECE_VALUES)  # rounded up
    step = max(1, -(-n_rows // max(1, pieces)))
    return b"".join(_piece_text(block[start:start + step]) for start in range(0, n_rows, step))


def _piece_text(block: np.ndarray) -> bytes:
    text, keep = _template(block, *_decimal(block.ravel()))
    return text[keep].tobytes()


def _decimal(x: np.ndarray) -> tuple:
    """``(q, E, unproven)`` for the values ``x``: each one's 17 significant
    digits as the integer ``q`` in ``[10**16, 10**17)``, its decimal
    exponent, and whether the arithmetic leaves its digits unproven.  Zero
    and unproven values have ``q = E = 0``."""
    bits = x.view(np.uint64)
    biased = (x.view(np.int64) >> 52) & 0x7FF
    normal = (biased - 1).view(np.uint64) < 0x7FE
    magnitude = np.abs(x)
    magnitude[~normal] = 1.0
    e = np.floor(np.log10(magnitude)).astype(np.int64)
    row = _E_HI - e
    f = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    s = 1075 - biased - _K[row]
    ok = normal & (1 <= s) & (s <= 63)
    s = np.clip(s, 1, 63).view(np.uint64)
    # f * M_p = high * 2**64 + low, from f's and M_p's 32-bit halves; f < 2**53
    fl, fh = f & _LOW32, f >> _32
    m_high, m_low = _M_HIGH[row], _M_LOW[row]
    ll, lh = fl * m_low, fl * m_high
    middle = (ll >> _32) + (lh & _LOW32) + fh * m_low
    low = (middle << _32) | (ll & _LOW32)
    high = fh * m_high + (lh >> _32) + (middle >> _32)
    q = (high << (np.uint64(64) - s)) | (low >> s)
    frac = low & ((_ONE << s) - _ONE)
    half = _ONE << (s - _ONE)
    ok &= ((high >> s) == 0) & (_TEN16 <= q) & (q < _TEN17)
    ok &= _EXACT[row] | (frac > half) | (frac + f < half)
    q += (frac > half) | ((frac == half) & (q & _ONE).astype(bool))
    carry = q == _TEN17
    q[carry] = _TEN16
    e += carry
    q[~ok] = 0
    e[~ok] = 0
    return q, e, ~ok & (bits << _ONE != 0)


def _template(block: np.ndarray, q: np.ndarray, e: np.ndarray, unproven: np.ndarray) -> tuple:
    """The template of every value of ``block`` from its ``_decimal``, as
    ``_WIDTH`` bytes per value, and the keep-mask of each."""
    n_rows, n_columns = block.shape
    # q = d0 * 10**16 + a * 10**8 + b; a and b are two groups of four digits each
    upper = q // _TEN8
    b = (q - upper * _TEN8).astype(np.uint32)
    d0 = upper // _TEN8
    a = (upper - d0 * _TEN8).astype(np.uint32)
    a_high, b_high = a // _TEN4, b // _TEN4
    groups = [g.astype(np.intp) for g in (a_high, a - a_high * _TEN4, b_high, b - b_high * _TEN4)]
    significant = np.maximum(_SIGNIFICANT[0][groups[0]], np.uint8(1))
    for k in (1, 2, 3):
        np.maximum(significant, _SIGNIFICANT[k][groups[k]], out=significant)

    words = np.empty((q.size, _WIDTH // 8), dtype="<u8")  # the template's byte order
    words[:, 0] = _LEAD | (d0 << np.uint64(56))
    quads = words.view("<u4")
    for k, g in enumerate(groups):
        quads[:, _FIRST // 4 + 1 + k] = quads[:, _FRACTION // 4 + k] = _GROUP[g]
    words[:, _POINT // 8] = _POINT_WORD
    separators = np.full(n_columns, ord(",") << 40, dtype=np.uint64)
    separators[-1] = ord("\n") << 40
    exponent = e - _E_LO
    words.reshape(n_rows, n_columns, -1)[:, :, _EXPONENT // 8] = (
        _TAIL[exponent].reshape(n_rows, n_columns) | separators)
    # take copies whole rows: 13 us a 4,096-value piece on a 2-vCPU x86 VM,
    # against 50 us by fancy indexing
    keep = _KEEP.take((block.ravel().view(np.uint64) >> np.uint64(63)).astype(np.intp) * _KEYS
                      + _CODE17[exponent] + significant - 1, axis=0)
    text = words.view(np.uint8)
    for i in np.flatnonzero(unproven):
        value = FORMAT % block.flat[i]
        text[i, :len(value)] = np.frombuffer(value, dtype=np.uint8)
        keep[i] = _FALLBACK_KEEP[len(value)]
    return text, keep
