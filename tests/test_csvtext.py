"""``csvtext.rows_text`` against Python's ``%``, value by value."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consensus_net.analysis import BLOCK_VALUES
from consensus_net.csvtext import rows_text


def _assert_rows_text(block):
    """``rows_text(block)`` is the ``%`` text of the whole block, and each of
    its values is ``"%.17g" % x``."""
    block = np.asarray(block, dtype=np.float64)
    rows, columns = block.shape
    got = rows_text(block)
    values = block.ravel().tolist()
    texts = [field for line in got.decode().split("\n")[:rows] for field in line.split(",")]
    wrong = [(x.hex(), text, "%.17g" % x) for x, text in zip(values, texts) if text != "%.17g" % x]
    assert wrong[:5] == [] and len(texts) == len(values)
    assert got == ((",".join(["%.17g"] * columns) + "\n") * rows % tuple(values)).encode()


def _blocks(values: np.ndarray, columns: int) -> np.ndarray:
    """``values`` as rows of ``columns``, the last row padded with 1.0."""
    pad = -values.size % columns
    return np.concatenate([values, np.ones(pad)]).reshape(-1, columns)


def _ulps_around(x: np.ndarray, ulps: int) -> np.ndarray:
    """``x`` and its ``ulps`` neighbours on each side, finite only."""
    out, down, up = [x], x, x
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    out = np.concatenate(out)
    return out[np.isfinite(out)]


@st.composite
def _float_blocks(draw):
    """A block of 1-40 columns and 1-60 rows: any bit patterns, or any floats
    with subnormals, both zeros, both infinities and nan."""
    columns = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 60))
    n = rows * columns
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=n, max_size=n))
        values = np.array(bits, dtype=np.uint64).view(np.float64)
    else:
        values = np.array(draw(st.lists(st.floats(allow_subnormal=True), min_size=n, max_size=n)))
    return values.reshape(rows, columns)


@given(block=_float_blocks())
@settings(max_examples=200, deadline=None)
@example(block=np.array([[0.0]]))
@example(block=np.array([[-0.0, 5e-324, -2.2250738585072014e-308, np.nan, np.inf, -np.inf]]))
@example(block=np.array([[1e-304], [9.9999999999999997e-305], [1.7976931348623157e308]]))
def test_rows_text_matches_percent(block):
    _assert_rows_text(block)


def test_random_bit_patterns():
    """256k uniformly random bit patterns, most of them outside the powers
    of ten that are exact in 64 bits."""
    rng = np.random.default_rng(2025)
    bits = rng.integers(0, 2 ** 64, size=1 << 18, dtype=np.uint64)
    _assert_rows_text(bits.view(np.float64).reshape(-1, 16))


def test_powers_of_ten_and_their_neighbours():
    """10**k and 3 ulps on each side, for every k from -307 to 308, and
    their negatives: where ``log10`` may be one off."""
    x = _ulps_around(10.0 ** np.arange(-307, 309), 3)
    _assert_rows_text(_blocks(np.concatenate([x, -x]), 7))


def _exact_ties(rng, n: int) -> np.ndarray:
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: ties of 17-digit rounding.  A double of 53 bits has them only
    below 2**53; drawn as integers plus fractions of 2**-1 to 2**-8."""
    found = []
    for shift in range(1, 9):
        low = 10 ** 15 / 2 ** (shift - 1)
        m = rng.integers(int(low * 2 ** shift), 2 ** 53, size=n, dtype=np.int64)
        x = m.astype(np.float64) / 2 ** shift
        digits = [Decimal(v).normalize().as_tuple().digits for v in x.tolist()]
        found += [v for v, d in zip(x.tolist(), digits) if len(d) == 18 and d[-1] == 5]
    return np.array(found)


def test_exact_ties_round_half_to_even():
    rng = np.random.default_rng(7)
    ties = _exact_ties(rng, 4000)
    assert ties.size > 1000
    # both neighbours of each tie, which are not ties, and the integers on
    # the grid of doubles from 1e16 to 1e19, where 17 digits round whole ones
    integers = rng.integers(10 ** 16, 10 ** 19, size=4000, dtype=np.uint64).astype(np.float64)
    _assert_rows_text(_blocks(np.concatenate([ties, -ties, _ulps_around(ties, 1), integers]), 16))


@pytest.mark.parametrize("exponent", range(-4, 17))
def test_every_fixed_exponent(exponent):
    """Fixed notation, from 1-17 significant digits, at every exponent it
    covers: values rounded to a few digits drop their trailing zeros."""
    rng = np.random.default_rng(exponent + 100)
    mantissa = rng.uniform(1.0, 10.0, size=17 * 40)
    digits = np.repeat(np.arange(17), 40)
    x = np.array([float(f"{m:.{d}e}") for m, d in zip(mantissa, digits)]) * 10.0 ** exponent
    x = x[np.floor(np.log10(x)) == exponent]
    _assert_rows_text(_blocks(np.concatenate([x, -x, [10.0 ** exponent]]), 9))


@pytest.mark.parametrize("exponents", [(-99, -5), (17, 99), (-308, -100), (100, 308)],
                         ids=["2-digit-negative", "2-digit-positive", "3-digit-negative",
                              "3-digit-positive"])
def test_scientific_exponents(exponents):
    """Scientific notation with two and with three exponent digits, from 1
    to 17 significant digits."""
    rng = np.random.default_rng(exponents[0] + 1000)
    e = rng.integers(exponents[0], exponents[1] + 1, size=2000)
    digits = rng.integers(0, 17, size=2000)
    x = np.array([float(f"{m:.{d}f}e{k}") for m, d, k in
                  zip(rng.uniform(1.0, 10.0, size=2000), digits, e)])
    _assert_rows_text(_blocks(np.concatenate([x, -x]), 5))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, 1), (37, 13), (1, BLOCK_VALUES + 5),
                                   (3, BLOCK_VALUES // 2 + 1)],
                         ids=["1x1", "one-row", "one-column", "ragged", "row-wider-than-a-block",
                              "two-rows-wider-than-half-a-block"])
def test_block_shapes(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    _assert_rows_text(rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape))


def test_empty_blocks():
    assert rows_text(np.empty((0, 5))) == b""
    assert rows_text(np.empty((3, 0))) == b"\n" * 3
