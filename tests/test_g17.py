import math

import numpy as np
import pytest

import qspectra.g17 as g17
from qspectra.g17 import g17_cells, g17_lines
from qspectra.qalgebra import _BLOCK

# g17_cells / g17_lines: '%.17g' text, byte for byte, without a Python call
# per value


def _g17_reference(x, end: str = "\n") -> str:
    return "".join("%.17g" % v + end for v in np.asarray(x, dtype=float).tolist())


def _assert_g17(x, end: str = "\n") -> None:
    """The text of g17_cells(x, end), and g17_lines(x) for end '\\n', is
    _g17_reference(x, end); a failure names the first value whose cell
    differs (a diff of the whole text would take minutes)."""
    texts = [g17_cells(x, end.encode()).tobytes().translate(None, b"\0").decode("ascii")]
    if end == "\n":
        texts.append(g17_lines(x))
    for text in texts:
        if text != _g17_reference(x, end):
            for v, cell in zip(np.asarray(x, dtype=float).tolist(), text.split(end)):
                assert cell == "%.17g" % v, v.hex()
            pytest.fail("the texts differ in their number of cells")


def _powers_of_ten() -> np.ndarray:
    """10^k and both float neighbours for k in [-8, 18], both signs: across
    the ends of the array route, X = -7 | -6 and X = 16 | 17."""
    p = np.array([float(f"1e{k}") for k in range(-8, 19)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)])
    return np.concatenate([x, -x])


def test_g17_random_bit_patterns():
    # uniform over the 64-bit patterns: nan, inf, subnormals and every
    # exponent; most of them take the per-value route, about 1 in 27 the array one
    bits = np.random.default_rng(2024).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]
    _assert_g17(np.concatenate([bits.view(float), specials]))


def test_g17_array_route_exponents():
    # the array route covers exponents -6 .. 16: every one of them, both
    # signs, and every count of significant digits 1 .. 17
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-6.5, 17.5, 300_000)
    scale = 10.0 ** np.floor(np.log10(mags))
    digits = np.arange(mags.size) % 17
    short = np.concatenate([np.round(mags[digits == d] / scale[digits == d], d) * scale[digits == d] for d in range(17)])
    x = np.concatenate([mags, short])
    x[::2] *= -1.0
    _assert_g17(x)


def test_g17_powers_of_ten_and_their_neighbours():
    _assert_g17(_powers_of_ten())
    # 1e-06 is 9.99999999999999955e-07: its 17 digits need X = -7
    assert g17_lines([1e-06, 1e17, 99999999999999984.0]) == "9.9999999999999995e-07\n1e+17\n99999999999999984\n"


def test_g17_exact_ties_round_half_to_even():
    # x 10^16 is an odd multiple of 1/2 for x = j / 2^17, j odd, x in [1, 10)
    j = np.arange(2**17 + 1, 10 * 2**17, 2, dtype=float)
    _assert_g17(j / 2**17)
    assert g17_lines([1.0000076293945312]) == "1.0000076293945312\n"


G17_BLOCK = g17._G17_BLOCK


@pytest.mark.parametrize("size", (0, 1, G17_BLOCK - 1, G17_BLOCK, 2 * G17_BLOCK + 3, _BLOCK + 1))
def test_g17_blocks(size):
    x = np.random.default_rng(size).lognormal(0.0, 3.0, size)
    x[::3] *= -1.0
    _assert_g17(x)
    _assert_g17(x, ",")
    cells = g17_cells(x, b";\n")
    assert cells.shape == (size, g17._G17_WIDTH + 2) and cells.dtype == np.uint8
    assert (cells[:, -2:] == np.frombuffer(b";\n", dtype=np.uint8)).all()
