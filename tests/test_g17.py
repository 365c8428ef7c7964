import math

import numpy as np
import pytest

import qspectra.g17 as g17
from qspectra.g17 import g17_cells, g17_lines, repr_join
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


# repr_join: sep.join(map(repr, x)), byte for byte, the array route for
# values of at most 15 digits whose decimal exponent is in [-4, 15]


def _assert_repr(x, sep: str = ", ") -> None:
    """repr_join(x, sep) is sep.join(map(repr, x)); a failure names the
    first value whose text differs."""
    values = np.asarray(x, dtype=float).tolist()
    text = repr_join(x, sep)
    if text != sep.join(map(repr, values)):
        for v, cell in zip(values, text.split(sep)):
            assert cell == repr(v), v.hex()
        pytest.fail("the texts differ in their number of values")


def _digits(x, n: int) -> np.ndarray:
    """x rounded to n significant digits, as float() reads '%.{n}g'."""
    return np.array([float("%.*g" % (n, v)) for v in np.asarray(x, dtype=float).tolist()])


def test_repr_random_bit_patterns():
    # nan, inf, subnormals, zeros and every exponent, both signs: nearly all
    # of them keep repr(v)
    bits = np.random.default_rng(2025).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    _assert_repr(np.concatenate([bits.view(float), specials]))


def test_repr_laws():
    rng = np.random.default_rng(11)
    six = np.round(np.exp(rng.uniform(math.log(0.05), math.log(50.0), 200_000)), 6)
    three = _digits(10.0 ** rng.uniform(-8.0, 20.0, 100_000), 3)
    seventeen = np.exp(rng.uniform(-30.0, 30.0, 100_000))
    for x in (six, three, seventeen):
        _assert_repr(x)
        _assert_repr(-x)


def test_repr_fifteen_sixteen_and_seventeen_digits():
    # across the window and one exponent past each end, both signs; the
    # 15-digit values take the array route, the others keep repr
    rng = np.random.default_rng(12)
    x = 10.0 ** rng.uniform(-5.5, 16.5, 60_000)
    x[::2] *= -1.0
    for n in (1, 2, 14, 15, 16, 17):
        _assert_repr(_digits(x, n))


def test_repr_powers_of_two_and_ten_and_their_neighbours():
    p = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)])
    _assert_repr(np.concatenate([x, -x]))


def test_repr_window_edges():
    edges = np.array([1e-5, 1e-4, 9.999999999999999e14, 1e15, 9999999999999990.0, 1e16, 1e17, 5e-324, 1.7976931348623157e308])
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf)])
    _assert_repr(x)
    assert repr_join([0.05, 123.0, 0.0001, 1e-05, 1e16, 1234567890123456.0, 123456789012345.0], ", ") == (
        "0.05, 123.0, 0.0001, 1e-05, 1e+16, 1234567890123456.0, 123456789012345.0"
    )


@pytest.mark.parametrize("size", (0, 1, 2, G17_BLOCK - 1, G17_BLOCK, G17_BLOCK + 1, _BLOCK, _BLOCK + 1))
def test_repr_blocks(size):
    x = np.round(np.random.default_rng(size).lognormal(0.0, 3.0, size), 5)
    x[::3] = np.random.default_rng(size).lognormal(0.0, 3.0, x[::3].size)  # 17 digits: repr
    _assert_repr(x)
    _assert_repr(x, "\n")


def test_repr_array_route_takes_short_values(monkeypatch):
    # repr_join calls text(v) for the values off the array route, and for
    # every value of a block where those are the most; the last value is
    # repr(v) itself
    calls = []
    monkeypatch.setattr(g17, "_REPR", (*g17._REPR[:2], lambda v: calls.append(v) or repr(v)))
    x = np.round(np.exp(np.random.default_rng(13).uniform(math.log(0.05), math.log(50.0), 10_000)), 6)
    _assert_repr(x)
    assert calls == []
    _assert_repr([1.0, 2.0, 0.1 + 0.2, 3.0])
    assert calls == [0.1 + 0.2]
    calls.clear()
    _assert_repr([0.1 + 0.2, 1.5, 0.7 + 0.1, 3.0])
    assert calls == [0.1 + 0.2, 1.5, 0.7 + 0.1]
