import math
from fractions import Fraction

import numpy as np
import pytest

import qspectra.g17 as g17
from qspectra.g17 import g17_lines, g17_table, read_decimals, repr_join
from qspectra.qalgebra import _BLOCK

# g17_lines / g17_table: '%.17g' text, byte for byte, without a Python call
# per value

G17_BLOCK = g17._G17_BLOCK


def _table_index(n: int) -> np.ndarray:
    """A gather index into the concatenation of two columns of n values:
    every row r of (x, -x) once, then G17_BLOCK seeded rows again, so that
    rows repeat and the table crosses the block of G17_BLOCK // 2 rows that
    g17_table gathers at a time."""
    again = np.random.default_rng(n).integers(0, n, G17_BLOCK if n else 0)
    rows = np.concatenate([np.arange(n), again])
    return np.column_stack([rows, rows + n])


def _assert_g17(x) -> None:
    """g17_lines(x) is '%.17g\\n' % v for each value v of x, and the table
    of the columns (x, -x) gathered by _table_index is its header, then
    the rows of their '%.17g' cells joined by ',', each ended by '\\n'; a
    failure names the first line that differs (a diff of the whole text
    would take minutes)."""
    values = np.asarray(x, dtype=float).ravel()
    lines = ["%.17g\n" % v for v in values.tolist()]
    cells = np.concatenate([values, -values])
    index = _table_index(values.size)
    rows = [",".join("%.17g" % v for v in row) + "\n" for row in cells[index].tolist()]
    table = g17_table("x,-x\n", (values, -values), index)
    for got, want in ((g17_lines(x), lines), (table, ["x,-x\n", *rows])):
        if got != "".join(want):
            for line, reference in zip(got.splitlines(True), want):
                assert line == reference, reference
            pytest.fail("the texts differ in their number of lines")


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
    # and v 10^(16 - X) for v = j 2^(X - 17) at the other exponents; above
    # 2^53 its Dekker remainder lo = P - fl(P) is k + 1/2, and every k in
    # [-8, 7] occurs where the ulp of P is 16
    rng = np.random.default_rng(34)
    values, remainders = [], set()
    for x in range(-6, 15):
        low, high = math.ceil(10**x * 2 ** (17 - x)), math.ceil(10 ** (x + 1) * 2 ** (17 - x))
        j = rng.integers(low // 2, high // 2, 20_000) * 2 + 1
        v = np.ldexp(j.astype(float), x - 17)
        values.append(v)
        for jj, vv in zip(j[:2000].tolist(), v[:2000].tolist()):
            hi = vv * 10.0 ** (16 - x)
            if hi >= 1e16:
                remainders.add(Fraction(jj * 10 ** (16 - x), 2 ** (17 - x)) - Fraction(hi))
    assert {Fraction(2 * k + 1, 2) for k in range(-8, 8)} <= remainders
    x = np.concatenate(values)
    assert g17._g17_digits(x)[0].mean() > 0.99
    _assert_g17(np.concatenate([x, -x]))


@pytest.mark.parametrize("size", (0, 1, G17_BLOCK - 1, G17_BLOCK, 2 * G17_BLOCK + 3, _BLOCK + 1))
def test_g17_blocks(size):
    x = np.random.default_rng(size).lognormal(0.0, 3.0, size)
    x[::3] *= -1.0
    _assert_g17(x)
    # a table of one column and of five, each with the identity index
    assert g17_table("", (x,), np.arange(size)[:, None]) == g17_lines(x)
    five = np.resize(x, (size, 5))
    rows = [",".join("%.17g" % v for v in row) + "\n" for row in five.tolist()]
    table = g17_table("a,b,c,d,e\n", tuple(five.T), np.arange(5 * size).reshape(5, size).T)
    assert table == "".join(["a,b,c,d,e\n", *rows])


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
    # repr_join calls text(v) for the values off the array route alone,
    # however many of a block they are; the last value is repr(v) itself
    calls = []
    monkeypatch.setattr(g17, "_REPR", (*g17._REPR[:2], lambda v: calls.append(v) or repr(v)))
    x = np.round(np.exp(np.random.default_rng(13).uniform(math.log(0.05), math.log(50.0), 10_000)), 6)
    _assert_repr(x)
    assert calls == []
    _assert_repr([1.0, 2.0, 0.1 + 0.2, 3.0])
    assert calls == [0.1 + 0.2]
    calls.clear()
    _assert_repr([0.1 + 0.2, 1.5, 0.7 + 0.1, 3.0])
    assert calls == [0.1 + 0.2, 0.7 + 0.1]


def test_g17_tables_are_the_per_group_construction():
    groups = [b"%04d" % g for g in range(10_000)]
    ascii4, last = g17._g17_tables()[3:5]
    old_ascii4 = np.frombuffer(b"".join(groups), dtype="<u4").astype("<u8") << np.uint64(8)
    old_last = np.array([[4 * k + 1 + len(g.rstrip(b"0")) if g != b"0000" else int(k == 0) for g in groups] for k in range(4)])
    assert ascii4.dtype == np.dtype("<u8") and np.array_equal(ascii4, old_ascii4)
    assert last.dtype == np.int8 and np.array_equal(last, old_last)


# a layout's source row: these constants, then the 17 digits
_CONSTANTS = b"\0-0.e56"


def _g17_layout(x: int, digits: int, negative: bool, fraction_zero: bool) -> list[int]:
    """Source offsets of the '%.17g' cell of a value with exponent x whose
    17 digits end in 17 - digits zeros, one layout at a time: fixed notation
    for x >= -4 (every integer digit kept), exponent notation below;
    trailing fractional zeros dropped, and the point with them when nothing
    follows it. With fraction_zero, the point stays and a 0 follows it."""
    _, minus, zero, point, e, five, six = range(len(_CONSTANTS))
    d = list(range(len(_CONSTANTS), len(_CONSTANTS) + 17))
    if x < -4:
        cells = d[:1] + ([point] + d[1:digits] if digits > 1 else [])
        cells += [e, minus, zero, five if x == -5 else six]
    else:
        whole = d[: x + 1] if x >= 0 else [zero]
        fraction = d[x + 1 : digits] if x >= 0 else [zero] * (-x - 1) + d[:digits]
        fraction = fraction or [zero] * fraction_zero
        cells = whole + ([point] + fraction if fraction else [])
    return [minus] * negative + cells


@pytest.mark.parametrize("layout", ((-6, 16, False), (-4, 15, True), (-6, 16, True), (-4, 15, False)))
def test_layout_table_is_the_per_layout_construction(layout):
    # every row of the table, applied to one digit string by the kernel, is
    # the cell the per-layout construction spells from the same digits; no
    # digit is 0, so a digit byte masked off or one too many shows
    xmin, xmax, fraction_zero = layout
    table = g17._layout_table(*layout)
    rows = (xmax - xmin + 1) * 34
    assert table.dtype == np.uint64 and table.shape == (10, rows)
    digits = b"12345678912345678"
    words = g17._digit_words(np.full(rows, int(digits)))[0]
    cells = np.zeros((rows, 3), dtype=np.uint64)
    g17._layout_cells(words, np.arange(rows), table, cells)
    source = _CONSTANTS + digits
    for x in range(xmin, xmax + 1):
        for n in range(1, 18):
            for negative in (False, True):
                row = ((x - xmin) * 17 + n - 1) * 2 + negative
                cell = bytes(source[k] for k in _g17_layout(x, n, negative, fraction_zero))
                assert cells[row].tobytes() == cell.ljust(g17._G17_WIDTH, b"\0"), (x, n, negative)


def test_cells_at_the_width_edge_and_every_prefix():
    # the longest cells of the array routes, and every prefix P = 0..6 (the
    # sign, and '0.000' before the digits) of their layouts, both signs
    x = np.array([1.2345678901234567 * 10.0**k for k in range(-6, 17)] + [0.00012345678901234567, 1.2345678901234567e-05])
    x = np.concatenate([x, -x])
    short = _digits(x[(np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)], 15)  # repr's exponents, -4 .. 15
    for fast, text, values in ((g17._g17_digits, "%.17g".__mod__, x), (g17._repr_digits, repr, short)):
        assert fast(values)[0].all()
        texts = list(map(text, values.tolist()))
        assert {len(t) - len(t.lstrip("-0.")) for t in texts} == set(range(7))
        assert max(map(len, texts)) == (21 if text is repr else 23)
    # 23 bytes and a NUL: the two longest '%.17g' layouts, fixed and exponent
    assert g17_lines([-0.00012345678901234567, -1.2345678901234567e-05]) == "-0.00012345678901234567\n-1.2345678901234568e-05\n"
    assert repr_join([-0.000123456789012345], "") == "-0.000123456789012345"
    _assert_g17(x)
    _assert_repr(short)
    _assert_repr(short, "")


# read_decimals: tokens I.F joined by a separator, each value what float()
# reads, or None


def _read(text: str, sep: str = "\n", strict: bool = False):
    return read_decimals(text, sep, 0, len(text), strict)


def _assert_read(tokens, sep: str = "\n", strict: bool = False) -> None:
    """read_decimals of the tokens joined by sep takes the array route and
    gives float(token) for each token, bit for bit."""
    got = _read(sep.join(tokens), sep, strict)
    assert got is not None
    expected = np.array([float(t) for t in tokens])
    assert got.dtype == np.float64 and got.shape == expected.shape
    mismatch = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
    assert not mismatch.size, tokens[mismatch[0]]


def _six_decimals(seed: int, size: int) -> list[str]:
    values = np.round(np.exp(np.random.default_rng(seed).uniform(math.log(0.05), math.log(50.0), size)), 6)
    return list(map(repr, values.tolist()))


def test_read_decimals_six_decimal_texts():
    for seed, size in ((1, 1), (2, 100), (3, 200_000)):
        tokens = _six_decimals(seed, size)
        _assert_read(tokens)
        _assert_read(tokens, ", ", strict=True)


def test_read_decimals_every_digit_count_and_digit_place():
    # I.F with 0..8 digits on each side (not both none), each digit 0..9 at
    # each place, the other digits seeded; a 16-digit token starts below 9,
    # or is 9 and zeros, so that every token stays at most 2^53
    rng = np.random.default_rng(34)
    tokens = []
    for whole in range(9):
        for frac in range(9):
            n = whole + frac
            for place in range(n):
                for digit in range(10):
                    digits = rng.integers(0, 10, n)
                    if n == 16:
                        digits[0] = rng.integers(0, 9)
                    digits[place] = digit
                    if n == 16 and digits[0] == 9:
                        digits[1:] = 0
                    text = "".join(map(str, digits.tolist()))
                    tokens.append(f"{text[:whole]}.{text[whole:]}")
    assert len(tokens) == 6480
    _assert_read(tokens)
    _assert_read(tokens[::-1])


def test_read_decimals_needs_the_gate_at_two_to_the_53():
    # a 16-digit token whose digits D exceed 2^53 would round before the
    # division: '90071992.54740993' would read as 90071992.54740992
    assert float("90071992.54740993") == 90071992.54740994
    assert _read("90071992.54740993") is None
    assert _read("1.5\n90071992.54740993\n2.5") is None
    near = [str(d).zfill(16) for d in range(2**53 - 300, 2**53 + 1)]
    _assert_read([d[:8] + "." + d[8:] for d in near])
    for d in range(2**53 + 1, 2**53 + 40):
        assert _read(f"{str(d)[:8]}.{str(d)[8:]}") is None
    # 15 digits are below 2^53 at every split
    fifteen = [str(d) for d in range(2**53 // 10 - 300, 2**53 // 10 + 300)]
    _assert_read([d[:7] + "." + d[7:] for d in fifteen] + [d[:8] + "." + d[8:] for d in fifteen])
    # random 16-digit tokens: those at most 2^53 take the array route
    digits = np.random.default_rng(16).integers(0, 10**16, 100_000)
    tokens = ["%08d.%08d" % divmod(d, 10**8) for d in digits.tolist() if d <= 2**53]
    assert len(tokens) > 80_000
    _assert_read(tokens)


@pytest.mark.parametrize(
    "text, sep, strict",
    (
        ("12345678.12345678", "\n", False),
        ("123456789.5", "\n", False),
        ("1.123456789", "\n", False),
        ("99999999.99999999", "\n", False),  # 10^16 - 1 > 2^53
        (".5\n5.\n0.0\n007.5", "\n", False),
        (".5", ", ", True),
        ("5.", ", ", True),
        ("007.5", ", ", True),
        ("01.5", ", ", True),
        ("0.5, 10.25, 0.0", ", ", True),
        ("1.5\n\n2.5", "\n", False),
        ("1.5\n", "\n", False),
        ("1.5\r\n2.5", "\n", False),
        (" 1.5", "\n", False),
        ("+1.5", "\n", False),
        ("-1.5", "\n", False),
        ("1_0.5", "\n", False),
        ("1e3", "\n", False),
        ("1.5e3", ", ", True),
        ("nan", "\n", False),
        ("\u0661.\u0665", "\n", False),
        ("15", "\n", False),
        (".", "\n", False),
        ("1..5", "\n", False),
        ("1.5\n2.5.", "\n", False),
        ("1.5,2.5", ", ", True),
        ("1.5, 2.5, ", ", ", True),
        ("1.5,  2.5", ", ", True),
        ("1.5,3 2.5", ", ", True),  # a digit inside the separator
        ("1.5, 2.5, 0.5,3 2.5", ", ", False),
        ("", "\n", False),
    ),
)
def test_read_decimals_grammar(text, sep, strict):
    tokens = text.split(sep)
    inside = all(
        len(t) < 18 and t.count(".") == 1 and t.replace(".", "").isdigit() and t.isascii()
        and max(map(len, t.split("."))) <= 8 and int(t.replace(".", "")) <= 2**53
        and (not strict or (t[0] != "." and t[-1] != "." and not (t[0] == "0" and t[1] != ".")))
        for t in tokens
    )
    if inside:
        _assert_read(tokens, sep, strict)
    else:
        assert _read(text, sep, strict) is None


@pytest.mark.parametrize("block", (17, 18, 19, 20, 64))
def test_read_decimals_blocks(monkeypatch, block):
    # blocks are cut at a separator, and no token may straddle a cut; the
    # longest token has 17 bytes
    monkeypatch.setattr(g17, "_READ_BLOCK", block)
    tokens = _six_decimals(block, 2000) + ["12345678.12345678", ".5", "5."]
    _assert_read(tokens)
    _assert_read(tokens[:-2], ", ", strict=True)
    for bad in (1, 999, 2002):
        text = "\n".join(tokens[:bad] + ["1.5e3"] + tokens[bad:])
        assert _read(text) is None
    assert _read("\n".join(tokens) + "\n") is None  # an empty last token
    assert _read("1." + "2" * 40) is None  # longer than every block here


def test_read_decimals_reads_a_range():
    text = '{"eigenvalues": [0.5, 1.25], "scale": 1.5}'
    start = text.index("[") + 1
    got = read_decimals(text, ", ", start, text.index("]"), strict=True)
    assert got.tolist() == [0.5, 1.25]
    assert read_decimals(text, ", ", start, start, True) is None
