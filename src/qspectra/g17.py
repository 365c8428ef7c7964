"""Float text of float arrays, byte for byte, for the CSV and JSON writers,
and float arrays of short decimal text for the spectrum readers.

Two texts are written: '%.17g' % v for the CSV writers (g17_lines, one
line per value, and g17_table, the rows of a table whose cells gather
floats formatted once) and repr(v) for the JSON writer (repr_join, the
values joined by a separator as json.dumps joins the floats of a list).
Each is written without a Python call per value where the decimal
exponent allows it: the digits come from an exact integer array, as ASCII
in three uint64 words per cell, and each cell is laid out by shifts, masks
and constant bytes from a table keyed by the exponent, the digits left
after trailing zeros and the sign. Every other value keeps '%.17g' % v or
repr(v) itself. One block loop (_texts) serves all three writers, and no
other module knows the cell layout: the NUL-padded rows of _G17_WIDTH
bytes, their blocks and the strip of the padding.

One text is read: read_decimals takes tokens I.F of at most 8 digits on
either side of the point, joined by a separator, and returns what float()
reads for each, with no Python call per token; on any other text it
returns None, and the caller reads that text as before.

The writers and readers of spectrum and geometry are its only users; a
command that loads neither module does not load (or, without cached
bytecode, compile) this one.
"""

from __future__ import annotations

import functools

import numpy as np

# The _G17 style writes '%.17g' text without a Python call per value where the
# decimal exponent X of the 17-digit form lies in [_G17_XMIN, _G17_XMAX]:
# there 10^(16 - X) is an exact double, so the 17-digit integer
# D = |x| 10^(16 - X), rounded half to even as '%.17g' rounds, comes out
# exact from a Dekker two-product, and the %g layout depends only on X, the
# digits left after trailing zeros and the sign. Every other value (zero,
# nan, inf, subnormals, other exponents) keeps '%.17g' % v. No cell is longer
# than _G17_WIDTH bytes: '-2.2250738585072014e-308'.
_G17_XMIN = -6
_G17_XMAX = 16
_G17_WIDTH = 24
# repr writes fixed notation for the exponents [_REPR_XMIN, _REPR_XMAX] of its
# shortest digits; repr_join takes those of them that have at most 15 digits
# (see _repr_digits). No repr is longer than _G17_WIDTH bytes either.
_REPR_XMIN = -4
_REPR_XMAX = 15
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
# A cell is three little-endian uint64 words. The 17 ASCII digits fill bytes
# 0..16 of the digit words (the lead digit, then the 4-digit groups at bytes
# 1, 5, 9 and 13), and a layout row of prefix P (the sign, and '0.000'
# before small values) takes two copies of them: the left one shifted up by
# 8P bits for the digits before the point, the right one by 8P + 8 for those
# after it. Each copy is ANDed with the row's masks and the row's constant
# bytes are ORed in; every other byte is NUL. A block holds about 200 bytes
# of temporaries per value (its tracemalloc peak, the digits included), so
# the kernel works in blocks of _G17_BLOCK values, which stay in L2: on 10^6
# values, blocks of 2^11 took 12-25% longer, of 2^13 and 2^14 within 5%,
# and of 2^16 about 20% longer.
_G17_BLOCK = 1 << 12
# shift counts as np.uint64: numpy before 2.0 can promote uint64 with an int to float64
_U8, _U32, _U63 = np.uint64(8), np.uint64(32), np.uint64(63)


@functools.cache
def _layout_table(xmin: int, xmax: int, fraction_zero: bool) -> np.ndarray:
    """The layouts of the '%.17g' cells of the exponents xmin..xmax as a
    (10, rows) uint64 array, one column per (X, digits, negative) at
    ((X - xmin) 17 + digits - 1) 2 + negative, for a value whose 17 digits
    end in 17 - digits zeros: the shift 8P, then the three words of the
    left copy's mask, of the right copy's mask and of the constant bytes.
    Fixed notation for X >= -4 (every integer digit kept), exponent
    notation below; trailing fractional zeros dropped, and the point with
    them when nothing follows it. With fraction_zero, the point stays and
    a 0 follows it: repr's fixed notation, '123.0'. Made on first use, so
    a process that writes one text builds one table.

    The left copy gives the digits at bytes P to the point: one in
    exponent notation, all of them after '0.000' at X < 0, the X + 1
    integer digits otherwise; the right copy gives the rest after the
    point, and exponent notation ends in 'e-0' and the exponent's last
    digit."""
    row = np.arange((xmax - xmin + 1) * 34, dtype=np.int16)
    x, digits, negative = xmin + row // 34, row // 2 % 17 + 1, row % 2
    sci, small = x < -4, (x < 0) & (x >= -4)
    prefix = negative + small * (1 - x)  # P: the sign, and '0.000' before a small X's digits
    point = prefix + np.where(sci, 1, np.where(small, digits, x + 1))
    right = np.maximum(digits + prefix - point, 0)  # the digits after the point
    end = point + (right > 0) * (right + 1) + (fraction_zero & (x >= 0) & (right == 0)) * 2
    # byte b of every row at once, as sums of disjoint uint8 terms (np.where is slower)
    b, u = np.arange(_G17_WIDTH, dtype=np.int16)[:, None], np.uint8
    q = b - end
    const = (b < negative) * u(45) + ((b >= negative) & (b < prefix)) * u(48) - (small & (b == negative + 1)) * u(2)
    const += ((b == point) & (end > point)) * u(46) + ((b > point) & (b < end) & (right == 0)) * u(48)
    const += sci * ((q == 0) * u(101) + (q == 1) * u(45) + (q == 2) * u(48) + (q == 3) * (48 - x).astype(u))
    masks = np.stack([(b >= prefix) & (b < point), (b > point) & (b <= point + right)]) * u(255)
    words = np.concatenate([masks, const[None]]).transpose(0, 2, 1).copy().view("<u8")  # (3, rows, 3)
    return np.concatenate([8 * prefix[None].astype(np.uint64), words.transpose(0, 2, 1).reshape(9, -1)])


@functools.cache
def _g17_tables():
    """10^k for k = 0..22 with the Veltkamp halves of each; the 4-digit ASCII
    groups 0000..9999 at bytes 1..4 of little-endian uint64 words; the
    digits up to the last nonzero one of each group at group position
    k = 0..3 (bytes 1 + 4k of the digit words), as int8: 0 for 0000 (1 at
    k = 0, for the lead digit)."""
    pow10 = np.array([10.0**k for k in range(_G17_XMAX - _G17_XMIN + 1)])
    c = pow10 * _SPLIT
    pow10_hi = c - (c - pow10)
    g = np.arange(10_000)
    # the digit of 10^3 is byte 1, the second lowest of the little-endian word
    ascii4 = sum((g // 10**k % 10 + 48) << 8 * (4 - k) for k in range(4)).astype("<u8")
    zeros4 = (g % 10 == 0).astype(np.int64) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    last = np.where(g > 0, 5 - zeros4 + 4 * np.arange(4)[:, None], np.arange(4)[:, None] == 0)
    return pow10, pow10_hi, pow10 - pow10_hi, ascii4, last.astype(np.int8)


def _g17_round(v, ex):
    """(D, below): D = v 10^(16 - ex) rounded half to even, as int64, and
    whether the exact product is below 10^16. hi + lo is the product
    exactly (Dekker), with |lo| <= 8. Where the product is at least
    10^16 > 2^53, hi is a double above 2^53 and so an even integer; then
    hi + rint(lo), rint rounding half to even, is hi + lo rounded half to
    even: at lo = k + 1/2 both pick the even one of hi + k and hi + k + 1.
    Rows below 10^16 are redone at ex - 1 by the caller."""
    pow10, pow10_hi, pow10_lo = _g17_tables()[:3]
    k = 16 - ex
    b_hi, b_lo = pow10_hi[k], pow10_lo[k]
    hi = v * pow10[k]
    c = v * _SPLIT
    v_hi = c - (c - v)
    v_lo = v - v_hi
    lo = ((v_hi * b_hi - hi) + v_hi * b_lo + v_lo * b_hi) + v_lo * b_lo
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    return d, (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))


def _digit_words(d):
    """(words, digits): the three uint64 digit words of the 17-digit
    integers d, and the digits of each left after trailing zeros. Each
    split is a division by a constant and a multiply-subtract."""
    ascii4, last = _g17_tables()[3:5]
    top = d // 10**8
    lead = top // 10**8
    groups = []
    for part in (top - lead * 10**8, d - top * 10**8):
        high = part // 10**4
        groups += [high, part - high * 10**4]
    digits = last[0].take(groups[0])
    for k in (1, 2, 3):
        np.maximum(digits, last[k].take(groups[k]), out=digits)
    a = [ascii4.take(group) for group in groups]  # at bytes 1..4: << 32 moves them to 5..8, >> 32 to 0
    w0 = a[0] | lead.astype(np.uint64) + np.uint64(48) | a[1] << _U32
    w1 = a[1] >> _U32 | a[2] | a[3] << _U32
    return (w0, w1, a[3] >> _U32), digits


def _layout_cells(words, key, layouts, cells) -> None:
    """Write into the (n, 3) uint64 cells the digit words laid out at the
    layout columns key. A copy shifted up by s bits takes x << s from its
    own word and x >> (64 - s) from the word below, written
    (x >> 1) >> (63 - s) so that no shift count reaches 64."""
    shift, *columns = (column.take(key) for column in layouts)
    back, shift_right = _U63 - shift, shift + _U8
    back_right = back - _U8
    for w, word in enumerate(words):
        left, right = word << shift, word << shift_right
        if w:
            left |= carry >> back
            right |= carry >> back_right
        carry = word >> np.uint64(1)
        left &= columns[w]
        right &= columns[3 + w]
        left |= right
        np.bitwise_or(left, columns[6 + w], out=cells[:, w])


def _exponents(a, xmin: int, xmax: int):
    """(fast, v, X): whether X = floor(log10 |a|) of each value of a, one
    off next to a power of ten, is in [xmin, xmax], and there |a| and X;
    elsewhere 1.0 and 0. Where every X is in the window, v is |a| itself."""
    mag = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        ex0 = np.floor(np.log10(mag))
    fast = (ex0 >= xmin) & (ex0 <= xmax)
    if fast.all():
        return fast, mag, ex0.astype(np.int64)
    return fast, np.where(fast, mag, 1.0), np.where(fast, ex0, 0.0).astype(np.int64)


def _g17_digits(a):
    """(fast, D, X): whether each value of a takes the '%.17g' array route,
    and there its 17-digit integer D and decimal exponent X. Off the route
    X is still an exponent of the layouts, so that every row has one."""
    fast, v, ex = _exponents(a, _G17_XMIN, _G17_XMAX)
    d, below = _g17_round(v, ex)
    up = d >= 10**17  # 10^17 after rounding is 10^16 at X + 1
    rows = (up | below).nonzero()[0]
    if rows.size:  # once more at X +- 1; a row that still misses takes '%.17g' % v
        ex_rows = ex[rows] + up[rows] - below[rows]
        d_rows = _g17_round(v[rows], np.clip(ex_rows, _G17_XMIN, _G17_XMAX))[0]
        ok = (ex_rows >= _G17_XMIN) & (ex_rows <= _G17_XMAX) & (d_rows >= 10**16) & (d_rows < 10**17)
        fast[rows] &= ok
        d[rows] = d_rows
        ex[rows] = np.where(ok, ex_rows, 0)
    return fast, d, ex


def _repr_digits(a):
    """(fast, D, X): whether each value of a takes the repr array route,
    and there its digits as a 17-digit integer D and its decimal exponent X
    (off the route, still an exponent of the layouts).

    repr(v) is the shortest decimal that reads back to v, the nearest one
    where several are shortest (Steele and White, PLDI 1990), in fixed
    notation when its decimal exponent X is in [-4, 15]. The array route
    takes X = floor(log10 |v|) in that window and the 15-digit integer
    D = rint(|v| 10^(14 - X)), and keeps v when D is in [10^14, 10^15) and
    D 10^(X - 14) reads back to |v|. That read-back is one IEEE division
    by 10^(14 - X) (a multiplication by 10 at X = 15): D < 2^53 and
    |14 - X| <= 22 make both operands exact, so its one rounding is the
    correctly rounded decimal-to-binary conversion (Clinger, PLDI 1990).

    The check passing gives repr's digits. The doubles around v split the
    reals into rounding intervals, and the interval of v is at most one ulp
    wide: below 2^-52 10^(X + 1) < 0.23 10^(X - 14). Decimals of at most
    15 significant digits lie 10^(X - 14) apart in [10^X, 10^(X + 1)], and
    10^(X - 15) apart just below 10^X, where the ulp of v is below
    0.45 10^(X - 15). So at most one such decimal reads back to v. repr's
    digits are one, since D is one, and D with its trailing zeros stripped
    is repr's digits; D in [10^14, 10^15) makes X their exponent. Every
    other value keeps repr(v): those of 16 and 17 digits, exponents
    outside the window, zero, subnormals, nan and inf, and the rare value
    next to a power of ten whose floor(log10) is one off.
    """
    pow10 = _g17_tables()[0]
    fast, v, ex = _exponents(a, _REPR_XMIN, _REPR_XMAX)
    k = 14 - ex  # in [-1, 18]
    p = pow10[np.abs(k)]
    d = np.rint(np.where(k < 0, v / p, v * p))
    fast &= (d >= 1e14) & (d < 1e15) & (np.where(k < 0, d * p, d / p) == v)
    return fast, d.astype(np.int64) * 100, ex


# A text style: the digits of its array route, the arguments of its
# _layout_table, and the text of a value off the route.
_G17 = (_g17_digits, (_G17_XMIN, _G17_XMAX, False), "%.17g".__mod__)
_REPR = (_repr_digits, (_REPR_XMIN, _REPR_XMAX, True), repr)


def _write_block(a, out, style) -> None:
    """Write into out[:, :_G17_WIDTH] the cells of a in style: the layout
    cells of the values on its array route, text(v) for the others."""
    route, layout, text = style
    fast, d, ex = route(a)
    words, digits = _digit_words(d)
    key = (ex - layout[0]) * 34 + (digits - 1) * 2 + (a < 0)
    # the rows off the route get any layout here and are overwritten below; numpy
    # >= 1.23 views the cells as uint64 in place, since their last axis is contiguous
    _layout_cells(words, key, _layout_table(*layout), out[:, :_G17_WIDTH].view("<u8"))
    slow = (~fast).nonzero()[0]
    if slow.size:
        texts = np.array(list(map(text, a[slow].tolist())), dtype=f"S{_G17_WIDTH}")
        out[slow, :_G17_WIDTH] = texts.view(np.uint8).reshape(-1, _G17_WIDTH)


def _strip(cells: np.ndarray) -> str:
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _texts(arr, end: str, style, index=None, newlines: int = 0):
    """The text of each value of arr in style followed by end, one str per
    _G17_BLOCK values: their cells with the NUL padding deleted.

    With an (N, k) integer index the text is N rows of k cells instead,
    row r the cells of arr[index[r]]. The last newlines values of arr end
    with '\\n' in place of end; the index takes the last cell of each row,
    and no other, from them. Each value is written once, into one array of
    every cell, and the rows are gathered and stripped about _G17_BLOCK
    cells at a time, so no padded copy of the whole text is held."""
    out = np.empty((min(arr.size, _G17_BLOCK) if index is None else arr.size, _G17_WIDTH + len(end)), dtype=np.uint8)
    out[:, _G17_WIDTH:] = np.frombuffer(end.encode("ascii"), dtype=np.uint8)
    for start in range(0, arr.size, _G17_BLOCK):
        a = arr[start : start + _G17_BLOCK]
        cells = out[: a.size] if index is None else out[start : start + a.size]
        _write_block(a, cells, style)
        if index is None:
            yield _strip(cells)
    if index is not None:
        out[arr.size - newlines :, -1] = ord("\n")
        cells = out.view(f"V{out.shape[1]}").ravel()  # one item per cell: take copies whole cells
        step = max(1, _G17_BLOCK // index.shape[1])
        for start in range(0, len(index), step):
            yield _strip(cells.take(index[start : start + step]))


def g17_lines(x) -> str:
    """''.join('%.17g\\n' % v for v in x) for a 1-d float array, byte for
    byte."""
    return "".join(_texts(np.asarray(x, dtype=float).ravel(), "\n", _G17))


def g17_table(header: str, columns, index) -> str:
    """The CSV text of a float table, byte for byte: header, then one line
    per row r of an (N, k) integer index, '%.17g' % v of each v in
    np.concatenate(columns)[index[r]] joined by ','. Column c of index
    takes its floats from columns[c]: the cells of the last column's
    floats are the ones that end a line. Each float is formatted once,
    however many cells hold it."""
    arr = np.concatenate(columns).astype(float, copy=False)
    return "".join([header, *_texts(arr, ",", _G17, index, newlines=len(columns[-1]))])


def repr_join(x, sep: str) -> str:
    """sep.join(map(repr, x)) for a 1-d float array, byte for byte: the
    text json.dumps writes for the floats of a list, with sep ', '. Values
    with at most 15 significant digits and a decimal exponent in [-4, 15]
    take the array route (_repr_digits); every other value keeps repr(v)."""
    arr = np.asarray(x, dtype=float).ravel()
    if not arr.size:
        return ""
    return "".join([*_texts(arr[:-1], sep, _REPR), repr(arr[-1].item())])


# ---------------------------------------------------------------------------
# reading: short decimals without a Python call per token

# read_decimals works in blocks of about _READ_BLOCK bytes, cut at a
# separator: in one block, the 2.3 MB text of 208,057 lines read in 36 ms
# against 16 ms, for the fresh pages of its temporaries.
_READ_BLOCK = 1 << 16
# the top k bytes of a little-endian word, k = 0..8
_TOP = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)
_ASCII_ZERO = np.uint64(0x3030303030303030)
_POW10_INT = 10 ** np.arange(9, dtype=np.int64)
_POW10_FLOAT = _POW10_INT.astype(float)
# (multiplier 10^k 2^(8k) + 1, shift 8k, mask) of the three SWAR steps: pairs
# of digits, then groups of four, then eight, whose shift by 32 leaves nothing
# to mask; np.uint64 scalars throughout, since numpy before 2.0 can promote
# uint64 with a Python int to float64
_SWAR = (
    (np.uint64(10 << 8 | 1), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(100 << 16 | 1), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(10_000 << 32 | 1), np.uint64(32), None),
)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The integers of uint64 words that hold 8 digits 0..9, one a byte,
    the first (most significant) in the lowest byte, in place. Step k
    multiplies by 10^k 2^(8k) + 1, which adds 10^k times each group of 8k
    bits into the group above it; the shift by 8k brings that sum,
    high 10^k + low, down to the place of the high group, and the mask
    clears the group above it (Lemire, Softw. Pract. Exp. 51(8), 2021).
    No lane carries into the next: 99, 9999 and 99999999 fit in 8, 16 and
    32 bits, and what the multiply pushes past bit 63 is never kept."""
    for mul, shift, mask in _SWAR:
        x *= mul
        x >>= shift
        if mask is not None:
            x &= mask
    return x


def _read_block(buf: np.ndarray, size: int, sep: bytes, strict: bool):
    """The values of the tokens in buf[8 : 8 + size], separated by sep, or
    None when the block is outside read_decimals' grammar or a token's
    digits exceed 2^53. buf[:8] may hold anything."""
    b = buf[8 : 8 + size]
    p = np.flatnonzero(b < 48)  # the points and the separators' bytes
    period = 1 + len(sep)
    n = (p.size + len(sep)) // period
    if p.size != n * period - len(sep) or b[p].tobytes() != ((b"." + sep) * n)[: p.size]:
        return None
    point = p[::period]
    end = np.append(p[1::period], size)
    start = np.append(0, p[len(sep) :: period] + 1)
    whole = point - start
    frac = end - point - 1
    # start and end come from the same separator bytes: one byte apart for a
    # one-byte sep, and len(sep) apart for a longer one only where no other
    # byte is between its bytes
    if len(sep) > 1 and (start[1:] - end[:-1] != len(sep)).any():
        return None
    if max(whole.max(), frac.max()) > 8 or (whole + frac).min() == 0:
        return None
    if strict and (min(whole.min(), frac.min()) == 0 or ((whole > 1) & (b[start] == 48)).any()):
        return None
    # word i of buf is its bytes i .. i + 7: the 8 bytes that end at byte i of b
    words = np.ndarray((size + 1,), dtype="<u8", buffer=buf, strides=(1,))
    lengths = np.concatenate((whole, frac))
    x = words.take(np.concatenate((point, end)))
    x ^= _ASCII_ZERO  # a digit byte '0'..'9' becomes 0..9
    x &= _TOP.take(lengths)
    x = _eight_digits(x).view(np.int64)
    d = x[:n] * _POW10_INT.take(frac) + x[n:]
    if d.max() > 2**53:
        return None
    return d / _POW10_FLOAT.take(frac)


def read_decimals(text: str, sep: str, start: int, end: int, strict: bool):
    """The float64 values of text[start:end] when it is tokens I.F joined
    by sep, each value bit for bit what float() reads; otherwise None, and
    the caller reads the text its own way.

    The grammar: an ASCII text; I and F are runs of at most 8 digits, not
    both empty; no other byte (sign, exponent, '_', whitespace, a token
    without a point, an empty token). strict adds JSON's number grammar:
    I and F non-empty, and no leading zero in I unless I is '0'.

    The digits of each token make the integer D = I 10^|F| + F, read from
    the 8 bytes that end at its point and at its end as little-endian
    words (_eight_digits). Where D <= 2^53, D and 10^|F| are exact
    doubles, so the one IEEE division D / 10^|F| is the exact
    quotient rounded once: the correctly rounded value of the decimal,
    which is what float() and json.loads return (Clinger, PLDI 1990).
    Above 2^53 D itself would round first, and the quotient can miss:
    '90071992.54740993' would read as 90071992.54740992, where float()
    gives 90071992.54740994. So a text with such a token is None too.

    Works in blocks of about _READ_BLOCK bytes cut at a separator; holds
    one copy of the text's bytes besides the str."""
    if end <= start or not text.isascii():
        return None
    data = text.encode("ascii")
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw[start:end].max() > 57:  # a byte above '9'
        return None
    separator = sep.encode("ascii")
    buf = np.zeros(8 + min(_READ_BLOCK, end - start), dtype=np.uint8)
    blocks = []
    while True:
        # the block is at most _READ_BLOCK bytes, and the separator after it
        window = start + _READ_BLOCK + len(separator)
        cut = end if end - start <= _READ_BLOCK else data.rfind(separator, start, window)
        if cut <= start:  # an empty token, or no separator in the window
            return None
        buf[8 : 8 + cut - start] = raw[start:cut]
        values = _read_block(buf, cut - start, separator, strict)
        if values is None:
            return None
        blocks.append(values)
        if cut == end:
            return np.concatenate(blocks)
        start = cut + len(separator)
