"""'%.17g' text of float arrays, byte for byte, for the CSV writers.

g17_cells formats a float64 array as fixed-width NUL-padded rows and
g17_lines as text, one line per value, without a Python call per value
where the decimal exponent allows it. The writers of spectrum and geometry
are its only users; a command that loads neither module does not load
(or, without cached bytecode, compile) this one.
"""

from __future__ import annotations

import functools

import numpy as np

from .qalgebra import _BLOCK

# g17_cells writes '%.17g' text without a Python call per value where the
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
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
# A source row is these constants, then the 17 digits; a layout lists the
# source offsets of a cell's bytes, and offset 0 (NUL) pads it.
_G17_CONSTANTS = b"\0-0.e56"
# The kernel holds about 360 bytes of temporaries per value, 192 of them the
# (n, 24) int64 layout index, so it works in blocks of _G17_BLOCK values: in
# blocks of _BLOCK it was no faster and held 22 MB more at its peak.
_G17_BLOCK = 1 << 12


def _g17_layout(x: int, digits: int, negative: bool) -> list[int]:
    """Source offsets of the '%.17g' cell of a value with exponent x whose
    17 digits end in 17 - digits zeros: fixed notation for x >= -4 (every
    integer digit kept), exponent notation below; trailing fractional zeros
    dropped, and the point with them when nothing follows it."""
    _, minus, zero, point, e, five, six = range(len(_G17_CONSTANTS))
    d = list(range(len(_G17_CONSTANTS), len(_G17_CONSTANTS) + 17))
    if x < -4:
        cells = d[:1] + ([point] + d[1:digits] if digits > 1 else [])
        cells += [e, minus, zero, five if x == -5 else six]
    else:
        whole = d[: x + 1] if x >= 0 else [zero]
        fraction = d[x + 1 : digits] if x >= 0 else [zero] * (-x - 1) + d[:digits]
        cells = whole + ([point] + fraction if fraction else [])
    return [minus] * negative + cells


@functools.cache
def _g17_tables():
    """10^k for k = 0..22 with the Veltkamp halves of each; the 4-digit ASCII
    groups 0000..9999 as little-endian uint32; the trailing zeros of each
    group (4 for 0000); the layouts, indexed by
    ((X - _G17_XMIN) 17 + digits - 1) 2 + negative."""
    pow10 = np.array([10.0**k for k in range(_G17_XMAX - _G17_XMIN + 1)])
    c = pow10 * _SPLIT
    pow10_hi = c - (c - pow10)
    groups = [b"%04d" % g for g in range(10_000)]
    ascii4 = np.frombuffer(b"".join(groups), dtype="<u4")
    zeros4 = np.array([4 - len(g.rstrip(b"0")) for g in groups], dtype=np.int64)
    layouts = np.zeros(((_G17_XMAX - _G17_XMIN + 1) * 34, _G17_WIDTH), dtype=np.int64)
    for x in range(_G17_XMIN, _G17_XMAX + 1):
        for digits in range(1, 18):
            for negative in (False, True):
                cells = _g17_layout(x, digits, negative)
                layouts[((x - _G17_XMIN) * 17 + digits - 1) * 2 + negative, : len(cells)] = cells
    return pow10, pow10_hi, pow10 - pow10_hi, ascii4, zeros4, layouts


def _g17_round(v, ex):
    """(D, below): D = v 10^(16 - ex) rounded half to even, as int64, and
    whether the exact product is below 10^16. hi + lo is the product
    exactly (Dekker), hi is an integer once it is >= 2^53 and |lo| <= 8."""
    pow10, pow10_hi, pow10_lo = _g17_tables()[:3]
    k = 16 - ex
    b_hi, b_lo = pow10_hi[k], pow10_lo[k]
    hi = v * pow10[k]
    c = v * _SPLIT
    v_hi = c - (c - v)
    v_lo = v - v_hi
    lo = ((v_hi * b_hi - hi) + v_hi * b_lo + v_lo * b_hi) + v_lo * b_lo
    whole = np.floor(lo)
    rest = lo - whole
    d = hi.astype(np.int64) + whole.astype(np.int64)
    d += (rest > 0.5) | ((rest == 0.5) & (d & 1 == 1))
    return d, (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))


def _g17_block(a, out) -> None:
    """Write the '%.17g' cells of a into out[:, :_G17_WIDTH]."""
    ascii4, zeros4, layouts = _g17_tables()[3:]
    n = a.size
    mag = np.abs(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        ex0 = np.floor(np.log10(mag))  # X, or one off next to a power of ten
    fast = (ex0 >= _G17_XMIN) & (ex0 <= _G17_XMAX)
    v = np.where(fast, mag, 1.0)
    ex = np.where(fast, ex0, 0.0).astype(np.int64)
    d, below = _g17_round(v, ex)
    up = d >= 10**17  # 10^17 after rounding is 10^16 at X + 1
    rows = (up | below).nonzero()[0]
    if rows.size:  # once more at X +- 1; a row that still misses takes '%.17g' % v
        ex_rows = ex[rows] + up[rows] - below[rows]
        d_rows = _g17_round(v[rows], np.clip(ex_rows, _G17_XMIN, _G17_XMAX))[0]
        ok = (ex_rows >= _G17_XMIN) & (ex_rows <= _G17_XMAX) & (d_rows >= 10**16) & (d_rows < 10**17)
        fast[rows] &= ok
        d[rows] = d_rows
        ex[rows] = np.where(ok, ex_rows, 0)  # any layout: the rows not ok are overwritten below
    top, low = np.divmod(d, 10**8)
    lead, mid = np.divmod(top, 10**8)
    g = (*np.divmod(mid, 10**4), *np.divmod(low, 10**4))
    src = np.empty((n, 6), dtype="<u4")  # the constants, then the 17 digits
    src[:, 0] = int.from_bytes(_G17_CONSTANTS[:4], "little")
    src[:, 1] = int.from_bytes(_G17_CONSTANTS[4:], "little") | (lead.astype("<u4") + 48) << 24
    for word, group in enumerate(g, start=2):
        src[:, word] = ascii4[group]
    zeros = zeros4[g[3]]
    # a group of 0000 adds its 4 zeros to those of the group before it
    zeros += (g[3] == 0) * (zeros4[g[2]] + (g[2] == 0) * (zeros4[g[1]] + (g[1] == 0) * zeros4[g[0]]))
    key = (ex - _G17_XMIN) * 34 + (16 - zeros) * 2 + (a < 0)
    index = layouts.take(key, axis=0)
    index += np.arange(0, n * _G17_WIDTH, _G17_WIDTH)[:, None]
    out[:, :_G17_WIDTH] = src.view(np.uint8).ravel()[index]
    slow = (~fast).nonzero()[0]
    if slow.size:
        text = np.array([b"%.17g" % value for value in a[slow].tolist()], dtype=f"S{_G17_WIDTH}")
        out[slow, :_G17_WIDTH] = text.view(np.uint8).reshape(-1, _G17_WIDTH)


def g17_cells(x, end: bytes) -> np.ndarray:
    """'%.17g' % v + end for each entry of a 1-d float array, byte for byte,
    as the rows of one uint8 array of width _G17_WIDTH + len(end): the text,
    NUL bytes up to _G17_WIDTH, then end. bytes.translate(None, b"\\0")
    deletes the padding. Works in blocks of _G17_BLOCK entries."""
    arr = np.asarray(x, dtype=float).ravel()
    out = np.empty((arr.size, _G17_WIDTH + len(end)), dtype=np.uint8)
    out[:, _G17_WIDTH:] = np.frombuffer(end, dtype=np.uint8)
    for start in range(0, arr.size, _G17_BLOCK):
        _g17_block(arr[start : start + _G17_BLOCK], out[start : start + _G17_BLOCK])
    return out


def g17_lines(x) -> str:
    """''.join('%.17g\\n' % v for v in x) for a 1-d float array, byte for
    byte, built from the g17_cells of _BLOCK entries at a time."""
    arr = np.asarray(x, dtype=float).ravel()
    return "".join(
        g17_cells(arr[start : start + _BLOCK], b"\n").tobytes().translate(None, b"\0").decode("ascii")
        for start in range(0, arr.size, _BLOCK)
    )
