"""Deformed scalar calculus.

The q-logarithm and q-exponential replace ln/exp with power-law kernels
controlled by a real index q, recovering the classical pair at q = 1.
Products and quotients built from them satisfy a pseudo-additive law

    ln_q(x (x) y) = ln_q x + ln_q y + (1 - q) ln_q x ln_q y

and the whole family is covariant under the reparametrisation
q' = 1 + theta (q - 1), which rescales exponents rather than values.

All operations are pure functions on floats. q is a plain float, checked
where it enters (errors.finite_real), and one predicate, _classical,
decides the classical band around q = 1. Deformed exponentials carry a
positive-part truncation; it is reported through a flag instead of
raising, so chains of operations can track admissibility explicitly. The array
kernels shared with the spectrum and combinatorics aggregates import numpy
when they run, so the scalar calculus loads without it.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import DomainError, as_float, finite, finite_real, nonzero_real

__all__ = [
    "NEAR_ONE_EPS",
    "ClampedValue",
    "q_log",
    "q_exp",
    "q_mul",
    "q_div",
    "q_prod",
    "theta_reparam",
    "spectral_weight",
]

NEAR_ONE_EPS = 1e-8

# math.exp and math.expm1 overflow (raise) past this; the deformed exponential
# returns inf instead, matching the divergent branch of the positive-part power.
_EXP_MAX = 709.782712893384


def _classical(q: float) -> bool:
    """Whether q lies in the classical band, within NEAR_ONE_EPS of 1.

    Inside the band every scalar and aggregate kernel (q_log, q_exp,
    q_logdet, q_factorial_log, tsallis_entropy, the geometry potential)
    uses the exact classical (q = 1) expression on the whole band, not only
    at q = 1. That drops the first-order term (q - 1) ln^2 x / 2 of ln_q x:
    q_log(1e308, 1 + 5e-9) is 1.8e-6 off, relative, while the deformed
    formula, evaluated through expm1/log1p kernels, stays within a few ulp
    arbitrarily close to q = 1. The zeta determinants (zeta.qdet_zeta,
    relative_qdet_zeta, theta_covariance_zeta) take no band: they evaluate
    at the exact q, and so do spectrum.relative_q_logdet and
    theta_covariance_residual, which are second names for the last two.
    """
    return abs(q - 1.0) < NEAR_ONE_EPS


ClampedValue = namedtuple("ClampedValue", "value clamped")
ClampedValue.__doc__ = """A non-negative result plus a flag marking whether the positive-part
    truncation [y]_+ = max(y, 0) fired while producing it."""


def _ln_q(x: float, q: float) -> float:
    """ln_q x = expm1((1-q) ln x) / (1-q) at the exact q (ln x at q == 1).
    OverflowError where expm1 leaves float64."""
    r = 1.0 - q
    return math.expm1(r * math.log(x)) / r if r else math.log(x)


def q_log(x: float, q: float) -> float:
    """Deformed logarithm ln_q x = (x^(1-q) - 1) / (1 - q).

    Parameters
    ----------
    x : positive real.
    q : finite real deformation index.

    Computed as expm1((1-q) ln x) / (1-q), which avoids the cancellation of
    the naive power form and degrades gracefully into ln x as q -> 1.
    A value beyond float64 raises DomainError.

    >>> q_log(4.0, 0.5)
    2.0
    >>> q_log(2.0, 2.0)
    0.5
    """
    q = finite_real("deformation index", q)
    xf = as_float("x", x)
    if not xf > 0.0:
        raise DomainError(f"q_log requires x > 0, got {xf!r}")
    try:
        value = math.log(xf) if _classical(q) else _ln_q(xf, q)
    except OverflowError:
        value = math.inf
    return finite(value, "q_log overflows float64 at x = {!r}, q = {!r}", xf, q)


def _exp_or_inf(u: float) -> float:
    return math.inf if u > _EXP_MAX else math.exp(u)


def q_exp(u: float, q: float) -> ClampedValue:
    """Deformed exponential exp_q u = [1 + (1-q) u]_+^(1/(1-q)).

    Inverts q_log wherever the bracket stays positive. When it does not,
    the clamp flag is set and the truncated branch is returned: 0 for
    q < 1, +inf for q > 1 (the bracket then sits on the divergent side).
    A nan u raises DomainError.

    >>> q_exp(3.0, 0.0)
    ClampedValue(value=4.0, clamped=False)
    >>> q_exp(-2.0, 0.0)
    ClampedValue(value=0.0, clamped=True)
    """
    q = finite_real("deformation index", q)
    uf = as_float("u", u)
    if math.isnan(uf):
        raise DomainError("q_exp requires a number u, got nan")
    if _classical(q):
        return ClampedValue(_exp_or_inf(uf), False)
    r = 1.0 - q
    t = r * uf
    if t <= -1.0:
        return ClampedValue(0.0 if r > 0.0 else math.inf, True)
    return ClampedValue(_exp_or_inf(math.log1p(t) / r), False)


def q_mul(x: float, y: float, q: float) -> ClampedValue:
    """Deformed product x (x)_q y = [x^(1-q) + y^(1-q) - 1]_+^(1/(1-q)).

    Additive under the deformed logarithm whenever the clamp flag stays
    false: ln_q(x (x)_q y) = ln_q x + ln_q y.
    """
    return q_exp(q_log(x, q) + q_log(y, q), q)


def q_div(x: float, y: float, q: float) -> ClampedValue:
    """Deformed quotient [x^(1-q) - y^(1-q) + 1]_+^(1/(1-q)).

    Inverse of q_mul on the unclamped set: ln_q(x (/)_q y) = ln_q x - ln_q y.
    """
    return q_exp(q_log(x, q) - q_log(y, q), q)


def q_prod(xs: Iterable[float], q: float) -> ClampedValue:
    """Deformed product of many positive factors.

    Aggregated through the additive representation sum(ln_q x_k) with exact
    (fsum) summation, so the result is independent of factor order and the
    single clamp decision happens once, at the final exponential. A sum
    beyond float64 raises DomainError.
    """
    q = finite_real("deformation index", q)
    total = exact_sum([q_log(x, q) for x in xs])
    return q_exp(finite(total, "q_prod overflows float64 at q = {!r}", q), q)


def theta_reparam(q: float, theta: float) -> float:
    """Reparametrised index q' = 1 + theta (q - 1).

    Pointwise identity: ln_{q'} x = ln_q(x^theta) / theta for theta != 0,
    which lifts to every spectral aggregate built from q_log. A q' beyond
    float64 raises DomainError.
    """
    q = finite_real("deformation index", q)
    th = nonzero_real("theta", theta)
    return finite_real("deformation index", 1.0 + th * (q - 1.0))


def spectral_weight(lam: float, q: float) -> float:
    """Spectral weight w(lambda) = lambda^(-q) governing variations.

    Every curve passes through (1, 1); q > 1 amplifies the infrared
    (lambda < 1) and suppresses the ultraviolet, q < 1 does the opposite.
    """
    lf = as_float("lambda", lam)
    if not lf > 0.0:
        raise DomainError(f"spectral_weight requires lambda > 0, got {lf!r}")
    qf = finite_real("deformation index", q)
    try:
        w = lf ** (-qf)
    except OverflowError:
        w = math.inf
    return finite(w, "lambda^(-q) overflows float64 at lambda = {!r}, q = {!r}", lf, qf)


def q_log_array(x, q: float) -> np.ndarray:
    """Vectorised q_log kernel for strictly positive arrays, at the exact q:
    np.log, then the deformation _ln_q_of_log in place in the one buffer
    np.log returns.

    Internal helper shared by the spectrum and combinatorics aggregates;
    positivity is the caller's responsibility. Unlike q_log it
    has no classical band: a caller that keeps the band passes q = 1.0
    inside it. It is within 2 ulp of q_log, not bit for bit: np.expm1 and
    math.expm1 round differently, and about 8% of points differ (x in
    [0.1, 100], q in [-3, 3]). FiniteDiag.qdet applies the same deformation
    to the logs it keeps, so its terms are these bit for bit.
    """
    import numpy as np

    t = np.log(np.asarray(x, dtype=float))
    return _ln_q_of_log(t, q, out=t)


def _ln_q_of_log(t, q: float, out=None) -> np.ndarray:
    """ln_q x from the array t = ln x at the exact q: t itself at q == 1,
    else expm1((1-q) t) / (1-q), formed in out (a new array if None)."""
    import numpy as np

    if q == 1.0:
        return t
    r = 1.0 - q
    with np.errstate(over="ignore"):
        u = np.multiply(t, r, out=out)
        np.expm1(u, out=u)
        u /= r
    return u


# exact_sum hands up to _SMALL entries to math.fsum, which is faster there. It
# walks longer input in blocks of _BLOCK entries, each through extraction
# passes until its residual is 0, and rounds the pass sums once, with
# math.fsum. A block takes the passes while its largest |entry| is below
# _HUGE, where sigma <= 2^1023 stays finite; a larger block gives its entries
# to the list of pass sums as they stand.
_SMALL = 1 << 9
_BLOCK = 1 << 16
_HUGE = 2.0 ** (1023 - (_BLOCK + 1).bit_length())


def exact_sum(x) -> float:
    """math.fsum of a 1-d float array, bit for bit (the sign of a zero
    included), without a Python loop over the entries.

    A block of n entries r goes through error-free extraction passes
    (ExtractVector of Rump, Ogita and Oishi, "Accurate floating-point
    summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1),
    2008). With 2^e >= max |r| and 2^M >= n + 2, let sigma = 2^(M + e) and
    t = (sigma + r) - sigma. Each t is exact and a multiple of
    2^-53 sigma, with |t| <= 2^-M sigma, so every partial sum of the t is
    such a multiple below sigma in magnitude and exactly representable:
    t.sum() is exact in any order, numpy's pairwise order included. The
    residual r - t is exact too (it is the rounding error of sigma + r),
    and at most 2^-53 sigma, so each pass takes 53 - M bits off the top.
    The first pass takes e from the max and the min of r (2^e > max |r|),
    and each later one takes 2^e = 2^-53 sigma, its predecessor's bound,
    with no reduction. The passes stop when the residual is 0 (its max,
    and its min where the max is 0). A subnormal residual or bound passes
    exactly too: the rounding error of an addition is always
    representable, and an addition of subnormals is exact, so a pass whose
    sigma has an ulp of at most 2^-1074 leaves 0. The input sets the
    count: 1 to 3 passes a block on the spectra and sums of the library,
    and at most 58 for a block whose entries span the whole double range.

    The pass sums, and the entries of any block whose max |entry| is at
    least _HUGE, are doubles whose exact sum is that of x, and one
    math.fsum rounds them. Where that fsum raises OverflowError, they are
    added exactly as Python ints in units of 2^-1074 and rounded once, by
    int true division. A non-finite entry decides the result alone, and
    input of zeros only takes math.fsum of x, which picks the sign.

    Cost, on 730,527 terms (median of 21, two runs, one core of an x86-64
    Xeon, numpy 2.4), with the passes each block took: log ratios of a
    spectrum 3.3-4.1 ms (2), ln_q at q = -1.5 of ratios spread over 21
    e-folds 5.8-6.9 ms (4), mantissas over 10^+-20 6.5-8.2 ms (6),
    subnormals only 12-14 ms (2), and mantissas over 10^+-300 63-74 ms
    (58), where math.fsum takes 271-275 ms. The trade against an
    accumulator of frexp/bincount buckets, which takes 5.6-7.9 ms on each
    of the last four whatever the spread: the passes are faster on the
    spectra and slower on the last three kinds, which no caller sums.

    The value is fsum's wherever fsum returns one. Where fsum raises, the
    value is still the exactly rounded sum: finite if only a partial sum
    overflows, +-inf if the sum itself does, and nan for inf - inf. Whether
    a non-finite sum is an error is left to the caller.
    """
    import numpy as np

    arr = np.asarray(x, dtype=float).ravel()
    if arr.size <= _SMALL:
        with contextlib.suppress(OverflowError, ValueError):  # else the passes decide
            return math.fsum(arr.tolist())
    sums = []
    t_buf, r_buf = np.empty(min(arr.size, _BLOCK)), np.empty(min(arr.size, _BLOCK))
    for start in range(0, arr.size, _BLOCK):
        r = arr[start : start + _BLOCK]
        top = max(r.max(), -r.min())
        if not top < _HUGE:  # nan or inf, or sigma would overflow
            if not math.isfinite(top):  # a non-finite entry decides alone
                with np.errstate(invalid="ignore"):
                    return float(arr[~np.isfinite(arr)].sum())
            sums += r.tolist()
            continue
        t, bits = t_buf[: r.size], (r.size + 1).bit_length()  # 2^bits >= n + 2
        e = math.frexp(top)[1]  # max |r| <= 2^e
        while top:
            sigma = 2.0 ** (bits + e)
            np.add(r, sigma, out=t)
            t -= sigma
            r = np.subtract(r, t, out=r_buf[: r.size])
            sums.append(t.sum())
            e += bits - 53  # the pass's bound on the residual
            top = r.max() or r.min()
    if not sums:
        return math.fsum(arr.tolist())  # zeros only: fsum picks the sign
    try:
        return math.fsum(sums)
    except OverflowError:  # a partial sum left float64: add in ints of 2^-1074
        total = sum(n * ((1 << 1074) // d) for n, d in map(float.as_integer_ratio, sums))
        try:
            return total / (1 << 1074)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def _two_sum(a, b):
    """s = a + b rounded and its exact error e = a + b - s (Knuth's TwoSum,
    six additions, no branch); e is exact wherever s is finite."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def exact_row_sums(x) -> np.ndarray:
    """exact_sum of each row of a 2-d float array.

    Rows of three entries are summed as arrays: two TwoSums, the sum of
    their errors rounded to odd (a TwoSum, then the neighbour with an odd
    last bit where that sum is inexact and even), and one rounded addition.
    Where no step overflows this is the exactly rounded sum (Boldo and
    Melquiond, "Emulation of FMA and correctly rounded sums: proved
    algorithms using rounding to odd", IEEE Trans. Computers 57(4), 2008).
    It needs every operation rounded on its own; numpy never fuses a
    multiply-add. A row whose sum comes out zero or not finite, and every
    row of another width, takes exact_sum: math.fsum of the row, its sign
    of a zero included, or, where fsum raises, the exactly rounded sum
    (+-inf past float64, nan for inf - inf).
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    if x.shape[1] != 3:
        return np.array([exact_sum(row) for row in x], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        s, e = _two_sum(x[:, 0], x[:, 1])
        s, f = _two_sum(s, x[:, 2])
        t, u = _two_sum(e, f)
        even = (t.view(np.uint64) & 1) == 0
        t = np.where((u != 0.0) & even, np.nextafter(t, np.copysign(np.inf, u)), t)
        s += t
    for k in np.flatnonzero(~np.isfinite(s) | (s == 0.0)).tolist():
        s[k] = exact_sum(x[k])
    return s
