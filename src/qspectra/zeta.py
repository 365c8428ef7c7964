"""Spectral zeta functions with analytic continuation.

For an operator with spectrum {lambda_k} the zeta function is
zeta_A(s) = sum_k (lambda_k / mu)^(-s) = mu^s sum_k lambda_k^(-s).
Three model families are supported, one class each:

* finite_diag      explicit eigenvalues (spectrum.FiniteDiag, also named
                   Spectrum); zeta is entire in s,
* shifted_linear   lambda_k = k - 1 + a; zeta is the Hurwitz zeta(s, a)
                   with a simple pole at s = 1,
* power_spectrum   lambda_k = k^alpha; zeta is the Riemann zeta(alpha s)
                   with a simple pole at s = 1 / alpha.

Each class carries its kind tag, its pole, its bare zeta function, its
power map, its jet at s = 0 and its determinant: jet0() returns the exact
(zeta_A(0), zeta_A'(0)) of the rescaled operator, and qdet(q) the
unchecked deformed log-determinant below, at q != 1. ZetaModel
is their union. spectrum (and numpy with it) is loaded
only when a finite_diag model is built or ZetaModel is read; hurwitz_zeta,
behind the two infinite families, runs on math alone.
model_from_dict is the one reader of the JSON forms, spectrum files
included (a spectrum is a finite_diag object without its kind tag), and
refuses with DomainError a missing or unknown field and a value that is
not a JSON number.

On top of zeta the finite-difference deformed log-determinant

    qdet(A, q) = (zeta_A(q - 1) - zeta_A(0)) / (1 - q)

replaces the classical -zeta'_A(0) without differentiating the
continuation; qdet -> -zeta'(0) as q -> 1. Term by term it is the
(regularised) sum of ln_q(lambda_k / mu), and that sum is what qdet_zeta
evaluates wherever it is the more accurate: exactly for finite_diag (one
kernel, FiniteDiag.qdet, shared with spectrum.q_logdet), and
for the Hurwitz families as the Euler-Maclaurin finite part (Hardy,
Divergent Series (1949), ch. XIII) near q = 1, where the quotient would
cancel. No classical band enters: the sum is taken at the exact q.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, repeat
from operator import mul

from .errors import DomainError, FrozenRecord, PoleError, UnsupportedModelError
from .errors import _integral, _quote, finite, finite_real, nonzero_real, positive_real
from .qalgebra import _EXP_MAX, _ln_q, _two_sum, theta_reparam

__all__ = [
    "POLE_EPS",
    "ShiftedLinear",
    "PowerSpectrum",
    "ZetaModel",
    "finite_diag",
    "shifted_linear",
    "power_spectrum",
    "power_transform_model",
    "bernoulli_numbers",
    "hurwitz_zeta",
    "zeta_value",
    "zeta_deriv0",
    "qdet_zeta",
    "relative_qdet_zeta",
    "theta_covariance_zeta",
    "model_to_json",
    "model_from_json",
]

# Hurwitz arguments closer than this to the pole at 1 are refused rather
# than returned as huge, meaningless floats: s for shifted_linear, alpha s
# for power_spectrum.
POLE_EPS = 1e-6


class _HurwitzFamily(FrozenRecord):
    """lambda_k = (k - 1 + a)^alpha for k = 1, 2, ...: zeta is the Hurwitz
    zeta(alpha s, a), with its pole at s = 1 / alpha. Each family holds one
    of a and alpha as a field and the other at 1; every field is a finite
    positive float."""

    @property
    def pole(self) -> float:
        return 1.0 / self.alpha

    def zeta(self, s: float) -> float:
        return hurwitz_zeta(self.alpha * s, self.a)

    def jet0(self) -> tuple[float, float]:
        """(zeta_A(0), zeta_A'(0)) of zeta_A(s) = scale^s zeta(alpha s, a):
        (z0, alpha z1 + ln(scale) z0) with z0 = 1/2 - a and Lerch's
        z1 = ln Gamma(a) - ln(2 pi)/2 (DLMF 25.11.18); at scale 1, ln 1 = 0
        adds no rounding. A derivative beyond float64 comes back as +-inf,
        for the caller to refuse."""
        try:
            z1 = math.lgamma(self.a) - 0.5 * _LOG_TAU
        except OverflowError:
            z1 = math.inf
        z0 = 0.5 - self.a
        return z0, self.alpha * z1 + math.log(self.scale) * z0

    def qdet(self, q: float) -> float:
        """qdet at q != 1, unchecked, on the route the Hurwitz index
        q_R = 1 + alpha (q - 1) chooses: for q_R in [0, 1.5] the power map
        gives alpha times the regularised sum at q_R, and the scale
        mu^(q-1) (that - zeta(0) ln_q mu); elsewhere the quotient of zeta
        values."""
        q_r = q if self.alpha == 1.0 else 1.0 + self.alpha * (q - 1.0)
        if not 0.0 <= q_r <= 1.5:
            return (zeta_value(self, q - 1.0) - zeta_value(self, 0.0)) / (1.0 - q)
        lead = self.alpha * _ln_q_sum(self.a, q_r)
        return self.scale ** (q - 1.0) * (lead - (0.5 - self.a) * _ln_q(self.scale, q))


class ShiftedLinear(_HurwitzFamily):
    """lambda_k = k - 1 + a for k = 1, 2, ...; zeta is the Hurwitz zeta(s, a)."""

    _fields = ("a", "scale")
    kind = "shifted_linear"
    alpha = 1.0

    def __init__(self, a: float, scale: float = 1.0) -> None:
        self.__dict__.update(a=positive_real("a", a), scale=positive_real("scale", scale))

    def power(self, theta: float):
        raise UnsupportedModelError(
            f"{self.kind!r} models leave the family under power maps"
        )


class PowerSpectrum(_HurwitzFamily):
    """lambda_k = k^alpha for k = 1, 2, ...; zeta is the Riemann zeta(alpha s)."""

    _fields = ("alpha", "scale")
    kind = "power_spectrum"
    a = 1.0

    def __init__(self, alpha: float, scale: float = 1.0) -> None:
        self.__dict__.update(alpha=positive_real("alpha", alpha), scale=positive_real("scale", scale))

    def power(self, theta: float) -> PowerSpectrum:
        """alpha -> alpha theta with scale -> scale^theta; needs theta > 0
        to keep alpha positive. DomainError if either leaves float64
        (overflows or rounds to 0)."""
        if theta <= 0.0:
            raise UnsupportedModelError(
                f"power_spectrum models need theta > 0 to keep alpha positive, "
                f"got {theta!r}"
            )
        alpha = self.alpha * theta
        try:
            scale = self.scale**theta
        except OverflowError:
            scale = math.inf
        if not (0.0 < alpha < math.inf and 0.0 < scale < math.inf):
            raise DomainError(f"the power map A^theta leaves float64 at theta = {theta!r}")
        return PowerSpectrum(alpha, scale)


def __getattr__(name: str):
    """ZetaModel, the union of the model classes, built on first access."""
    if name != "ZetaModel":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .spectrum import FiniteDiag

    globals()[name] = union = FiniteDiag | ShiftedLinear | PowerSpectrum
    return union


# constructor names that match the kind tags
shifted_linear = ShiftedLinear
power_spectrum = PowerSpectrum


def finite_diag(eigenvalues, scale: float = 1.0):
    """The finite_diag model: spectrum.FiniteDiag(eigenvalues, scale)."""
    from .spectrum import FiniteDiag

    return FiniteDiag(eigenvalues, scale)


def power_transform_model(model: ZetaModel, theta: float) -> ZetaModel:
    """Power map A -> A^theta within the model families.

    finite_diag transforms eigenvalue-wise on the rescaled operator (the
    scale is folded in, as spectrum.power_transform does);
    power_spectrum maps alpha -> alpha * theta with scale -> scale^theta,
    which needs theta > 0 to keep alpha positive. shifted_linear leaves
    the family and is refused.
    """
    return model.power(nonzero_real("theta", theta))


# ---------------------------------------------------------------------------
# Bernoulli numbers and the Hurwitz zeta function

# B_0 .. B_60 as (numerator, denominator), in the B_1 = -1/2 convention
_BERNOULLI = (
    (1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1), (-1, 30), (0, 1),
    (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6), (0, 1), (-3617, 510), (0, 1),
    (43867, 798), (0, 1), (-174611, 330), (0, 1), (854513, 138), (0, 1),
    (-236364091, 2730), (0, 1), (8553103, 6), (0, 1), (-23749461029, 870), (0, 1),
    (8615841276005, 14322), (0, 1), (-7709321041217, 510), (0, 1),
    (2577687858367, 6), (0, 1), (-26315271553053477373, 1919190), (0, 1),
    (2929993913841559, 6), (0, 1), (-261082718496449122051, 13530), (0, 1),
    (1520097643918070802691, 1806), (0, 1), (-27833269579301024235023, 690), (0, 1),
    (596451111593912163277961, 282), (0, 1),
    (-5609403368997817686249127547, 46410), (0, 1),
    (495057205241079648212477525, 66), (0, 1),
    (-801165718135489957347924991853, 1590), (0, 1),
    (29149963634884862421418123812691, 798), (0, 1),
    (-2479392929313226753685415739663229, 870), (0, 1),
    (84483613348880041862046775994036021, 354), (0, 1),
    (-1215233140483755572040304994079820246041491, 56786730),
)
_BERNOULLI_MAX = len(_BERNOULLI) - 1
# L B_k as integers, L the least common denominator
_BERNOULLI_LCM = math.lcm(*(d for _, d in _BERNOULLI))
_BERNOULLI_SCALED = tuple(n * (_BERNOULLI_LCM // d) for n, d in _BERNOULLI)

# Euler-Maclaurin correction terms B_2j / (2j)!, j = 1 .. M, with M <= 30
_M_MAX = 30
_EM_COEF = tuple(
    n / (d * math.factorial(2 * j))
    for j, (n, d) in enumerate(_BERNOULLI[2 : 2 * _M_MAX + 1 : 2], 1)
)

# hurwitz_zeta's contract: an error of at most _HURWITZ_TOL max(1, |value|),
# or DomainError. Each route aims its truncation at _ETA on that scale and
# adds the rounding of its terms, u = 2^-53 per operation.
_HURWITZ_TOL = 1e-13
_ETA = 1e-16
_LOG_ETA = math.log(_ETA)
_U = 2.0**-53
_LOG_TAU = math.log(math.tau)
_TAU_ERR = 2.4492935982947064e-16  # 2 pi - math.tau
_PI_ERR = 1.2246467991473532e-16  # pi - math.pi
# Most terms a route sums directly: Hurwitz's series needs a in (0, 1], and a
# beyond this takes too many shift terms; Euler-Maclaurin gives up past it
_MAX_SHIFT = 2**20


def bernoulli_numbers(count: int) -> list[float]:
    """Bernoulli numbers B_0 .. B_count in the B_1 = -1/2 convention.

    Read from a table of exact fractions, each rounded once to a float.
    count is read as errors.positive_int reads a count, with 0 allowed:
    2.0 is 2, and 2.5, "3", None and nan are refused with DomainError.
    Counts beyond 60 are refused: the magnitudes outgrow what float64
    corrections can usefully carry.
    """
    k = _integral(count)
    if k is None:
        raise DomainError(f"count must be a non-negative integer, got {_quote(count)}")
    if k < 0:
        raise DomainError("count must be non-negative")
    if k > _BERNOULLI_MAX:
        raise DomainError(f"count must be <= {_BERNOULLI_MAX}, got {_quote(count)}")
    return [n / d for n, d in _BERNOULLI[: k + 1]]


def _sin_pi(x: float) -> float:
    """sin(pi x), with x reduced exactly: 0 at the integers, +-1 at the
    half-integers, and accurate relative to the value near every zero."""
    sign = 1.0
    if x < 0.0:
        x, sign = -x, -1.0
    x = math.fmod(x, 2.0)
    if x > 1.0:
        x, sign = x - 1.0, -sign
    if x > 0.5:
        x = 1.0 - x
    return sign * math.sin(math.pi * x)


def _cos_pi(x: float) -> float:
    return _sin_pi(0.5 - math.fmod(abs(x), 2.0))


def _bernoulli_zeta(n: int, a: float) -> float:
    """zeta(-n, a) = -B_{n+1}(a) / (n + 1) (DLMF 25.11.14) for n < 60, in
    exact integer arithmetic and rounded once. With a = p / 2^e,
    B_m(a) 2^(e m) L = sum_k C(m, k) (L B_k) p^(m-k) 2^(e k), by Horner's rule."""
    m = n + 1
    p, q = a.as_integer_ratio()
    e = q.bit_length() - 1
    acc, binom = 0, 1
    for k in range(m + 1):
        acc = acc * p + (binom * _BERNOULLI_SCALED[k] << e * k)
        binom = binom * (m - k) // (k + 1)
    return -acc / (_BERNOULLI_LCM * m << e * m)


def _em_plan(c: float, b: float, q: float, log_target: float = _LOG_ETA) -> tuple[float, int]:
    """(x, M): where the Euler-Maclaurin tail of a sum of f, f' = x^-q,
    starts (x >= c) on its way to b, and its number M <= 30 of Bernoulli
    corrections, for q > -58. f is ln_q x, or the Hurwitz
    x^-s = 1 - s ln_(s+1) x. Johansson's bound
    |R| <= 4 / (2 pi)^2M int_x^b |f^(2M)| with f^(2M)(x) = -(q)_(2M-1) x^(1-q-2M)
    decides.

    For b = inf, the regularised tail, the remainder is below
    4 |(q)_(2M-1)| x^(2-q) / ((2 pi x)^2M (2M+q-2)), which must be below
    exp(log_target). M is 15 below q = 2, where the regularised sum cancels
    against its head and a short head rounds least, and 9 from q = 2 on,
    where nothing cancels and N + M is least; it is raised where
    2M + q - 2 would not be positive. x is then the least point that meets
    the bound, in closed form, or c if that is larger.

    For finite b, against ln_q x >= x^(1-q) ln_(2-q) c on [c, b], the
    remainder is below 4 |(q)_(2M-1)| / ((2 pi c)^2M ln_(2-q) c) of the
    tail, which must be below _ETA. M is the least that meets it at c, and c
    doubles while none does; (b, 0) if none does below b."""
    if b == math.inf:
        m = 9 if q >= 2.0 else max(15, math.floor(1.0 - 0.5 * q) + 1)
        if not q:  # (q)_(2M-1) = 0, and so is the bound
            return c, m
        e = q + 2 * m - 2
        log_c = math.log(4.0 / e) + math.lgamma(e + 1.0) - math.lgamma(q) - 2 * m * _LOG_TAU
        return max(c, math.exp(min((log_c - log_target) / e, _EXP_MAX))), m
    while c < b:
        log_c = math.log(c)
        t = (q - 1.0) * log_c
        if t > _EXP_MAX:  # ln_(2-q) c beyond float64: the bound is 0
            return c, 1
        weight = math.expm1(t) / (q - 1.0) if t else log_c
        w = (math.tau * c) ** 2
        bound = 4.0 * abs(q) / (w * weight)
        for m in range(1, _M_MAX + 1):
            if bound <= _ETA:
                return c, m
            bound *= abs((q + 2 * m - 1) * (q + 2 * m)) / w
        c *= 2
    return b, 0


def _em_terms(q: float, m: int, x: float, scale: float = 1.0) -> list[float]:
    """scale times the Euler-Maclaurin corrections B_2j/(2j)! f^(2j-1)(x),
    j = 1 .. M, of f = ln_q: B_2j/(2j)! (q)_(2j-2) x^(2-q-2j). Empty where
    x^-q underflows, and so every term, while (q)_(2j-2) may overflow."""
    x = float(x)
    p = scale * x**-q
    if not p:
        return []
    y = 1.0 / (x * x)
    steps = [y * (q + 2 * j) * (q + 2 * j + 1) for j in range(m - 1)]
    return list(map(mul, _EM_COEF, accumulate(steps, mul, initial=p)))


def _euler_maclaurin(s: float, a: float, n_min: int = 0) -> tuple[float, float, int, int]:
    """zeta(s, a) for s > -59 by Euler-Maclaurin summation with x = a + N:

        sum_{k<N} (a+k)^(-s) + x^(1-s)/(s-1) + x^(-s)/2 + s C + R,

    where C sums the M corrections _em_terms gives at q = s + 1: as
    x^-s = 1 - s ln_(s+1) x, the corrections and Johansson's bound on R are s
    times those of the ln_q sums. N >= n_min and M <= 30 come from _em_plan,
    aimed at _ETA times the value's scale L: a^(-s) for s > 1 (a lower bound
    of the value), max(1, a^(1-s)/(1-s)) below (its size at large a). Where
    L overstates the value, the bound then misses the contract and the
    caller refuses the route. An N above _MAX_SHIFT is not summed: the route
    then returns the value nan with the bound inf. Returns
    (value, bound, N, M)."""
    p, q = -s, s + 1.0
    log_a = math.log(a)
    log_scale = p * log_a if s > 1.0 else max(0.0, (1.0 - s) * log_a - math.log(1.0 - s))
    c = a + n_min
    x, m = _em_plan(c, math.inf, q, _LOG_ETA + log_scale - math.log(abs(s)))
    if not x - c <= _MAX_SHIFT:  # N grows without bound as s + 2M - 1 nears 0
        return math.nan, math.inf, _MAX_SHIFT + 1, m
    n = n_min + math.ceil(x - c)
    x, x_err = _two_sum(a, n)
    direct = [(a + k) ** p for k in range(n)]
    if s < 0.0:  # the terms grow: fold the rounding of a + k back in
        direct = [t * (1.0 + p * _two_sum(a, k)[1] / (a + k)) for k, t in enumerate(direct)]
    x_pow = x**p
    # x^(1-s)/(s-1) as x^-s x/(s-1): x^(1-s) alone may overflow
    tail = [x_pow * (x / (s - 1.0)) * (1.0 + (p + 1.0) * x_err / x), 0.5 * x_pow * (1.0 + p * x_err / x)]
    tail += _em_terms(q, m, x, s)
    value = math.fsum(direct + tail)
    direct_sum = sum(direct)
    # u first: 3 times a sum near the largest float would overflow
    rounding = 3.0 * _U * (direct_sum + sum(map(abs, tail))) + _U * abs(value)
    if s > 0.0 and n:  # a + k unfolded costs s u on each term but the first
        rounding += _U * s * (direct_sum - direct[0])
    # the remainder is below the target by the choice of N and M
    return value, math.exp(_LOG_ETA + log_scale) + rounding, n, m


def _reflected(s: float) -> tuple[float, float, float]:
    """(sigma, 2 Gamma(sigma) / (2 pi)^sigma, relative error bound) for
    sigma = 1 - s, s < -1. math.tau and math.pi fall short of 2 pi and pi,
    so their powers are corrected to first order; the factor is then within
    8.3 u of mpmath for sigma up to 255, bounded by 12 u. The bound adds
    the rounding of 1 - s, which moves the factor by its log-derivative,
    below ln(sigma) + 3."""
    sigma, err = _two_sum(1.0, -s)
    if sigma < 171.0:
        g = 2.0 * math.gamma(sigma) / math.tau**sigma * (1.0 - sigma * _TAU_ERR / math.tau)
    else:  # Legendre's duplication keeps both factors finite
        h = 0.5 * sigma
        c = 1.0 - h * _PI_ERR / math.pi
        g = math.gamma(h) / math.pi**h * c * (math.gamma(h + 0.5) / math.pi**h * c) / math.sqrt(math.pi)
    return sigma, g, 12.0 * _U + abs(err) * (math.log(sigma) + 3.0)


def _riemann(t: float) -> tuple[float, float]:
    """Riemann zeta(t), t != 1, with its error bound: Euler-Maclaurin for
    t >= -1, else the functional equation
    zeta(t) = 2 Gamma(1-t) / (2 pi)^(1-t) sin(pi t / 2) zeta(1 - t)."""
    if t >= -1.0:
        return _euler_maclaurin(t, 1.0)[:2]
    sigma, g, rel = _reflected(t)
    z, z_bound = _euler_maclaurin(sigma, 1.0)[:2]
    f = _sin_pi(0.5 * t)
    value = g * f * z
    return value, (rel + 3.0 * _U) * abs(value) + g * abs(f) * z_bound


def _fourier(s: float, a: float) -> tuple[float, float, int]:
    """zeta(s, a) for s < -1 and 0 < a < 1 by Hurwitz's formula (DLMF 25.11.9)

        zeta(s, a) = 2 Gamma(1-s) / (2 pi)^(1-s) sum_{n>=1} sin(pi s/2 + 2 pi a n) / n^(1-s).

    The series is Im(sum z^n b_n), z = e^(2 pi i a), b_n = n^(s-1). Terms
    n < m are summed; from m on, J summations by parts give the tail
    z^m / (1-z) sum_{j<J} (z / (1-z))^j (Delta^j b)_m, with remainder at
    most (1-s)_(J-1) m^(2-s-J) / |1-z|^J (J = 0: the plain sum_{n>=m} b_n).
    m and J minimise m + J while the differences, formed by subtraction,
    carry rounding of about J u b_m (2 / |1-z|)^J / |1-z| within half the
    target. Returns (value, bound, m + J)."""
    sigma, g, rel = _reflected(s)
    one_minus_z = 2.0 * _sin_pi(a)  # |1 - z|
    log_target = _LOG_ETA - math.log(min(g, 1.0))
    log_d = math.log(one_minus_z)
    log_growth = math.log(2.0 / one_minus_z)  # of the differences' rounding, per order
    # J = 0: sum_{n>=m} b_n <= (m-1)^(1-sigma) / (sigma-1)
    m_plain = math.exp(min(700.0, -(log_target + math.log(sigma - 1.0)) / (sigma - 1.0)))
    plain = (2 + math.ceil(m_plain), 0, 0.0)
    best, log_poch = None, 0.0
    for j in range(1, 31):
        if j > 1:
            log_poch += math.log(sigma + j - 2)
        m = math.ceil(math.exp(min(700.0, (log_poch - j * log_d - log_target) / (sigma + j - 1))))
        if math.log(j * _U / one_minus_z) + j * log_growth - sigma * math.log(m) > log_target - 1.0:
            break  # and so for every larger J, whose m is no larger
        if best and m + j >= best[0] + best[1]:
            break  # m + J has passed its least
        best = (m, j, log_poch)
    m, j_terms, log_poch = min(plain, best or plain, key=lambda c: c[0] + c[1])
    b = [n**-sigma for n in range(1, m + j_terms)]
    z = complex(_cos_pi(2.0 * a), _sin_pi(2.0 * a))
    # e^(i pi s/2) z = e^(i pi phase); the rounding of phase enters to first order
    phase, phase_err = _two_sum(math.fmod(0.5 * s, 2.0), 2.0 * a)
    first = complex(_cos_pi(phase), _sin_pi(phase)) * complex(1.0, math.pi * phase_err)
    zs = list(accumulate(repeat(z, m - 1), mul, initial=first))
    series = math.fsum(map(mul, (zn.imag for zn in zs[: m - 1]), b[: m - 1]))
    if j_terms:
        diffs, tail, step = b[m - 1 :], 0.0, zs[m - 1] / (1.0 - z)
        for _ in range(j_terms):
            tail += step * diffs[0]
            step *= z / (1.0 - z)
            diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        series += tail.imag
        remainder = math.exp(log_poch - j_terms * log_d - (sigma + j_terms - 1) * math.log(m))
        remainder += j_terms * _U * b[m - 1] * math.exp(j_terms * log_growth) / one_minus_z
    else:
        remainder = (m - 1) ** (1.0 - sigma) / (sigma - 1.0)
    # z^1 is off by at most 4 u (sin, cos and the phase), and each rotation
    # adds at most 6 u
    rounding = _U * math.fsum((6 * n - 2) * bn for n, bn in enumerate(b, 1))
    value = g * series
    return value, g * (remainder + rounding) + (rel + _U) * abs(value), m + j_terms


def _taylor_at_one(s: float, h: float) -> tuple[float, float, int]:
    """zeta(s, 1 + h) = sum_k (-h)^k (s)_k / k! zeta(s + k), for small |h|,
    from Riemann zeta values. Stops once the terms, whose ratio is then
    below |h|, fall under _ETA. Returns (value, bound, terms)."""
    terms, bound, coef, k = [], 0.0, 1.0, 0
    while True:
        z, z_bound = _riemann(s + k)
        terms.append(coef * z)
        bound += abs(coef) * z_bound
        if k > 2.0 - s and abs(terms[-1]) <= _ETA:
            break
        coef *= -h * (s + k) / (k + 1)
        k += 1
    value = math.fsum(terms)
    return value, bound + 4.0 * _U * math.fsum(map(abs, terms)) + 2.0 * abs(terms[-1]), k + 1


def _hurwitz(s: float, a: float) -> tuple[float, float, int, int]:
    """zeta(s, a) with the route chosen from explicit error bounds.
    Returns (value, error bound, N, M): the terms of the route's series and
    the Bernoulli corrections (M = 0 off the Euler-Maclaurin route)."""
    if s <= 0.0 and s.is_integer() and s > -_BERNOULLI_MAX:
        value = _bernoulli_zeta(int(-s), a)
        return value, _U * abs(value), 0, 0
    if s >= -1.0:
        return _euler_maclaurin(s, a)
    if a >= 16.0 and s > -59.0 or s >= -3.0 and not a.is_integer():
        em = _euler_maclaurin(s, a)
        if em[1] <= _HURWITZ_TOL * max(1.0, abs(em[0])):
            return em
    # DLMF 25.11.3: zeta(s, a) = zeta(s, a0) - sum_{j<shift} (a0 + j)^(-s), a0 in (0, 1]
    shift = math.ceil(a) - 1
    if shift > _MAX_SHIFT:
        raise DomainError(f"Hurwitz zeta at s = {s!r} needs a <= {_MAX_SHIFT}, got {a!r}")
    a0 = a - shift
    if a0 == 1.0:
        value, bound = _riemann(s)
        n = 0
    elif s > -7.0 and abs(a0 - 0.5) > 0.45:
        # Hurwitz's series converges slowly near a0 = 0 and 1; expand around 1
        if a0 > 0.5:
            value, bound, n = _taylor_at_one(s, a0 - 1.0)
        else:
            value, bound, n = _taylor_at_one(s, a0)
            head = a0**-s
            value, bound = value + head, bound + 2.0 * _U * (head + abs(value))
    else:
        value, bound, n = _fourier(s, a0)
    shifts = [(a0 + j) ** -s for j in range(shift)]
    value = math.fsum([value] + [-t for t in shifts])
    return value, bound + 2.0 * _U * math.fsum(shifts) + _U * abs(value), n, 0


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta zeta(s, a) = sum_{k>=0} (k + a)^(-s), continued to all
    real s != 1.

    Parameters
    ----------
    s : real evaluation point; |s - 1| < 1e-6 raises PoleError.
    a : positive shift.

    Contract: the error is at most 1e-13 max(1, |value|), or DomainError.
    The route is chosen per (s, a) from explicit error bounds, using math
    only:

    * s = 0, -1, ..., -59: the exact -B_{n+1}(a)/(n+1) (DLMF 25.11.14),
      rounded once, so zeta(-8, 0.5) = 0 exactly.
    * s >= -1, a >= 16 down to s = -59, and a not an integer down to
      s = -3, where its bound allows: Euler-Maclaurin, planned by the same
      Johansson remainder bound (Numer. Algorithms 69, 2015) and summed with
      the same correction polynomial as the ln_q sums of qdet_zeta and
      q_factorial_log, with M <= 30 Bernoulli terms. The truncation aims at
      1e-16 of the value's scale, a^(-s) for s > 1 and
      max(1, a^(1-s)/|1-s|) below, so a large a takes N = 0 terms (the
      large-a expansion, DLMF 25.11.43); N is at most 9 at a in [0.1, 10]
      on s in [-3, 30]. The route sums at most 2^20 terms.
    * otherwise a moves into (0, 1] by DLMF 25.11.3 and, for a = 1,
      Riemann's zeta takes its functional equation; for a within 0.05 of
      0 or 1 and s > -7, a Taylor series in a around 1; else Hurwitz's
      formula (DLMF 25.11.9), with terms taken from its tail bound.

    Measured against mpmath over s in [-40, 30] and a in [0.1, 10], the
    error relative to max(1, |value|) is at most 1.1e-14 on the
    Euler-Maclaurin route and 6.4e-15 on the others; over a in [16, 1e15]
    and s in [-58, 30], against the large-a expansion, at most 2.4e-16. A value
    beyond float64 raises DomainError ("not finite in float64"), as does a
    bound that misses the contract: near a zero of zeta(s, .) far below
    s = 0, where the value is small against 2 Gamma(1-s) / (2 pi)^(1-s)
    (2 of about 9,000 sweep points, near s = -35). For large s the sum
    stops at its first correction that underflows to 0, so a large s is
    refused only where a^(-s) overflows (a < 1): the value is 1.0 at a = 1
    and 0.0 for a > 1 once a^(-s) underflows.
    """
    af = positive_real("a", a)
    sf = finite_real("s", s)
    if abs(sf - 1.0) < POLE_EPS:
        raise PoleError(f"Hurwitz zeta has a simple pole at s = 1, got s = {sf!r}")
    try:
        value, bound = _hurwitz(sf, af)[:2]
    except DomainError:
        raise
    except (OverflowError, ValueError):  # a power beyond float64, or fsum's inf - inf
        value = bound = math.inf
    finite(value, "Hurwitz zeta is not finite in float64 at s = {!r}", sf)
    if not bound <= _HURWITZ_TOL * max(1.0, abs(value)):
        raise DomainError(
            f"Hurwitz zeta at s = {sf!r}, a = {af!r} misses its 1e-13 accuracy "
            f"(error bound {bound:.3g})"
        )
    return value


# ---------------------------------------------------------------------------
# zeta values, derivatives, and the deformed determinant


def zeta_value(model: ZetaModel, s: float) -> float:
    """zeta_A(s) for the rescaled operator: scale^s times the bare zeta.

    Raises PoleError, naming s and the model's pole, when the argument of
    the Hurwitz zeta behind the model falls within POLE_EPS of its pole at
    1 (s for shifted_linear, alpha s for power_spectrum; finite_diag has
    no pole), and DomainError when s is not a finite real number or the
    value is beyond float64.

    >>> zeta_value(finite_diag((2.0, 3.0)), 1.0)
    0.8333333333333333
    """
    sf = finite_real("s", s)
    try:  # scale**s is exactly 1.0 at scale 1
        value = model.zeta(sf) * model.scale**sf
    except OverflowError:
        value = math.inf
    except PoleError:
        raise PoleError(
            f"zeta of this {model.kind} model has a pole at s = {model.pole!r}, got s = {sf!r}"
        ) from None
    return finite(value, "zeta overflows float64 at s = {!r}", sf)


def zeta_deriv0(model: ZetaModel) -> float:
    """zeta'_A(0) of the rescaled operator, read from the model's exact
    jet (zeta(0), zeta'(0)): -sum_k ln(lambda_k / mu) for
    finite_diag; Lerch's ln Gamma(a) - ln(2 pi)/2 for shifted_linear and
    -alpha ln(2 pi)/2 for power_spectrum, each plus ln(mu) zeta(0) for
    the scale. Within 1e-14 max(1, |value|) of mpmath (measured at most
    4.1e-16, scales up to 1e300 included). A derivative beyond float64,
    such as ln Gamma(a) for a = 1e307, raises DomainError, and so does a
    finite_diag whose ratio lambda / mu leaves float64.
    """
    return finite(model.jet0()[1], "zeta'(0) is not finite in float64")


def _ln_q_sum(a: float, q: float) -> float:
    """The zeta-regularised sum_{n>=0} ln_q(a + n), which is
    (zeta(q-1, a) - zeta(0, a)) / (1 - q): its Euler-Maclaurin finite part
    (Hardy, Divergent Series (1949), ch. XIII), with x = a + N,

        sum_{n<N} ln_q(a+n) - x (ln_q x - 1)/(2-q) + ln_q x / 2
          - sum_{j=1..M} B_2j/(2j)! (q)_(2j-2) x^(2-q-2j).

    The head runs to x >= 6 at least: a short head with many corrections
    rounds least. N and M then come from _em_plan's bound for the unbounded
    tail."""
    c, m = _em_plan(max(a, 6.0), math.inf, q)
    n = math.ceil(c - a)
    x = a + n
    lx = _ln_q(x, q)
    terms = [_ln_q(a + k, q) for k in range(n)]
    terms += [-x * (lx - 1.0) / (2.0 - q), 0.5 * lx, *_em_terms(q, m, x, -1.0)]
    return math.fsum(terms)


def qdet_zeta(model: ZetaModel, q: float) -> float:
    """Finite-difference deformed log-determinant
    (zeta_A(q-1) - zeta_A(0)) / (1 - q), the regularised sum of
    ln_q(lambda_k / mu).

    Each kind takes the route that is accurate at q, without a classical
    band:

    * q == 1: -zeta'(0) from the model's exact jet (model.jet0()).
    * finite_diag: sum_k ln_q(x_k) at the exact q over the ratios
      x_k = lambda_k / mu, summed exactly (FiniteDiag.qdet, the kernel of
      spectrum.q_logdet too). A ratio that leaves float64 raises
      DomainError. With 50 lambda_k within a factor 2 of mu = 1e+-100 or
      1e+-300 it is within 1.3e-15 max(1, |value|) of mpmath (20 seeded
      spectra, q in [-1, 3]), where ln lambda_k - ln mu was off by up to
      1.3e-12.
    * shifted_linear(a) and power_spectrum(alpha), with the Hurwitz index
      q_R = 1 + alpha (q - 1) in [0, 1.5]: the power map gives alpha times
      the regularised sum of ln_(q_R)(a + n), and the scale mu enters as
      mu^(q-1) (Gamma - zeta(0) ln_q mu). It is within
      1e-14 max(1, |value|) of mpmath (measured at most 5.4e-15, scales
      0.3 to 5, from q = 1 +- 1e-16 out to q_R = 0 and 1.5).
    * the Hurwitz families elsewhere: the quotient of zeta values, the more
      accurate far below q_R = 0, where the sum's head terms grow like
      x^(1-q). From hurwitz_zeta's contract its error is at most
      [1e-13 (mu^(q-1) max(1, |zeta(alpha (q-1), a)|) + max(1, |1/2 - a|))
      + 4 eps |zeta_A(q-1)|] / |1 - q|; q within POLE_EPS of the
      pole of the Hurwitz argument raises PoleError, naming q: near q = 2
      for shifted_linear, alpha (q - 1) near 1 (q = 1 + 1/alpha) for
      power_spectrum.

    A value beyond float64 raises DomainError.
    """
    q = finite_real("deformation index", q)
    try:
        value = -model.jet0()[1] if q == 1.0 else model.qdet(q)
    except OverflowError:  # a power beyond float64
        value = math.inf
    except PoleError:
        raise PoleError(
            f"the zeta determinant of this {model.kind} model has a pole at "
            f"q = {1.0 + model.pole!r}, got q = {q!r}"
        ) from None
    return finite(value, "the zeta determinant is not finite in float64 at q = {!r}", q)


def relative_qdet_zeta(model: ZetaModel, reference: ZetaModel, q: float) -> float:
    """Deformed log of a determinant ratio,
    qdet_zeta(model, q) - qdet_zeta(reference, q): each determinant is
    taken on its own route, so the difference adds one rounding, of the
    larger one, to their errors. A pole of either model raises PoleError
    naming q, as in qdet_zeta; a difference beyond float64 raises
    DomainError.
    """
    q = finite_real("deformation index", q)
    value = qdet_zeta(model, q) - qdet_zeta(reference, q)
    return finite(value, "the zeta determinant is not finite in float64 at q = {!r}", q)


def theta_covariance_zeta(model: ZetaModel, q: float, theta: float) -> float:
    """Residual |qdet(A, q') - qdet(A^theta, q) / theta|, q' = 1 + theta(q-1).

    The power map A -> A^theta keeps finite_diag models in the family, and
    power_spectrum models for theta > 0 (alpha -> alpha theta,
    scale -> scale^theta); shifted_linear models, and power_spectrum ones
    at theta < 0, raise UnsupportedModelError (power_transform_model).

    The residual is zero in exact arithmetic. For finite_diag it is at
    most 1e-11 (1 + |qdet(A, q')|), the bound of
    spectrum.theta_covariance_residual, which is this function (measured
    at most 2.3e-14 of that on 3,000 random spectra of 1 to 200
    eigenvalues in [0.05, 100], mu in [0.5, 2], q in [-2, 3] and
    |theta| in [0.5, 2], both signs). For power_spectrum the rounding of
    alpha theta, scale^theta and q' moves the zeta argument
    sigma = alpha (q' - 1) by a few ulp, so the residual is relative, not
    absolute (the determinants reach 1e140 at q = -40): it is at most
    2e-12 max(1, |qdet(A, q')|, E), where E = 2 Gamma(1 - sigma) /
    (2 pi)^(1 - sigma) scale^(q'-1) / |1 - q'| for sigma < -1, and 0 above,
    is the scale of Hurwitz's series. E exceeds |qdet(A, q')| only near a
    trivial zero sigma = -2, -4, ...; elsewhere the bound reads
    2e-12 max(1, |qdet(A, q')|). Measured on 24,000 random points with
    alpha in [0.5, 2.5], scale in [0.5, 2], q in [-40, 4] and theta in
    [0.5, 2]: at most 6.2e-13 of that scale (up to 8.1e-11 of
    max(1, |qdet(A, q')|) alone, next to a trivial zero).
    """
    q = finite_real("deformation index", q)
    qprime = theta_reparam(q, theta)
    transformed = power_transform_model(model, theta)
    try:
        return abs(qdet_zeta(model, qprime) - qdet_zeta(transformed, q) / float(theta))
    except PoleError:  # both determinants meet the pole at q'; name the caller's q
        raise PoleError(
            f"the zeta determinant of this {model.kind} model has a pole at "
            f"q' = {1.0 + model.pole!r}, got q = {q!r}, theta = {float(theta)!r}, "
            f"q' = 1 + theta (q - 1) = {qprime!r}"
        ) from None


# ---------------------------------------------------------------------------
# serialisation


def model_to_json(model: ZetaModel) -> str:
    """JSON form with the kind tag and the model's fields (arrays as lists)."""
    fields = {name: getattr(model, name) for name in model._fields}
    return json.dumps({"kind": model.kind, **fields}, default=lambda arr: arr.tolist())


def _decode_json(text: str):
    """json.loads(text); DomainError("invalid JSON: ...") for malformed
    text, which json.loads raises as a ValueError (an int beyond the digit
    limit of int() included) or, nested deeper than the stack, as a
    RecursionError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc


def model_from_json(text: str) -> ZetaModel:
    return model_from_dict(_decode_json(text))


_MODELS = {cls.kind: cls for cls in (ShiftedLinear, PowerSpectrum)}
_JSON_NUMBERS = {int, float}


def model_from_dict(obj) -> ZetaModel:
    """The model a JSON object describes. DomainError names what is wrong:
    no kind tag, an unknown kind, a missing field, a field that the kind
    does not have, or a value that is not a JSON number (eigenvalues: a
    list of them). float() alone would read true as 1.0 and "2" as 2.0."""
    cls, values = _model_fields(obj)
    return cls(**values)


def _model_fields(obj):
    """(cls, fields) of the model a JSON object describes, checked as
    model_from_dict states, before cls(**fields) checks the values."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("model JSON must be an object with a 'kind' tag")
    kind = obj["kind"]
    if kind == "finite_diag":
        from .spectrum import FiniteDiag as cls
    else:
        cls = _MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown model kind {_quote(kind)}")
    names = cls._fields
    unknown = [key for key in obj if key != "kind" and key not in names]
    if unknown:
        raise DomainError(f"{kind} model has unknown field {_quote(unknown[0])}")
    # the fields that take a default in __init__ are the trailing ones
    required = names[: len(names) - len(cls.__init__.__defaults__ or ())]
    missing = [name for name in required if name not in obj]
    if missing:
        raise DomainError(f"{kind} model needs {', '.join(missing)}")
    values = {name: obj[name] for name in names if name in obj}
    for name, value in values.items():
        if name != "eigenvalues":
            if type(value) not in _JSON_NUMBERS:
                raise DomainError(f"{kind} model field {name!r} must be a number, got {_quote(value)}")
        elif not isinstance(value, list):
            raise DomainError(f"{kind} model field 'eigenvalues' must be a list, got {_quote(value)}")
        elif not set(map(type, value)) <= _JSON_NUMBERS:  # one C-level scan
            i = next(i for i, v in enumerate(value) if type(v) not in _JSON_NUMBERS)
            raise DomainError(
                f"{kind} model field 'eigenvalues' entry {i} must be a number, got {_quote(value[i])}"
            )
    return cls, values
