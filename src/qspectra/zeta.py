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

Each class carries its kind tag, its pole, its bare zeta function and its
power map; ZetaModel is their union. spectrum (and numpy with it) is loaded
only when a finite_diag model is built or ZetaModel is read; hurwitz_zeta,
behind the two infinite families, runs on math alone.
model_from_dict is the one reader of the JSON forms, spectrum files
included (a spectrum is a finite_diag object without its kind tag), and
refuses with DomainError a missing or unknown field and a value that is
not a JSON number.

On top of zeta the finite-difference deformed log-determinant

    qdet(A, q) = (zeta_A(q - 1) - zeta_A(0)) / (1 - q)

replaces the classical -zeta'_A(0) without differentiating the
continuation; expanding zeta around s = 0 shows qdet -> -zeta'(0) as
q -> 1, with the first correction -(q - 1) zeta''(0) / 2. For a
finite_diag model the quotient equals sum_k ln_q(lambda_k / mu), which
spectrum.q_logdet evaluates term by term without the cancellation.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import accumulate, repeat
from operator import mul
from typing import ClassVar

from .errors import DomainError, PoleError, UnsupportedModelError
from .errors import finite, nonzero_real, positive_int, positive_real
from .qalgebra import QLike, QParam, as_qparam, theta_reparam

__all__ = [
    "POLE_EPS",
    "ShiftedLinear",
    "PowerSpectrum",
    "ZetaModel",
    "finite_diag",
    "shifted_linear",
    "power_spectrum",
    "model_pole",
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

# Evaluations closer than this to a pole are refused rather than returned
# as huge, meaningless floats.
POLE_EPS = 1e-6


@dataclass(frozen=True)
class ShiftedLinear:
    """lambda_k = k - 1 + a for k = 1, 2, ...; zeta is the Hurwitz zeta(s, a)."""

    a: float
    scale: float = 1.0

    kind: ClassVar[str] = "shifted_linear"
    pole: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", positive_real("a", self.a))
        object.__setattr__(self, "scale", positive_real("scale", self.scale))

    def zeta(self, s: float) -> float:
        return hurwitz_zeta(s, self.a)

    def power(self, theta: float):
        raise UnsupportedModelError(
            f"{self.kind!r} models leave the family under power maps"
        )


@dataclass(frozen=True)
class PowerSpectrum:
    """lambda_k = k^alpha for k = 1, 2, ...; zeta is the Riemann zeta(alpha s)."""

    alpha: float
    scale: float = 1.0

    kind: ClassVar[str] = "power_spectrum"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", positive_real("alpha", self.alpha))
        object.__setattr__(self, "scale", positive_real("scale", self.scale))

    @property
    def pole(self) -> float:
        return 1.0 / self.alpha

    def zeta(self, s: float) -> float:
        return hurwitz_zeta(self.alpha * s, 1.0)

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


def model_pole(model: ZetaModel) -> float | None:
    """Location of the single real pole of s -> zeta_A(s), if any."""
    return model.pole


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

# Euler-Maclaurin correction terms B_2j / (2j)!, j = 1 .. M, with M <= 15
_M_MAX = 15
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
# Hurwitz's series needs a in (0, 1]; a beyond this takes too many shift terms
_MAX_SHIFT = 2**20


def bernoulli_numbers(count: int) -> list[float]:
    """Bernoulli numbers B_0 .. B_count in the B_1 = -1/2 convention.

    Read from a table of exact fractions, each rounded once to a float.
    Counts beyond 60 are refused: the magnitudes outgrow what float64
    corrections can usefully carry.
    """
    count = int(count)
    if count < 0:
        raise DomainError("count must be non-negative")
    if count > _BERNOULLI_MAX:
        raise DomainError(f"count must be <= {_BERNOULLI_MAX}, got {count}")
    return [n / d for n, d in _BERNOULLI[: count + 1]]


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


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(a + b rounded, its exact rounding error)."""
    total = a + b
    z = total - a
    return total, (a - (total - z)) + (b - z)


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


def _euler_maclaurin(s: float, a: float, n_min: int = 1) -> tuple[float, float, int, int]:
    """zeta(s, a) for s > -29 by Euler-Maclaurin summation with x = a + N:

        sum_{k<N} (a+k)^(-s) + x^(1-s)/(s-1) + x^(-s)/2
          + sum_{j=1..M} B_2j/(2j)! (s)_(2j-1) x^(1-s-2j) + R.

    M is 9 for s >= -1, which keeps N + M least there, and 15 below, where
    a larger x would grow the cancelling terms like x^(1-s). N >= n_min is
    then the least that meets Johansson's bound
    |R| <= 4 |(s)_2M| / (2 pi)^2M x^(1-s-2M) / (s+2M-1) with the target
    _ETA, taken relative to a^(-s) (a lower bound of the value) for s > 1.
    Returns (value, bound, N, M)."""
    log_target = _LOG_ETA - s * math.log(a) if s > 1.0 else _LOG_ETA
    m = 9 if s >= -1.0 else _M_MAX
    e = s + 2 * m - 1
    log_c = math.log(4.0 / e) + math.lgamma(e + 1.0) - math.lgamma(s) - 2 * m * _LOG_TAU
    n = max(n_min, math.ceil(math.exp(min((log_c - log_target) / e, 700.0)) - a))
    x, x_err = _two_sum(a, n)
    p = -s
    direct = [(a + k) ** p for k in range(n)]
    if s < 0.0:  # the terms grow: fold the rounding of a + k back in
        direct = [t * (1.0 + p * _two_sum(a, k)[1] / (a + k)) for k, t in enumerate(direct)]
    x_pow = x**p
    tail = [x * x_pow / (s - 1.0) * (1.0 + (p + 1.0) * x_err / x), 0.5 * x_pow * (1.0 + p * x_err / x)]
    x_pow /= x
    if x_pow:  # else every correction underflows to 0, where (s)_2j may overflow
        y = 1.0 / (x * x)
        steps = [y * (s + 2 * j - 1) * (s + 2 * j) for j in range(1, m)]
        tail.extend(map(mul, _EM_COEF, accumulate(steps, mul, initial=s * x_pow)))
    value = math.fsum(direct + tail)
    direct_sum = sum(direct)
    rounding = 3.0 * (direct_sum + sum(map(abs, tail))) + abs(value)
    if s > 0.0:  # a + k unfolded costs s u on each term but the first
        rounding += s * (direct_sum - direct[0])
    # the remainder is below the target, exp(log_target), by the choice of N
    return value, math.exp(log_target) + _U * rounding, n, m


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
    if t <= 0.0 and t.is_integer() and t > -_BERNOULLI_MAX:
        value = _bernoulli_zeta(int(-t), 1.0)
        return value, _U * abs(value)
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
        value = 0.5 - a if s == 0.0 else _bernoulli_zeta(int(-s), a)
        return value, _U * abs(value), 0, 0
    if s >= -1.0:
        return _euler_maclaurin(s, a)
    if not a.is_integer() and (s >= -3.0 or a >= 16.0 and s > -29.0):
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


def hurwitz_zeta(s: float, a: float, *, n_direct: int = 1) -> float:
    """Hurwitz zeta zeta(s, a) = sum_{k>=0} (k + a)^(-s), continued to all
    real s != 1.

    Parameters
    ----------
    s : real evaluation point; |s - 1| < 1e-6 raises PoleError.
    a : positive shift.
    n_direct : least number of explicitly summed terms on the
        Euler-Maclaurin route; the error bound picks N above it.

    Contract: the error is at most 1e-13 max(1, |value|), or DomainError.
    The route is chosen per (s, a) from explicit error bounds, using math
    only:

    * s = 0, -1, ..., -59: the exact -B_{n+1}(a)/(n+1) (DLMF 25.11.14),
      rounded once, so zeta(-8, 0.5) = 0 exactly.
    * s >= -1, and down to s = -3 where its bound allows:
      Euler-Maclaurin, with N from Johansson's remainder bound (Numer.
      Algorithms 69, 2015) at M = 9 Bernoulli terms (15 below s = -1);
      N is at most 9 at a in [0.2, 8] on s in [-1, 3].
    * otherwise a moves into (0, 1] by DLMF 25.11.3 and, for a = 1,
      Riemann's zeta takes its functional equation; for a within 0.05 of
      0 or 1 and s > -7, a Taylor series in a around 1; else Hurwitz's
      formula (DLMF 25.11.9), with terms taken from its tail bound.

    Measured against mpmath over s in [-40, 30] and a in [0.1, 10], the
    error relative to max(1, |value|) is at most 3.1e-14, on the
    Euler-Maclaurin route near s = -3, and 6.0e-15 on the others. A value
    beyond float64 raises DomainError ("not finite in float64"), as does a
    bound that misses the contract: near a zero of zeta(s, .) far below
    s = 0, where the value is small against 2 Gamma(1-s) / (2 pi)^(1-s)
    (2 of about 9,000 sweep points, near s = -35). For large s the sum
    stops at its first correction that underflows to 0, so a large s is
    refused only where a^(-s) overflows (a < 1): the value is 1.0 at a = 1
    and 0.0 for a > 1 once a^(-s) underflows. An n_direct above the
    bound's N is honoured after the contract is judged at the bound's own
    N; for s < 0 it grows the rounding like (a + N)^(1-s).
    """
    sf = float(s)
    af = positive_real("a", a)
    if not math.isfinite(sf):
        raise DomainError(f"s must be finite, got {sf!r}")
    if abs(sf - 1.0) < POLE_EPS:
        raise PoleError(f"Hurwitz zeta has a simple pole at s = 1, got s = {sf!r}")
    n_direct = positive_int("n_direct", n_direct)
    try:
        value, bound, n, m = _hurwitz(sf, af)
        if m and n_direct > n:
            value = _euler_maclaurin(sf, af, n_direct)[0]
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

    Raises PoleError when s falls within 1e-6 of the model's pole, and
    DomainError when the value is beyond float64.

    >>> zeta_value(finite_diag((2.0, 3.0)), 1.0)
    0.8333333333333333
    """
    sf = float(s)
    pole = model.pole
    if pole is not None and abs(sf - pole) < POLE_EPS:
        raise PoleError(
            f"zeta of this {model.kind} model has a pole at s = {pole!r}, "
            f"got s = {sf!r}"
        )
    try:  # scale**s is exactly 1.0 at scale 1
        value = model.zeta(sf) * model.scale**sf
    except OverflowError:
        value = math.inf
    return finite(value, "zeta overflows float64 at s = {!r}", sf)


def zeta_deriv0(model: ZetaModel) -> float:
    """zeta'_A(0) by a five-point Richardson stencil.

    zeta is evaluated at +-h, +-h/2 and 0 with h = 1e-3. Central
    differences at steps h and h/2 are combined as (4 D(h/2) - D(h)) / 3,
    cancelling the h^2 error, so the truncation error is far below the
    1e-8 contract. The same five values give zeta''(0) for the classical
    band of qdet_zeta. A derivative beyond float64 raises DomainError.
    """
    return finite(_stencil(model)[0], "zeta'(0) is not finite in float64")


def _stencil(model: ZetaModel) -> tuple[float, float]:
    """(zeta'(0), zeta''(0)) from the five-point stencil of zeta_deriv0."""
    h = 1e-3
    zp, zm, zp2, zm2, z0 = (zeta_value(model, s) for s in (h, -h, h / 2.0, -h / 2.0, 0.0))
    d1, d2 = (zp - zm) / (2.0 * h), (zp2 - zm2) / h
    c1, c2 = (zp - 2.0 * z0 + zm) / h**2, (zp2 - 2.0 * z0 + zm2) / (h / 2.0) ** 2
    return (4.0 * d2 - d1) / 3.0, (4.0 * c2 - c1) / 3.0


def _qdet_parts(model: ZetaModel, qp: QParam) -> tuple[float, float]:
    """(zeta(q-1), zeta(0)); inside the classical band (zeta'(0), zeta''(0))."""
    if qp.is_classical:
        return _stencil(model)
    return zeta_value(model, qp.q - 1.0), zeta_value(model, 0.0)


def _qdet_combine(qp: QParam, a: float, b: float) -> float:
    """(a - b) / (1 - q); inside the classical band -a - (q - 1) b / 2.
    DomainError if the result is not finite in float64."""
    if not qp.is_classical:
        value = (a - b) / qp.rate
    else:
        # at q = 1 itself b is left out, so a non-finite zeta''(0) cannot make it nan
        value = -a if qp.q == 1.0 else -a - 0.5 * (qp.q - 1.0) * b
    return finite(value, "the zeta determinant is not finite in float64 at q = {!r}", qp.q)


def qdet_zeta(model: ZetaModel, q: QLike) -> float:
    """Finite-difference deformed log-determinant
    (zeta_A(q-1) - zeta_A(0)) / (1 - q).

    Inside the classical band |q - 1| < NEAR_ONE_EPS the difference
    quotient would cancel catastrophically, so the expansion around s = 0
    is used instead: -zeta'(0) - (q - 1) zeta''(0) / 2. Evaluations that
    land on a pole of zeta (q = 2 for shifted_linear, q = 1 + 1/alpha for
    power_spectrum) raise PoleError.
    """
    qp = as_qparam(q)
    return _qdet_combine(qp, *_qdet_parts(model, qp))


def relative_qdet_zeta(model: ZetaModel, reference: ZetaModel, q: QLike) -> float:
    """Deformed log of a determinant ratio built from zeta differences.

    The same double difference as qdet_zeta(model) - qdet_zeta(reference),
    but assembled from zeta values of both models first so the shared
    reference terms cancel before the division by 1 - q.
    """
    qp = as_qparam(q)
    (a, b), (ra, rb) = _qdet_parts(model, qp), _qdet_parts(reference, qp)
    return _qdet_combine(qp, a - ra, b - rb)


def theta_covariance_zeta(model: ZetaModel, q: QLike, theta: float) -> float:
    """Residual |qdet(A, q') - qdet(A^theta, q) / theta|, q' = 1 + theta(q-1).

    Only power_spectrum models stay in the family under A -> A^theta
    (alpha -> alpha theta, scale -> scale^theta), and only for theta > 0;
    other models and theta < 0 raise UnsupportedModelError.

    The residual is zero in exact arithmetic. In float64 the rounding of
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
    if not isinstance(model, PowerSpectrum):
        raise UnsupportedModelError(
            f"power map keeps only power_spectrum models in the family, "
            f"got {model.kind!r}"
        )
    qp = as_qparam(q)
    qprime = theta_reparam(qp, theta)
    transformed = power_transform_model(model, theta)
    return abs(qdet_zeta(model, qprime) - qdet_zeta(transformed, qp) / float(theta))


# ---------------------------------------------------------------------------
# serialisation


def model_to_json(model: ZetaModel) -> str:
    """JSON form with the kind tag and the model's fields (arrays as lists)."""
    return json.dumps({"kind": model.kind, **asdict(model)}, default=lambda arr: arr.tolist())


def model_from_json(text: str) -> ZetaModel:
    return model_from_dict(json.loads(text))


_MODELS = {cls.kind: cls for cls in (ShiftedLinear, PowerSpectrum)}
_JSON_NUMBERS = {int, float}


def model_from_dict(obj) -> ZetaModel:
    """The model a JSON object describes. DomainError names what is wrong:
    no kind tag, an unknown kind, a missing field, a field that the kind
    does not have, or a value that is not a JSON number (eigenvalues: a
    list of them). float() alone would read true as 1.0 and "2" as 2.0."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("model JSON must be an object with a 'kind' tag")
    kind = obj["kind"]
    if kind == "finite_diag":
        from .spectrum import FiniteDiag as cls
    else:
        cls = _MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown model kind {kind!r}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in obj if key != "kind" and key not in names]
    if unknown:
        raise DomainError(f"{kind} model has unknown field {unknown[0]!r}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise DomainError(f"{kind} model needs {', '.join(missing)}")
    values = {name: obj[name] for name in names if name in obj}
    for name, value in values.items():
        if name != "eigenvalues":
            if type(value) not in _JSON_NUMBERS:
                raise DomainError(f"{kind} model field {name!r} must be a number, got {value!r}")
        elif not isinstance(value, list):
            raise DomainError(f"{kind} model field 'eigenvalues' must be a list, got {value!r}")
        elif not set(map(type, value)) <= _JSON_NUMBERS:  # one C-level scan
            i = next(i for i, v in enumerate(value) if type(v) not in _JSON_NUMBERS)
            raise DomainError(
                f"{kind} model field 'eigenvalues' entry {i} must be a number, got {value[i]!r}"
            )
    return cls(**values)
