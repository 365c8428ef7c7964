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
only when a finite_diag model is built or ZetaModel is read.
model_from_dict is the one reader of the JSON forms, spectrum files
included (a spectrum is a finite_diag object without its kind tag), and
refuses a missing or unknown field with DomainError.

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
from fractions import Fraction
from functools import lru_cache
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

_BERNOULLI_MAX = 60
# Bernoulli correction terms in the Euler-Maclaurin tail of hurwitz_zeta
_N_BERNOULLI = 15


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
# Bernoulli numbers and the Euler-Maclaurin continuation


@lru_cache(maxsize=None)
def _bernoulli_fractions(count: int) -> tuple[Fraction, ...]:
    values = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return tuple(values)


def bernoulli_numbers(count: int) -> list[float]:
    """Bernoulli numbers B_0 .. B_count in the B_1 = -1/2 convention.

    Generated from the defining recurrence in exact rational arithmetic and
    converted to floats at the end. Counts beyond 60 are refused: the
    magnitudes outgrow what float64 corrections can usefully carry.
    """
    count = int(count)
    if count < 0:
        raise DomainError("count must be non-negative")
    if count > _BERNOULLI_MAX:
        raise DomainError(f"count must be <= {_BERNOULLI_MAX}, got {count}")
    return [float(b) for b in _bernoulli_fractions(count)]


@lru_cache(maxsize=None)
def _em_coefficients() -> tuple[float, ...]:
    """B_2j / (2j)! for j = 1 .. 15, the Euler-Maclaurin tail coefficients."""
    bern = bernoulli_numbers(2 * _N_BERNOULLI)
    return tuple(bern[2 * j] / math.factorial(2 * j) for j in range(1, _N_BERNOULLI + 1))


def hurwitz_zeta(s: float, a: float, *, n_direct: int = 50) -> float:
    """Hurwitz zeta zeta(s, a) = sum_{k>=0} (k + a)^(-s), continued to all
    real s != 1 by Euler-Maclaurin summation.

    Parameters
    ----------
    s : real evaluation point; |s - 1| < 1e-6 raises PoleError.
    a : positive shift.
    n_direct : number of explicitly summed terms.

    The tail beyond the direct sum is replaced by its integral plus 15
    curvature corrections B_2j/(2j)! s(s+1)...(s+2j-2) (a+N)^(-s-2j+1).
    For s < 0 these terms grow like (a+N)^(1-s) and cancel. Measured with
    the defaults against mpmath over a in [0.1, 10], the error relative to
    max(1, |value|) is below 2e-14 for s in [0, 30], 2e-11 for s in
    [-2, 0), 9e-8 on [-4, -2) and 2e-5 on [-6, -4). Below s = -6 the
    result is not usable: 0.5 at s = -7.8, and hurwitz_zeta(-10, 0.1)
    returns -64.0 where the true value is -0.00709. A result that is not
    finite in float64 raises DomainError: a sum that overflows (from about
    s = -180 at a = 1, or where a^(-s) itself does). For large s the tail
    stops at its first term that underflows to 0, as every later one does,
    so a large s is refused only where a^(-s) overflows (a < 1): the value
    is 1.0 at a = 1 and 0.0 for a > 1 once a^(-s) underflows.
    """
    sf = float(s)
    af = positive_real("a", a)
    if not math.isfinite(sf):
        raise DomainError(f"s must be finite, got {sf!r}")
    if abs(sf - 1.0) < POLE_EPS:
        raise PoleError(f"Hurwitz zeta has a simple pole at s = 1, got s = {sf!r}")
    n_direct = positive_int("n_direct", n_direct)

    # the direct sum keeps numpy's pow: libm's differs in the last bit on some terms
    import numpy as np

    points = af + np.arange(n_direct, dtype=float)
    try:
        with np.errstate(over="ignore"):
            direct = math.fsum(points ** (-sf))

        x = af + n_direct
        terms = [x ** (1.0 - sf) / (sf - 1.0), 0.5 * x ** (-sf)]
        poch = sf                      # s (s+1) ... (s+2j-2), one factor at j=1
        x_pow = x ** (-sf - 1.0)
        inv_x2 = x ** (-2.0)
        for j, coef in enumerate(_em_coefficients(), 1):
            if x_pow == 0.0:  # so is every later term; poch may be inf by now
                break
            terms.append(coef * poch * x_pow)
            poch *= (sf + 2 * j - 1) * (sf + 2 * j)
            x_pow *= inv_x2
        value = direct + math.fsum(terms)
    except OverflowError:
        value = math.inf
    return finite(value, "Hurwitz zeta is not finite in float64 at s = {!r}", sf)


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
    other models and theta < 0 raise UnsupportedModelError. The residual is
    zero in exact arithmetic and stays at rounding level (<= 1e-8 contract).
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


def model_from_dict(obj) -> ZetaModel:
    """The model a JSON object describes. DomainError names what is wrong:
    no kind tag, an unknown kind, a missing field, or a field that the kind
    does not have."""
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
    return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})
