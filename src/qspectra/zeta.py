"""Spectral zeta functions with analytic continuation.

For an operator with spectrum {lambda_k} the zeta function is
zeta_A(s) = sum_k (lambda_k / mu)^(-s) = mu^s sum_k lambda_k^(-s).
Three model families are supported, one class each:

* finite_diag      explicit eigenvalues (spectrum.FiniteDiag, of which
                   every Spectrum is one); zeta is entire in s,
* shifted_linear   lambda_k = k - 1 + a; zeta is the Hurwitz zeta(s, a)
                   with a simple pole at s = 1,
* power_spectrum   lambda_k = k^alpha; zeta is the Riemann zeta(alpha s)
                   with a simple pole at s = 1 / alpha.

Each class carries its kind tag, its pole, its bare zeta function and its
power map; ZetaModel is their union.

On top of zeta the finite-difference deformed log-determinant

    qdet(A, q) = (zeta_A(q - 1) - zeta_A(0)) / (1 - q)

replaces the classical -zeta'_A(0) without differentiating the
continuation; expanding zeta around s = 0 shows qdet -> -zeta'(0) as
q -> 1, with the first correction -(q - 1) zeta''(0) / 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import DomainError, PoleError, UnsupportedModelError
from .errors import nonzero_real, positive_int, positive_real
from .qalgebra import QLike, as_qparam, theta_reparam
from .spectrum import FiniteDiag

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
        to keep alpha positive."""
        if theta <= 0.0:
            raise UnsupportedModelError(
                f"power_spectrum models need theta > 0 to keep alpha positive, "
                f"got {theta!r}"
            )
        return PowerSpectrum(self.alpha * theta, self.scale**theta)


ZetaModel = FiniteDiag | ShiftedLinear | PowerSpectrum

# constructor names that match the kind tags
finite_diag = FiniteDiag
shifted_linear = ShiftedLinear
power_spectrum = PowerSpectrum


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
    With the defaults the absolute error stays near 1e-12 wherever the
    value itself is of moderate size (s in [-10, 30], a in [0.1, 10]);
    for results of magnitude >> 1 the limit is the spacing of float64.
    """
    sf = float(s)
    af = positive_real("a", a)
    if not math.isfinite(sf):
        raise DomainError(f"s must be finite, got {sf!r}")
    if abs(sf - 1.0) < POLE_EPS:
        raise PoleError(f"Hurwitz zeta has a simple pole at s = 1, got s = {sf!r}")
    n_direct = positive_int("n_direct", n_direct)

    points = af + np.arange(n_direct, dtype=float)
    direct = math.fsum(points ** (-sf))

    x = af + n_direct
    terms = [x ** (1.0 - sf) / (sf - 1.0), 0.5 * x ** (-sf)]

    bern = bernoulli_numbers(2 * _N_BERNOULLI)
    poch = sf                      # s (s+1) ... (s+2j-2), one factor at j=1
    x_pow = x ** (-sf - 1.0)
    inv_x2 = x ** (-2.0)
    for j in range(1, _N_BERNOULLI + 1):
        coef = bern[2 * j] / math.factorial(2 * j)
        terms.append(coef * poch * x_pow)
        poch *= (sf + 2 * j - 1) * (sf + 2 * j)
        x_pow *= inv_x2
    return direct + math.fsum(terms)


# ---------------------------------------------------------------------------
# zeta values, derivatives, and the deformed determinant


def zeta_value(model: ZetaModel, s: float) -> float:
    """zeta_A(s) for the rescaled operator: scale^s times the bare zeta.

    Raises PoleError when s falls within 1e-6 of the model's pole.

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
    base = model.zeta(sf)
    if model.scale == 1.0:
        return base
    return model.scale ** sf * base


_DERIV_STEP = 1e-3


def zeta_deriv0(model: ZetaModel) -> float:
    """zeta'_A(0) by Richardson-extrapolated central differences.

    Two central differences at steps h and h/2 are combined as
    (4 D(h/2) - D(h)) / 3, cancelling the h^2 error; with h = 1e-3 the
    truncation error is far below the 1e-8 contract.
    """
    h = _DERIV_STEP
    d1 = (zeta_value(model, h) - zeta_value(model, -h)) / (2.0 * h)
    d2 = (zeta_value(model, h / 2.0) - zeta_value(model, -h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def _zeta_deriv2_at0(model: ZetaModel) -> float:
    h = _DERIV_STEP
    z0 = zeta_value(model, 0.0)

    def second(hh: float) -> float:
        return (zeta_value(model, hh) - 2.0 * z0 + zeta_value(model, -hh)) / hh**2

    return (4.0 * second(h / 2.0) - second(h)) / 3.0


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
    if qp.is_classical:
        if qp.q == 1.0:
            return -zeta_deriv0(model)
        return -zeta_deriv0(model) - 0.5 * (qp.q - 1.0) * _zeta_deriv2_at0(model)
    z1 = zeta_value(model, qp.q - 1.0)
    z0 = zeta_value(model, 0.0)
    return (z1 - z0) / qp.rate


def relative_qdet_zeta(model: ZetaModel, reference: ZetaModel, q: QLike) -> float:
    """Deformed log of a determinant ratio built from zeta differences.

    The same double difference as qdet_zeta(model) - qdet_zeta(reference),
    but assembled from zeta values of both models first so the shared
    reference terms cancel before the division by 1 - q.
    """
    qp = as_qparam(q)
    if qp.is_classical:
        lead = zeta_deriv0(model) - zeta_deriv0(reference)
        if qp.q == 1.0:
            return -lead
        curv = _zeta_deriv2_at0(model) - _zeta_deriv2_at0(reference)
        return -lead - 0.5 * (qp.q - 1.0) * curv
    dz1 = zeta_value(model, qp.q - 1.0) - zeta_value(reference, qp.q - 1.0)
    dz0 = zeta_value(model, 0.0) - zeta_value(reference, 0.0)
    return (dz1 - dz0) / qp.rate


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
    return json.dumps({"kind": model.kind, **vars(model)}, default=np.ndarray.tolist)


def model_from_json(text: str) -> ZetaModel:
    obj = json.loads(text)
    return model_from_dict(obj)


_MODELS = {cls.kind: cls for cls in (FiniteDiag, ShiftedLinear, PowerSpectrum)}


def model_from_dict(obj) -> ZetaModel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("model JSON must be an object with a 'kind' tag")
    kind = obj["kind"]
    cls = _MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown model kind {kind!r}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise DomainError(f"{kind} model needs {', '.join(missing)}")
    return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})
