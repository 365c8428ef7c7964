"""Finite positive spectra and their deformed determinants.

A finite operator, FiniteDiag (also named Spectrum), is a list of
positive eigenvalues with a reference scale mu; every operation consumes
the dimensionless ratios lambda_k / mu. It is the finite_diag zeta model,
so a spectrum also goes straight into the zeta functions, and its
deformed log-determinant

    Gamma_q[A] = sum_k ln_q(lambda_k / mu)

is the finite-difference effective action of the operator: it reduces to
ln det(A / mu) at q = 1, responds to eigenvalue perturbations through the
weight (lambda / mu)^(-q), and transforms covariantly under spectral power
maps A -> A^theta combined with q' = 1 + theta (q - 1). Because its zeta
function is entire, this sum is exactly the zeta quotient
(zeta_A(q - 1) - zeta_A(0)) / (1 - q) of the zeta module, and the
command line evaluates every finite operator through q_logdet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, finite, finite_vector, nonzero_real, positive_real
from .qalgebra import (
    ClampedValue,
    QLike,
    as_qparam,
    exact_sum,
    q_exp,
    q_log_array,
    theta_reparam,
)
from .zeta import model_from_dict

# A function alias is listed before its target, so a tool that labels a
# function by its last name in __all__ (the benchmark's tracer does) uses the
# target's. Spectrum, the finite operator's name from before it was one class
# with FiniteDiag, stays exported so that code written against it keeps working.
__all__ = [
    "FiniteDiag",
    "Spectrum",
    "SpectrumVariation",
    "concatenate",
    "effective_action",
    "q_logdet",
    "q_det",
    "relative_q_logdet",
    "flow_derivative",
    "action_variation",
    "power_transform",
    "theta_covariance_residual",
    "spectrum_to_json",
    "spectrum_from_json",
    "spectrum_to_csv",
    "spectrum_from_csv",
]


@dataclass(frozen=True)
class FiniteDiag:
    """Finite operator: positive eigenvalues lambda_k with a positive scale mu.

    The eigenvalues are held as one read-only float64 array, copied from
    the input, so changing the caller's array later leaves the operator
    alone. Equality and hash follow the scale and the eigenvalue values.

    This is the finite_diag zeta model and the one finite spectrum class;
    Spectrum is a second name for it. Its zeta function
    mu^s sum_k lambda_k^(-s) is entire, so it has no pole, and the power
    map A -> A^theta keeps it finite. Its determinant is taken directly as
    sum_k ln_q(lambda_k / mu) by q_logdet, which equals the zeta quotient.
    """

    eigenvalues: np.ndarray
    scale: float = 1.0

    kind: ClassVar[str] = "finite_diag"
    pole: ClassVar[None] = None

    def __post_init__(self) -> None:
        arr = finite_vector("eigenvalues", self.eigenvalues)
        if arr is self.eigenvalues or not arr.flags.owndata:
            arr = arr.copy()
        lo, hi = arr.min().item(), arr.max().item()
        if not lo > 0.0:
            first = int(np.argmin(arr > 0.0))
            positive_real(f"eigenvalue {first}", arr[first].item())
        arr.flags.writeable = False
        object.__setattr__(self, "eigenvalues", arr)
        object.__setattr__(self, "scale", positive_real("scale", self.scale))
        # not a field, so equality, repr and the JSON form ignore it
        object.__setattr__(self, "_extremes", (lo, hi))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.eigenvalues, other.eigenvalues)

    def __hash__(self) -> int:
        return hash((self.scale, self.eigenvalues.tobytes()))

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def dimensionless(self) -> np.ndarray:
        """Eigenvalue ratios lambda_k / scale as an array; DomainError if a
        ratio overflows or rounds to 0. The ratio is monotone in lambda, so
        the smallest and the largest eigenvalue decide."""
        lo, hi = self._extremes
        if not (lo / self.scale > 0.0 and hi / self.scale < np.inf):
            raise DomainError(f"a ratio lambda / scale leaves float64 at scale = {self.scale!r}")
        return self.eigenvalues / self.scale

    def zeta(self, s: float) -> float:
        """Bare zeta sum_k lambda_k^(-s) of the raw eigenvalues, exactly
        rounded; DomainError if it overflows float64."""
        with np.errstate(all="ignore"):
            terms = self.eigenvalues ** (-s)
        return finite(exact_sum(terms), "finite_diag zeta overflows float64 at s = {!r}", s)

    def power(self, theta: float) -> FiniteDiag:
        return power_transform(self, theta)


Spectrum = FiniteDiag


@dataclass(frozen=True)
class SpectrumVariation:
    """Eigenvalue perturbations delta lambda_k, aligned with a spectrum."""

    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        deltas = finite_vector("variation", self.deltas)
        object.__setattr__(self, "deltas", tuple(deltas.tolist()))


def _deltas_for(spec: FiniteDiag, variation) -> np.ndarray:
    deltas = variation.deltas if isinstance(variation, SpectrumVariation) else variation
    arr = finite_vector("variation", deltas)
    if arr.shape != (len(spec),):
        raise DomainError(
            f"variation has {arr.size} entries for a spectrum of size {len(spec)}"
        )
    return arr


def concatenate(*specs: FiniteDiag) -> FiniteDiag:
    """Direct sum of spectra as one dimensionless spectrum.

    Each operand's scale is folded into its eigenvalues first, so the
    result always carries scale = 1.
    """
    if not specs:
        raise DomainError("concatenate needs at least one spectrum")
    return FiniteDiag(np.concatenate([s.dimensionless() for s in specs]), 1.0)


def q_logdet(spec: FiniteDiag, q: QLike) -> float:
    """Deformed log-determinant sum_k ln_q(lambda_k / scale).

    Each term goes through the stabilised q_log kernel and the terms are
    summed exactly, with one rounding at the end (the same bits as
    math.fsum), so the value is independent of the eigenvalue ordering.
    A value beyond float64 raises DomainError.

    >>> q_logdet(Spectrum((1.0, 4.0)), 0.0)
    3.0
    """
    qp = as_qparam(q)
    terms = q_log_array(spec.dimensionless(), qp)
    return finite(exact_sum(terms), "q_logdet overflows float64 at q = {!r}", qp.q)


def q_det(spec: FiniteDiag, q: QLike) -> ClampedValue:
    """Deformed determinant exp_q(Gamma_q), with clamp flag.

    Equals the deformed product of the dimensionless eigenvalues; computed
    through the additive representation so only the final exponential can
    clamp.
    """
    qp = as_qparam(q)
    return q_exp(q_logdet(spec, qp), qp)


def relative_q_logdet(spec: FiniteDiag, reference: FiniteDiag, q: QLike) -> float:
    """Gamma_q[A] - Gamma_q[B], the deformed log of a determinant ratio.

    For equal-sized spectra the constant reference terms cancel exactly;
    for unequal sizes the difference keeps the size mismatch term, which is
    part of the definition.
    """
    qp = as_qparam(q)
    return q_logdet(spec, qp) - q_logdet(reference, qp)


def action_variation(spec: FiniteDiag, variation, q: QLike) -> float:
    """First variation of the action: sum_k (lambda_k/mu)^(-q) dlambda_k/mu.

    This is the exact directional derivative of q_logdet with respect to
    the raw eigenvalues; the deformation enters only through the spectral
    weight (lambda/mu)^(-q). The sum is exactly rounded; a value beyond
    float64 raises DomainError.
    """
    qp = as_qparam(q)
    deltas = _deltas_for(spec, variation)
    with np.errstate(all="ignore"):
        terms = spec.dimensionless() ** (-qp.q) * (deltas / spec.scale)
    return finite(exact_sum(terms), "action_variation overflows float64 at q = {!r}", qp.q)


# The finite-difference effective action Gamma_q[A] is q_logdet under its
# field-theory reading; d Gamma_q / d tau for eigenvalues flowing with rates
# dlambda_k/dtau is the same contraction as action_variation.
effective_action = q_logdet
flow_derivative = action_variation


def power_transform(spec: FiniteDiag, theta: float) -> FiniteDiag:
    """Spectral power map A -> A^theta on the dimensionless operator.

    Returns the operator with eigenvalues (lambda_k / mu)^theta and
    scale reset to 1; theta = 0 would collapse every eigenvalue to 1 and
    is rejected. An eigenvalue that overflows or underflows to 0 under the
    map raises DomainError.
    """
    th = nonzero_real("theta", theta)
    with np.errstate(all="ignore"):
        eigs = spec.dimensionless() ** th
    if not (np.isfinite(eigs) & (eigs > 0.0)).all():
        raise DomainError(f"the power map A^theta leaves float64 at theta = {th!r}")
    return FiniteDiag(eigs, 1.0)


def theta_covariance_residual(spec: FiniteDiag, q: QLike, theta: float) -> float:
    """|Gamma_{q'}[A] - Gamma_q[A^theta] / theta| with q' = 1 + theta(q-1).

    Zero in exact arithmetic for every nonzero theta; the float residual
    stays at rounding level, bounded by 1e-11 (1 + |Gamma_{q'}|).
    """
    qp = as_qparam(q)
    qprime = theta_reparam(qp, theta)
    lhs = q_logdet(spec, qprime)
    rhs = q_logdet(power_transform(spec, theta), qp) / float(theta)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# serialisation


def spectrum_to_json(spec: FiniteDiag) -> str:
    """JSON form {"eigenvalues": [...], "scale": s}; floats round-trip."""
    return json.dumps({"eigenvalues": spec.eigenvalues.tolist(), "scale": spec.scale})


def spectrum_from_json(text: str) -> FiniteDiag:
    """Read the JSON form: the finite_diag model, whose 'kind' tag may be
    left out. zeta.model_from_dict checks the fields; a JSON value that is
    not an object, or that is tagged with another kind, raises DomainError."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("kind", "finite_diag") != "finite_diag":
        raise DomainError("spectrum JSON must be an object with no kind tag other than finite_diag")
    return model_from_dict({"kind": "finite_diag", **obj})


def spectrum_to_csv(spec: FiniteDiag) -> str:
    """Single-column CSV of the dimensionless eigenvalues.

    CSV carries no scale field, so the scale is folded in on write and
    reads back as 1.
    """
    x = spec.dimensionless()
    return ("%.17g\n" * x.size) % tuple(x.tolist())


def spectrum_from_csv(text: str) -> FiniteDiag:
    """One number per line, each read as float() reads it; blank lines are
    skipped and any other line that is not a number raises DomainError."""
    lines = text.splitlines()
    try:
        values = np.array(lines, dtype=float)  # fails on a blank or bad line
    except ValueError:
        values = []
        for lineno, line in enumerate(lines, start=1):
            entry = line.strip()
            if not entry:
                continue
            try:
                values.append(float(entry))
            except ValueError as exc:
                raise DomainError(f"line {lineno}: not a number: {entry!r}") from exc
    return FiniteDiag(values, 1.0)
