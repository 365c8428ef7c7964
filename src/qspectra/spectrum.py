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
(zeta_A(q - 1) - zeta_A(0)) / (1 - q) of the zeta module. One kernel,
FiniteDiag.qdet, takes it: q_logdet with the classical band, and the zeta
module's qdet_zeta, zeta_deriv0, relative_qdet_zeta and
theta_covariance_zeta at the exact q. relative_q_logdet and
theta_covariance_residual are second names for the last two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, finite, finite_real, finite_vector, nonzero_real, positive_real
from .g17 import g17_lines, read_decimals, repr_join
from .qalgebra import ClampedValue, _classical, _ln_q_of_log, exact_sum, q_exp
from .zeta import _decode_json, _model_fields, relative_qdet_zeta, theta_covariance_zeta

# Spectrum, the finite operator's name from before it was one class with
# FiniteDiag, stays exported so that code written against it keeps working.
__all__ = [
    "FiniteDiag",
    "Spectrum",
    "concatenate",
    "q_logdet",
    "q_det",
    "relative_q_logdet",
    "action_variation",
    "power_transform",
    "theta_covariance_residual",
    "spectrum_to_json",
    "spectrum_from_json",
    "spectrum_to_csv",
    "spectrum_from_csv",
]

# FiniteDiag.qdet keeps the sums of at most this many q per operator
_QDETS = 64


@dataclass(frozen=True)
class FiniteDiag:
    """Finite operator: positive eigenvalues lambda_k with a positive scale mu.

    The eigenvalues are held as one read-only float64 array, copied from
    the input, so changing the caller's array later leaves the operator
    alone. The library's own constructions (the text readers,
    power_transform and concatenate) hand over the new array they built
    for the operator instead, which it keeps without a copy, after the
    same checks. Equality and hash follow the scale and the eigenvalue
    values.

    This is the finite_diag zeta model and the one finite spectrum class;
    Spectrum is a second name for it. Its zeta function
    mu^s sum_k lambda_k^(-s) is entire, so it has no pole, and the power
    map A -> A^theta keeps it finite. Its determinant, the zeta quotient,
    is the sum_k ln_q(lambda_k / mu), which qdet takes on the ratios
    lambda_k / mu (dimensionless): q_logdet calls it with the classical
    band, zeta.qdet_zeta and jet0 at the exact q. Where a ratio leaves
    float64 every one of them refuses with DomainError.

    The operator keeps what does not depend on q: the logs
    ln(lambda_k / mu) from qdet's first call, a read-only array of 8 bytes
    per eigenvalue for the operator's lifetime, and the sum at each q qdet
    took, at most _QDETS of them. The ratios are not kept: at a scale
    other than 1 dimensionless divides on each call. Neither is a field:
    equality, hash, repr and the JSON form ignore them, and a copy or a
    pickle starts without them.
    """

    eigenvalues: np.ndarray
    scale: float = 1.0

    # the dataclass fields again, as zeta's model reader and writer take
    # them from every model class
    _fields = ("eigenvalues", "scale")
    kind: ClassVar[str] = "finite_diag"
    pole: ClassVar[None] = None

    def __post_init__(self) -> None:
        arr = finite_vector("eigenvalues", self.eigenvalues)
        if arr is self.eigenvalues or not arr.flags.owndata:
            arr = arr.copy()
        self._hold(arr, self.scale)

    @classmethod
    def _owning(cls, eigenvalues, scale: float = 1.0) -> FiniteDiag:
        """FiniteDiag(eigenvalues, scale) for a new array that the caller
        built for the operator and holds nowhere else: the same checks, and
        the array is kept, not copied."""
        spec = object.__new__(cls)
        spec._hold(finite_vector("eigenvalues", eigenvalues), scale)
        return spec

    def _hold(self, arr: np.ndarray, scale: float) -> None:
        """Check the eigenvalues arr (finite already) and the scale, and
        keep arr, made read-only, as the operator's eigenvalues."""
        lo, hi = arr.min().item(), arr.max().item()
        if not lo > 0.0:
            first = int(np.argmin(arr > 0.0))
            positive_real(f"eigenvalue {first}", arr[first].item())
        arr.flags.writeable = False
        object.__setattr__(self, "eigenvalues", arr)
        object.__setattr__(self, "scale", positive_real("scale", scale))
        # not fields, so equality, repr and the JSON form ignore them
        object.__setattr__(self, "_extremes", (lo, hi))
        object.__setattr__(self, "_logs", None)
        object.__setattr__(self, "_qdets", {})

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_logs": None, "_qdets": {}}

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.eigenvalues, other.eigenvalues)

    def __hash__(self) -> int:
        return hash((self.scale, self.eigenvalues.tobytes()))

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def dimensionless(self) -> np.ndarray:
        """Eigenvalue ratios lambda_k / scale as a read-only array; DomainError
        if a ratio overflows or rounds to 0. The ratio is monotone in lambda,
        so the smallest and the largest eigenvalue decide. At scale 1 the
        ratios are the eigenvalues themselves (x / 1 is exact), and the
        stored array is returned; at any other scale each call divides into
        a new array."""
        if self.scale == 1.0:
            return self.eigenvalues
        lo, hi = self._extremes
        if not (lo / self.scale > 0.0 and hi / self.scale < np.inf):
            raise DomainError(f"a ratio lambda / scale leaves float64 at scale = {self.scale!r}")
        ratios = self.eigenvalues / self.scale
        ratios.flags.writeable = False
        return ratios

    def zeta(self, s: float) -> float:
        """Bare zeta sum_k lambda_k^(-s) of the raw eigenvalues, exactly
        rounded; DomainError if it overflows float64."""
        with np.errstate(all="ignore"):
            terms = self.eigenvalues ** (-s)
        return finite(exact_sum(terms), "finite_diag zeta overflows float64 at s = {!r}", s)

    def jet0(self) -> tuple[float, float]:
        """(zeta(0), zeta'(0)) of the rescaled operator: (N, -sum ln x_k),
        the sum exactly rounded; qdet at q = 1."""
        return float(len(self)), -self.qdet(1.0)

    def qdet(self, q: float) -> float:
        """The determinant sum_k ln_q(x_k) of the ratios x_k = lambda_k / mu
        at the exact q, exactly rounded and unchecked: +-inf where the sum
        leaves float64. DomainError where a ratio does (dimensionless).

        The first call keeps the logs ln x_k (8 bytes per eigenvalue, for
        the operator's lifetime); each q forms its terms from them with
        q_log_array's deformation, so they are q_log_array's bit for bit.
        The sum is kept for up to _QDETS q, and the memo starts afresh
        when full. A DomainError is raised before anything is kept."""
        value = self._qdets.get(q)
        if value is None:
            if self._logs is None:
                logs = np.log(self.dimensionless())
                logs.flags.writeable = False
                object.__setattr__(self, "_logs", logs)
            value = exact_sum(_ln_q_of_log(self._logs, q))
            if len(self._qdets) >= _QDETS:
                self._qdets.clear()
            self._qdets[q] = value
        return value

    def power(self, theta: float) -> FiniteDiag:
        return power_transform(self, theta)


Spectrum = FiniteDiag


def _deltas_for(spec: FiniteDiag, variation) -> np.ndarray:
    arr = finite_vector("variation", variation)
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
    return FiniteDiag._owning(np.concatenate([s.dimensionless() for s in specs]))


def q_logdet(spec: FiniteDiag, q: float) -> float:
    """Deformed log-determinant sum_k ln_q(lambda_k / scale): the
    finite-difference effective action Gamma_q[A] of the operator.

    Each term goes through the stabilised q_log kernel and the terms are
    summed exactly, with one rounding at the end (the same bits as
    math.fsum), so the value is independent of the eigenvalue ordering.
    Inside the classical band |q - 1| < 1e-8 (qalgebra._classical) each
    term is ln: q_logdet is the one function that keeps the band.
    zeta.qdet_zeta takes the same sum, FiniteDiag.qdet, at the exact q, so
    the two agree bit for bit outside the band. A value beyond float64, or
    a ratio lambda / scale beyond it, raises DomainError.

    >>> q_logdet(Spectrum((1.0, 4.0)), 0.0)
    3.0
    """
    q = finite_real("deformation index", q)
    return finite(spec.qdet(1.0 if _classical(q) else q), "q_logdet overflows float64 at q = {!r}", q)


def q_det(spec: FiniteDiag, q: float) -> ClampedValue:
    """Deformed determinant exp_q(Gamma_q), with clamp flag.

    Equals the deformed product of the dimensionless eigenvalues; computed
    through the additive representation so only the final exponential can
    clamp.
    """
    return q_exp(q_logdet(spec, q), q)


def action_variation(spec: FiniteDiag, variation, q: float) -> float:
    """First variation of the action: sum_k (lambda_k/mu)^(-q) dlambda_k/mu.

    This is the exact directional derivative of q_logdet with respect to
    the raw eigenvalues; the deformation enters only through the spectral
    weight (lambda/mu)^(-q). For eigenvalues flowing with rates
    dlambda_k/dtau it is the flow derivative d Gamma_q / d tau. The sum is
    exactly rounded; a value beyond float64 raises DomainError.
    """
    q = finite_real("deformation index", q)
    deltas = _deltas_for(spec, variation)
    with np.errstate(all="ignore"):
        terms = spec.dimensionless() ** (-q)
        terms *= deltas if spec.scale == 1.0 else deltas / spec.scale
    return finite(exact_sum(terms), "action_variation overflows float64 at q = {!r}", q)


# The relative determinant and the theta-covariance residual of a finite
# operator are those of its zeta model, taken at the exact q.
relative_q_logdet = relative_qdet_zeta
theta_covariance_residual = theta_covariance_zeta


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
    try:
        return FiniteDiag._owning(eigs)
    except DomainError:  # an eigenvalue went to inf or to 0
        raise DomainError(f"the power map A^theta leaves float64 at theta = {th!r}") from None


# ---------------------------------------------------------------------------
# serialisation


def spectrum_to_json(spec: FiniteDiag) -> str:
    """JSON form {"eigenvalues": [...], "scale": s}; floats round-trip.

    Byte for byte what json.dumps writes for {"eigenvalues":
    spec.eigenvalues.tolist(), "scale": spec.scale}: each float as its
    repr, items joined by ', '. The eigenvalue list is g17.repr_join's:
    an eigenvalue with at most 15 significant digits and a decimal exponent
    in [-4, 15] (where repr writes fixed notation: '0.0001', '0.05',
    '123.0') is written by an array kernel, with no Python call per value;
    every other one keeps repr(v).
    """
    return f'{{"eigenvalues": [{repr_join(spec.eigenvalues, ", ")}], "scale": {spec.scale!r}}}'


_EIGENVALUES = '"eigenvalues": ['


def _read_eigenvalue_list(text: str):
    """(skeleton, eigenvalues) where spectrum_from_json reads the list
    with read_decimals: the object of the text with the list's items
    deleted, and their values; None for every other text."""
    start = text.find(_EIGENVALUES) + len(_EIGENVALUES)
    if "\\" in text or text.count('"eigenvalues"') != 1 or start < len(_EIGENVALUES):
        return None
    end = text.find("]", start)
    values = read_decimals(text, ", ", start, end, strict=True)
    if values is None:
        return None
    try:
        skeleton = _decode_json(text[:start] + text[end:])
    except DomainError:  # the whole text's json.loads names the error
        return None
    return (skeleton, values) if isinstance(skeleton, dict) and skeleton.get("eigenvalues") == [] else None


def spectrum_from_json(text: str) -> FiniteDiag:
    """Read the JSON form: the finite_diag model, whose 'kind' tag may be
    left out. zeta.model_from_dict checks the fields; malformed JSON, a
    JSON value that is not an object, or one that is tagged with another
    kind, raises DomainError.

    The eigenvalue list of the text json.dumps writes is read by
    g17.read_decimals, with no Python call per value, when its items are
    decimals I.F in JSON's grammar, joined by ', ', each with at most 8
    digits on either side of the point and at most 2^53 as an integer of
    all its digits: there one IEEE division is the correctly rounded read
    that json.loads makes. That takes a text with no backslash (so no
    escaped key), with '"eigenvalues"' once, followed by ': [', and whose
    skeleton, the text with the list's items deleted, is an object whose
    "eigenvalues" is []. Then that key is the one top-level key, and the
    skeleton goes through the same checks as a whole text. Any other text
    is read by json.loads as a whole."""
    obj, values = _read_eigenvalue_list(text) or (_decode_json(text), None)
    if not isinstance(obj, dict) or obj.get("kind", "finite_diag") != "finite_diag":
        raise DomainError("spectrum JSON must be an object with no kind tag other than finite_diag")
    cls, fields = _model_fields({"kind": "finite_diag", **obj})
    if values is not None:
        fields["eigenvalues"] = values
    return cls._owning(**fields)  # json.loads' list or read_decimals' array, both new


def spectrum_to_csv(spec: FiniteDiag) -> str:
    """Single-column CSV of the dimensionless eigenvalues, one '%.17g' per
    line, '\\n' line endings; byte-stable for identical inputs.

    CSV carries no scale field, so the scale is folded in on write and
    reads back as 1.
    """
    return g17_lines(spec.dimensionless())


def spectrum_from_csv(text: str) -> FiniteDiag:
    """One number per line, each read as float() reads it; blank lines are
    skipped and any other line that is not a number raises DomainError.

    A text of decimals I.F, one a line with '\\n' endings and no blank
    line, is read by g17.read_decimals with no Python call per line, when
    each has at most 8 digits on either side of the point and at most 2^53
    as an integer of all its digits: there one IEEE division is the
    correctly rounded read that float() makes. Any other text, the 17
    digits of spectrum_to_csv's own for one, is read line by line."""
    values = read_decimals(text, "\n", 0, len(text) - text.endswith("\n"), strict=False)
    if values is not None:
        return FiniteDiag._owning(values)
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
    return FiniteDiag._owning(values)
