"""Deformed information geometry on the probability simplex.

The macroscopic potential Phi_q(p) = H_{2-q}(p) / (2 - q) generates a
diagonal Hessian -p_i^(-q); eliminating the normalisation constraint
through p_m = 1 - sum_{a<m} p_a induces the Riemannian metric

    g_ab = p_a^(-q) delta_ab + p_m^(-q),   a, b = 1 .. m-1,

whose volume element sqrt(det g) measures how strongly the deformation
concentrates geometry near the simplex boundary. grid_field samples the
potential and volume element over an interior barycentric lattice of the
ternary (m = 3) simplex, ready for ternary plotting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, finite_vector, positive_int, positive_real
from .combinatorics import _check_simplex_sum, _entropy_kernel
from .qalgebra import QLike, QParam, as_qparam

__all__ = [
    "SimplexPoint",
    "MetricField",
    "potential",
    "potential_hessian",
    "induced_metric",
    "volume_element",
    "grid_field",
    "field_to_csv",
    "field_to_json",
]

# Largest grid_field resolution: the field and its CSV text hold
# R (R + 1) / 2 rows, about 250 MB of working memory at R = 1000.
MAX_RESOLUTION = 1000


@dataclass(frozen=True)
class SimplexPoint:
    """Strictly interior point of the probability simplex."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = _point_array(self.p, on_simplex=True)
        object.__setattr__(self, "p", tuple(arr.tolist()))


def _point_array(p, *, on_simplex: bool) -> np.ndarray:
    if isinstance(p, SimplexPoint):
        return np.asarray(p.p, dtype=float)
    arr = finite_vector("point", p)
    if not (arr > 0.0).all():
        raise DomainError("point must be strictly interior (all p_i > 0)")
    if on_simplex:
        _check_simplex_sum("coordinates", arr)
    return arr


def _overflow(q: float) -> DomainError:
    return DomainError(f"the simplex field overflows float64 at q = {q!r}")


def _potential_rows(x: np.ndarray, qp: QParam) -> np.ndarray:
    """Phi_q of each row of x (N, m), rows strictly positive."""
    with np.errstate(all="ignore"):
        if qp.q == 2.0:
            phi = -np.array([math.fsum(row) for row in np.log(x).tolist()])
        else:
            s = 2.0 - qp.q
            phi = _entropy_kernel(x, QParam(s)) / s
    if not np.isfinite(phi).all():
        raise _overflow(qp.q)
    return phi


def _metric_rows(x: np.ndarray, q: float) -> np.ndarray:
    """Stacked induced metrics (N, m-1, m-1) of the rows of x (N, m)."""
    with np.errstate(all="ignore"):
        weights = x ** (-q)
    if not np.isfinite(weights).all():
        raise _overflow(q)
    n, m = x.shape
    g = np.empty((n, m - 1, m - 1))
    g[...] = weights[:, -1, None, None]
    # the diagonal of each block is every m-th entry of its flattened row
    g.reshape(n, -1)[:, ::m] += weights[:, :-1]
    return g


def _volume_rows(x: np.ndarray, q: float) -> np.ndarray:
    """sqrt(det g) of each row of x (N, m): one batched slogdet."""
    sign, logdet = np.linalg.slogdet(_metric_rows(x, q))
    if not (sign > 0.0).all():
        raise DomainError("induced metric lost positive definiteness")
    try:
        return np.array([math.exp(0.5 * v) for v in logdet.tolist()])
    except OverflowError:
        raise _overflow(q) from None


def potential(p, q: QLike) -> float:
    """Macroscopic potential Phi_q(p) = H_{2-q}(p) / (2 - q).

    At q = 1 this is the Shannon entropy. In q the function has a simple
    pole at q = 2 with residue m - 1; exactly at q = 2 the regularised
    value -sum ln p_i is returned by convention. The formula extends off
    the simplex (only positivity is required), which is what curvature
    checks differentiate; simplex membership is enforced when a
    SimplexPoint is passed. A value beyond float64 raises DomainError.

    >>> potential((0.5, 0.5), 0.0)
    0.25
    """
    arr = _point_array(p, on_simplex=False)
    return float(_potential_rows(arr[None, :], as_qparam(q))[0])


def potential_hessian(p, q: QLike) -> np.ndarray:
    """Hessian of the potential in unconstrained coordinates:
    diag(-p_i^(-q))."""
    arr = _point_array(p, on_simplex=False)
    qp = as_qparam(q)
    return np.diag(-(arr ** (-qp.q)))


def _simplex_row(p) -> np.ndarray:
    arr = _point_array(p, on_simplex=True)
    if arr.size < 2:
        raise DomainError("induced metric needs at least two outcomes")
    return arr[None, :]


def induced_metric(p, q: QLike) -> np.ndarray:
    """Metric on the simplex interior in coordinates xi_a = p_a, a < m.

    g_ab = p_a^(-q) delta_ab + p_m^(-q); symmetric positive definite for
    every interior point and every real q. A weight p_a^(-q) beyond
    float64 raises DomainError.

    >>> induced_metric((0.5, 0.5), 0.0)
    array([[2.]])
    """
    return _metric_rows(_simplex_row(p), as_qparam(q).q)[0]


def volume_element(p, q: QLike) -> float:
    """Riemannian volume element sqrt(det g) of the induced metric.

    Evaluated through slogdet, the same batched call grid_field makes for
    a whole lattice. It is compared with the rank-one determinant update
    prod_{a<m} p_a^(-q) (1 + p_m^(-q) sum_{a<m} p_a^q). The elimination
    cancels where the weight p_m^(-q) dominates, with a relative error
    near 1e-16 p_m^(-q) / max_{a<m} p_a^(-q). On the margin-1e-3 lattices
    up to R = 1000 the two agree to better than 1e-10 relative for
    |q| <= 2.5; on R = 300 the error is 2.5e-8 at q = 4 and 5e-4 at
    q = 6, and from about |q| = 10 the metric is refused as not positive
    definite. A weight p_a^(-q) or a volume beyond float64 raises
    DomainError.
    """
    return float(_volume_rows(_simplex_row(p), as_qparam(q).q)[0])


@dataclass(frozen=True)
class MetricField:
    """Potential and volume element sampled over simplex points.

    Arrays are aligned row by row; treat instances as immutable.
    """

    points: np.ndarray
    phi: np.ndarray
    volume: np.ndarray
    q: QParam

    def __post_init__(self) -> None:
        if not (len(self.points) == len(self.phi) == len(self.volume)):
            raise DomainError("field arrays must have equal length")
        if len(self.points) == 0:
            raise DomainError("field must contain at least one point")
        if not np.all(self.volume > 0.0):
            raise DomainError("volume elements must be positive")

    def __len__(self) -> int:
        return len(self.points)


def grid_field(resolution: int, q: QLike, margin: float) -> MetricField:
    """Sample Phi_q and sqrt(det g) on the interior lattice of the ternary
    simplex.

    Parameters
    ----------
    resolution : lattice refinement 1 <= R <= 1000. Points sit at integer
        barycentric parts (i, j, k) / (R + 2) with i, j, k >= 1, so R = 1
        yields the centroid alone and larger R refine toward (but never
        touch) the boundary.
    q : deformation index.
    margin : positive lower bound on min_i p_i; lattice points closer to
        the boundary are dropped. Required because the metric diverges on
        the boundary itself.

    Rows follow lexicographic (i, j) order, which fixes the file layout of
    the exported field byte for byte. All R (R + 1) / 2 points are held as
    one array and evaluated by the same row kernels as potential and
    volume_element (one batched slogdet for the volumes), so time and
    memory grow as O(R^2); the bound on R keeps memory to a few hundred MB.
    A field beyond float64 at this q raises DomainError.
    """
    resolution = positive_int("resolution", resolution)
    if resolution > MAX_RESOLUTION:
        raise DomainError(f"resolution must be <= {MAX_RESOLUTION}, got {resolution}")
    margin = positive_real("margin", margin)
    qp = as_qparam(q)
    total = resolution + 2
    first = np.arange(1, total - 1)
    i = np.repeat(first, total - 1 - first)
    j = np.concatenate([np.arange(1, total - a) for a in first.tolist()])
    points = np.column_stack([i, j, total - i - j]) / total
    points = points[points.min(axis=1) >= margin]
    if not len(points):
        raise DomainError("margin excludes every lattice point")
    phi = _potential_rows(points, qp)
    vol = _volume_rows(points, qp.q)
    return MetricField(points, phi, vol, qp)


# ---------------------------------------------------------------------------
# serialisation

_FIELD_COLUMNS = ("p1", "p2", "p3", "phi", "sqrt_det_g")


def _field_rows(field: MetricField) -> list[list[float]]:
    return np.column_stack([field.points, field.phi, field.volume]).tolist()


def field_to_csv(field: MetricField) -> str:
    """CSV with columns p1,p2,p3,phi,sqrt_det_g, 17 significant digits,
    '\\n' line endings; byte-stable for identical inputs."""
    row = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
    header = ",".join(_FIELD_COLUMNS) + "\n"
    return header + "".join([row % tuple(r) for r in _field_rows(field)])


def field_to_json(field: MetricField) -> str:
    """JSON array of row objects keyed like the CSV columns."""
    return json.dumps([dict(zip(_FIELD_COLUMNS, r)) for r in _field_rows(field)])
