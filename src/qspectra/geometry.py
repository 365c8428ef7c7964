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

from .errors import DomainError
from .combinatorics import _SIMPLEX_TOL, _entropy_kernel
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


@dataclass(frozen=True)
class SimplexPoint:
    """Strictly interior point of the probability simplex."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if not self.p:
            raise DomainError("simplex point needs at least one coordinate")
        if any(not math.isfinite(v) or v <= 0.0 for v in self.p):
            raise DomainError(
                "simplex point must be strictly interior (all p_i > 0)"
            )
        total = math.fsum(self.p)
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise DomainError(f"coordinates sum to {total!r}, expected 1")


def _point_array(p, *, on_simplex: bool) -> np.ndarray:
    if isinstance(p, SimplexPoint):
        return np.asarray(p.p, dtype=float)
    arr = np.asarray(tuple(float(v) for v in p), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("point must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise DomainError("point must have finite, strictly positive entries")
    if on_simplex and abs(math.fsum(arr) - 1.0) > _SIMPLEX_TOL:
        raise DomainError(
            f"point must lie on the simplex, coordinates sum to {math.fsum(arr)!r}"
        )
    return arr


def potential(p, q: QLike) -> float:
    """Macroscopic potential Phi_q(p) = H_{2-q}(p) / (2 - q).

    At q = 1 this is the Shannon entropy. In q the function has a simple
    pole at q = 2 with residue m - 1; exactly at q = 2 the regularised
    value -sum ln p_i is returned by convention. The formula extends off
    the simplex (only positivity is required), which is what curvature
    checks differentiate; simplex membership is enforced when a
    SimplexPoint is passed.

    >>> potential((0.5, 0.5), 0.0)
    0.25
    """
    arr = _point_array(p, on_simplex=False)
    qp = as_qparam(q)
    if qp.q == 2.0:
        return -math.fsum(np.log(arr))
    s = 2.0 - qp.q
    return _entropy_kernel(arr, s, qp.near_one_eps) / s


def potential_hessian(p, q: QLike) -> np.ndarray:
    """Hessian of the potential in unconstrained coordinates:
    diag(-p_i^(-q))."""
    arr = _point_array(p, on_simplex=False)
    qp = as_qparam(q)
    return np.diag(-(arr ** (-qp.q)))


def induced_metric(p, q: QLike) -> np.ndarray:
    """Metric on the simplex interior in coordinates xi_a = p_a, a < m.

    g_ab = p_a^(-q) delta_ab + p_m^(-q); symmetric positive definite for
    every interior point and every real q.

    >>> induced_metric((0.5, 0.5), 0.0)
    array([[2.]])
    """
    arr = _point_array(p, on_simplex=True)
    if arr.size < 2:
        raise DomainError("induced metric needs at least two outcomes")
    weights = arr ** (-as_qparam(q).q)
    g = np.full((arr.size - 1, arr.size - 1), weights[-1], dtype=float)
    idx = np.arange(arr.size - 1)
    g[idx, idx] += weights[:-1]
    return g


def volume_element(p, q: QLike) -> float:
    """Riemannian volume element sqrt(det g) of the induced metric.

    Evaluated through slogdet; agrees with the rank-one determinant update
    prod_{a<m} p_a^(-q) (1 + p_m^(-q) sum_{a<m} p_a^q) to better than
    1e-10 relative.
    """
    g = induced_metric(p, q)
    sign, logdet = np.linalg.slogdet(g)
    if sign <= 0.0:
        raise DomainError("induced metric lost positive definiteness")
    return float(math.exp(0.5 * logdet))


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


def grid_field(resolution: int, q: QLike, margin: float, m: int = 3) -> MetricField:
    """Sample Phi_q and sqrt(det g) on the interior lattice of the ternary
    simplex.

    Parameters
    ----------
    resolution : lattice refinement R >= 1. Points sit at integer
        barycentric parts (i, j, k) / (R + 2) with i, j, k >= 1, so R = 1
        yields the centroid alone and larger R refine toward (but never
        touch) the boundary.
    q : deformation index.
    margin : positive lower bound on min_i p_i; lattice points closer to
        the boundary are dropped. Required because the metric diverges on
        the boundary itself.
    m : number of outcomes; only the ternary case m = 3 is gridded.

    Rows follow lexicographic (i, j) order, which fixes the file layout of
    the exported field byte for byte.
    """
    if m != 3:
        raise DomainError("gridded sampling supports m = 3 only")
    resolution = int(resolution)
    if resolution < 1:
        raise DomainError(f"resolution must be >= 1, got {resolution}")
    margin = float(margin)
    if not margin > 0.0:
        raise DomainError(
            "margin must be positive: the boundary itself is singular"
        )
    qp = as_qparam(q)
    total = resolution + 2
    pts: list[tuple[float, float, float]] = []
    for i in range(1, total - 1):
        for j in range(1, total - i):
            k = total - i - j
            p = (i / total, j / total, k / total)
            if min(p) >= margin:
                pts.append(p)
    if not pts:
        raise DomainError("margin excludes every lattice point")
    points = np.asarray(pts, dtype=float)
    phi = np.asarray([potential(row, qp) for row in points])
    vol = np.asarray([volume_element(row, qp) for row in points])
    return MetricField(points, phi, vol, qp)


# ---------------------------------------------------------------------------
# serialisation

_FIELD_COLUMNS = ("p1", "p2", "p3", "phi", "sqrt_det_g")


def field_to_csv(field: MetricField) -> str:
    """CSV with columns p1,p2,p3,phi,sqrt_det_g, 17 significant digits,
    '\\n' line endings; byte-stable for identical inputs."""
    lines = [",".join(_FIELD_COLUMNS)]
    for row, phi, vol in zip(field.points, field.phi, field.volume):
        cells = [f"{v:.17g}" for v in (*row, phi, vol)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def field_to_json(field: MetricField) -> str:
    """JSON array of row objects keyed like the CSV columns."""
    rows = [
        {
            "p1": float(row[0]),
            "p2": float(row[1]),
            "p3": float(row[2]),
            "phi": float(phi),
            "sqrt_det_g": float(vol),
        }
        for row, phi, vol in zip(field.points, field.phi, field.volume)
    ]
    return json.dumps(rows)
