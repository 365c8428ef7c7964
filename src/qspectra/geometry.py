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

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, finite, finite_real, finite_vector, positive_int, positive_real
from .combinatorics import _check_simplex_sum, _entropy_kernel
from .g17 import g17_table
from .qalgebra import exact_row_sums

__all__ = [
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
# R (R + 1) / 2 rows; at R = 1000 building both raises the peak resident
# memory by about 145 MB (144 MB measured with CPython 3.11, numpy 2.4).
# grid_field also keeps the lattices of its last 4 (R, margin) pairs, 26 MB
# each at R = 1000: at worst about 105 MB stays resident after the calls
# (115 MB measured, four margins at R = 1000).
MAX_RESOLUTION = 1000


def _point_array(p, *, on_simplex: bool) -> np.ndarray:
    arr = finite_vector("point", p)
    if not (arr > 0.0).all():
        raise DomainError("point must be strictly interior (all p_i > 0)")
    if on_simplex:
        _check_simplex_sum("coordinates", arr)
    return arr


_OVERFLOW = "the simplex field overflows float64 at q = {!r}"


def _potential_rows(x: np.ndarray, q: float) -> np.ndarray:
    """Phi_q of each row of x (N, m), rows strictly positive."""
    with np.errstate(all="ignore"):
        if q == 2.0:
            phi = -exact_row_sums(np.log(x))
        else:
            s = 2.0 - q
            phi = _entropy_kernel(x, s) / s
    return finite(phi, _OVERFLOW, q)


def _weights(x: np.ndarray, q: float) -> np.ndarray:
    """The Hessian weights p^(-q) of the entries of x, all finite and
    within the normal float64 range (from 2.2e-308)."""
    with np.errstate(all="ignore"):
        w = finite(x ** (-q), _OVERFLOW, q)
    if not (w >= np.finfo(float).tiny).all():
        raise DomainError(f"a metric weight p^(-q) underflows float64 at q = {q!r}")
    return w


def _metric_rows(x: np.ndarray, q: float) -> np.ndarray:
    """The induced metric g of each row of x (N, m), rows strictly
    positive, as an (N, m - 1, m - 1) array."""
    w = _weights(x, q)
    return w[:, :-1, None] * np.eye(x.shape[1] - 1) + w[:, -1:, None]


def _volume_rows(x: np.ndarray, q: float) -> np.ndarray:
    """sqrt(det g) of each row of x (N, m), rows strictly positive.

    By the matrix determinant lemma det g = prod_a p_a^(-q) sum_a p_a^q
    over all m entries, a form symmetric in them. Sorted so that each row
    ends in its largest p^q, it is prod_{a<m} p_a^(-q/2) times
    sqrt(1 + sum_{a<m} (p_a/p_m)^q), where each ratio power is at most 1.
    A volume beyond float64, or below its normal range (2.2e-308, where
    digits are lost), is refused.
    """
    x = np.sort(x, axis=1) if q >= 0.0 else -np.sort(-x, axis=1)
    head, last = x[:, :-1], x[:, -1:]
    with np.errstate(all="ignore"):
        vol = np.prod(head ** (-0.5 * q), axis=1)
        vol *= np.sqrt(1.0 + np.sum((head / last) ** q, axis=1))
    finite(vol, _OVERFLOW, q)
    if not (vol >= np.finfo(float).tiny).all():
        raise DomainError(f"the simplex volume underflows float64 at q = {q!r}")
    return vol


def potential(p, q: float) -> float:
    """Macroscopic potential Phi_q(p) = H_{2-q}(p) / (2 - q).

    At q = 1 this is the Shannon entropy. In q the function has a simple
    pole at q = 2 with residue m - 1; exactly at q = 2 the regularised
    value -sum ln p_i is returned by convention. The formula extends off
    the simplex (only positivity is required), which is what curvature
    checks differentiate; volume_element and induced_metric enforce
    simplex membership. A value beyond float64 raises DomainError.

    >>> potential((0.5, 0.5), 0.0)
    0.25
    """
    arr = _point_array(p, on_simplex=False)
    return float(_potential_rows(arr[None, :], finite_real("deformation index", q))[0])


def potential_hessian(p, q: float) -> np.ndarray:
    """Hessian of the potential in unconstrained coordinates:
    diag(-p_i^(-q)). A weight beyond float64, or below its normal range
    (2.2e-308), raises DomainError."""
    return np.diag(-_weights(_point_array(p, on_simplex=False), finite_real("deformation index", q)))


def _simplex_point(p) -> np.ndarray:
    arr = _point_array(p, on_simplex=True)
    if arr.size < 2:
        raise DomainError("induced metric needs at least two outcomes")
    return arr


def induced_metric(p, q: float) -> np.ndarray:
    """Metric on the simplex interior in coordinates xi_a = p_a, a < m.

    g_ab = p_a^(-q) delta_ab + p_m^(-q); symmetric positive definite for
    every interior point and every real q. A weight p_a^(-q) beyond
    float64, or below its normal range (2.2e-308, where a zero or
    subnormal weight would make g singular or lose digits), raises
    DomainError.

    >>> induced_metric((0.5, 0.5), 0.0)
    array([[2.]])
    """
    return _metric_rows(_simplex_point(p)[None, :], finite_real("deformation index", q))[0]


def volume_element(p, q: float) -> float:
    """Riemannian volume element sqrt(det g) of the induced metric.

    Closed form by the matrix determinant lemma, the same row kernel
    grid_field applies to a whole lattice. Against mpmath, for m = 2..5 and
    points down to 1e-3 from the boundary, the relative error measured is
    at most 7e-16 for |q| <= 20, 1.0e-15 at |q| = 40 and 2.2e-15 at
    |q| = 100: each ratio p_a/p_m is rounded once and then raised to the
    power q, which adds about |q| 2.5e-17. At q = 0 the value is sqrt(m)
    exactly. No intermediate leaves float64 before the volume does, so
    the only refusals (DomainError) are a volume beyond float64 and, for
    q < 0, one below its normal range (2.2e-308).

    >>> volume_element((0.5, 0.5), 0.0)
    1.4142135623730951
    """
    return float(_volume_rows(_simplex_point(p)[None, :], finite_real("deformation index", q))[0])


@dataclass(frozen=True)
class MetricField:
    """Potential and volume element sampled over simplex points.

    points holds N rows (p1, p2, p3), aligned row by row with the N
    entries of phi and volume, all finite; treat instances as immutable.
    """

    points: np.ndarray
    phi: np.ndarray
    volume: np.ndarray
    q: float
    # the CSV table as _csv_columns returns it, set by grid_field on the
    # fields it builds; not an argument, so dataclasses.replace drops it and
    # _csv_columns builds the table from the arrays
    _columns: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.shape(self.points)[1:] != (3,):
            raise DomainError("field points must be rows of three coordinates")
        if not (len(self.points) == len(self.phi) == len(self.volume)):
            raise DomainError("field arrays must have equal length")
        if len(self.points) == 0:
            raise DomainError("field must contain at least one point")
        # the writers print every value, and JSON has no nan or inf
        for name in ("points", "phi", "volume"):
            finite(getattr(self, name), "field {} must be finite", name)
        if not np.all(self.volume > 0.0):
            raise DomainError("volume elements must be positive")

    def __len__(self) -> int:
        return len(self.points)


class _Lattice(NamedTuple):
    """What grid_field computes from (R, margin) alone; arrays read-only."""

    points: np.ndarray  # (N, 3) the kept lattice points, in lexicographic order
    orbit: np.ndarray  # (N,) int32 the orbit number of each row
    firsts: np.ndarray  # (orbits, 3) each orbit's point with i <= j <= k
    fractions: np.ndarray  # (R,) the coordinates i / (R + 2), i = 1 .. R
    index: np.ndarray  # (N, 5) int32 CSV gather index into [fractions x3, phi, volume]


# grid_field keeps the lattices of the last _LATTICES (R, margin) pairs it
# was called with, so a scan over q at a few resolutions builds each once
_LATTICES = 4


@functools.lru_cache(maxsize=_LATTICES)
def _lattice(resolution: int, margin: float) -> _Lattice:
    total = resolution + 2
    first = np.arange(1, total - 1)
    # row block i holds j = 1 .. total - 1 - i
    counts = total - 1 - first
    i = np.repeat(first, counts)
    j = np.arange(1, i.size + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    k = total - i - j
    # min p = min(i, j, k) / total exactly, since division by total is monotone
    low = np.minimum(np.minimum(i, j), k)
    keep = low / total >= margin
    if not keep.any():
        raise DomainError("margin excludes every lattice point")
    parts = (i[keep], j[keep], k[keep])
    points = np.column_stack(parts) / total
    # the smallest and largest part name the orbit of (i, j, k) under
    # permutation; orbits are numbered in the order of that key, and the
    # first row of each in lexicographic order is its one with i <= j <= k
    key = (low * total + np.maximum(np.maximum(i, j), k))[keep]
    seen = np.zeros(total * total, dtype=bool)
    seen[key] = True
    orbit = (np.cumsum(seen, dtype=np.int32) - 1)[key]
    firsts = np.flatnonzero(((i <= j) & (j <= k))[keep])
    first_row = np.empty_like(firsts)
    first_row[orbit[firsts]] = firsts
    # a point cell is the fraction of its part, by the division that made
    # points; phi and sqrt_det_g cells are the values of the row's orbit.
    # Parts stay below MAX_RESOLUTION + 2 and orbits number fewer than R^2,
    # so every offset index fits int32
    index = np.empty((len(points), 5), dtype=np.int32)
    for column, part in enumerate(parts):
        np.add(part, column * resolution - 1, out=index[:, column], casting="unsafe")
    np.add(orbit, 3 * resolution, out=index[:, 3])
    np.add(index[:, 3], len(first_row), out=index[:, 4])
    lattice = _Lattice(points, orbit, points[first_row], first / total, index)
    for array in lattice:
        array.flags.writeable = False
    return lattice


def grid_field(resolution: int, q: float, margin: float) -> MetricField:
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
    one array. The row kernels of potential and volume_element run once
    per orbit of the parts (i, j, k) under permutation, about one row in
    six, and each value is copied to every row of its orbit. The orbits
    are counted, not sorted: a flag table over the key (smallest part,
    largest part) and its running sum number them in key order, and each
    is evaluated at its first row, the one with i <= j <= k. Copying is
    exact: the rows of an orbit are permutations of the same three floats,
    _volume_rows sorts each row before it computes, and _potential_rows is
    elementwise log and expm1 followed by an exactly rounded row sum
    (exact_row_sums, math.fsum's value), so either kernel returns the same
    bits for every permutation. Each row thus equals the pointwise call
    bit for bit and carries the accuracy stated there. A field beyond
    float64 at this q raises DomainError.

    Everything but the two kernels depends on (R, margin) alone: the
    points, the orbit numbering and the CSV gather index. That part is
    cached, read-only, for the last 4 distinct (R, margin) pairs, keyed on
    the validated R and margin; each call returns its own copy of the
    points. An entry holds 52 bytes a row: 2.4 MB at R = 300 and 26 MB at
    R = 1000. Time and memory grow as O(R^2); the bound on R keeps memory
    to a few hundred MB.
    """
    resolution = positive_int("resolution", resolution)
    if resolution > MAX_RESOLUTION:
        raise DomainError(f"resolution must be <= {MAX_RESOLUTION}, got {resolution}")
    margin = positive_real("margin", margin)
    q = finite_real("deformation index", q)
    lattice = _lattice(resolution, margin)
    phi = _potential_rows(lattice.firsts, q)
    vol = _volume_rows(lattice.firsts, q)
    field = MetricField(lattice.points.copy(), phi[lattice.orbit], vol[lattice.orbit], q)
    object.__setattr__(field, "_columns", ((lattice.fractions,) * 3 + (phi, vol), lattice.index))
    return field


# ---------------------------------------------------------------------------
# serialisation

_FIELD_COLUMNS = ("p1", "p2", "p3", "phi", "sqrt_det_g")


def _field_table(field: MetricField) -> np.ndarray:
    return np.column_stack([field.points, field.phi, field.volume])


def _csv_columns(field: MetricField) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The CSV table as (floats, index): one float array per column, and an
    (N, 5) index into their concatenation, row r's cells being
    np.concatenate(floats)[index[r]]. A field from grid_field carries its
    lattice fractions, its orbit values and its lattice's index; any other
    field passes its five columns with the identity index."""
    if field._columns is not None:
        return field._columns
    table = _field_table(field)
    return tuple(table.T), np.arange(table.size).reshape(5, -1).T


def field_to_csv(field: MetricField) -> str:
    """CSV with columns p1,p2,p3,phi,sqrt_det_g, one '%.17g' per cell,
    '\\n' line endings; byte-stable for identical inputs. g17.g17_table
    writes the rows, formatting each float of the field's columns once:
    for a grid_field result, the lattice fractions of the point columns
    and one phi and sqrt_det_g per permutation orbit."""
    return g17_table(",".join(_FIELD_COLUMNS) + "\n", *_csv_columns(field))


def field_to_json(field: MetricField) -> str:
    """JSON array of row objects keyed like the CSV columns."""
    return json.dumps([dict(zip(_FIELD_COLUMNS, r)) for r in _field_table(field).tolist()])
