import dataclasses
import hashlib
import itertools
import json
import math

import mpmath as mp
import numpy as np
import pytest

from qspectra.errors import DomainError
from qspectra.geometry import (
    _LATTICES,
    MAX_RESOLUTION,
    MetricField,
    _csv_columns,
    _lattice,
    _metric_rows,
    _potential_rows,
    field_to_csv,
    field_to_json,
    grid_field,
    induced_metric,
    potential,
    potential_hessian,
    volume_element,
)

UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)


def test_simplex_point_validation():
    volume_element((0.2, 0.3, 0.5), 1.0)
    with pytest.raises(DomainError, match="coordinates sum to"):
        volume_element((0.5, 0.5, 0.1), 1.0)
    with pytest.raises(DomainError, match="strictly interior"):
        volume_element((1.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="at least one entry"):
        volume_element((), 1.0)


def test_potential_values():
    assert potential((0.5, 0.5), 0.0) == pytest.approx(0.25, rel=1e-15)
    assert potential((0.5, 0.5), 1.0) == pytest.approx(math.log(2), rel=1e-14)
    # frozen: H_0.6(0.2, 0.3, 0.5) / 0.6 at 40 digits
    assert potential((0.2, 0.3, 0.5), 1.4) == pytest.approx(
        2.1919921581659443, rel=1e-14
    )


def test_potential_q2_convention_and_pole():
    assert potential(UNIFORM3, 2.0) == pytest.approx(3 * math.log(3), rel=1e-14)
    # simple pole at q = 2 with residue m - 1
    for q in (2.0 - 1e-6, 2.0 + 1e-6):
        assert (2.0 - q) * potential(UNIFORM3, q) == pytest.approx(2.0, abs=1e-5)


def test_potential_extends_off_simplex():
    # curvature checks differentiate through unnormalised points
    val = potential((0.4, 0.4), 0.5)
    assert math.isfinite(val)
    with pytest.raises(DomainError):
        potential((0.5, -0.5), 0.5)


@pytest.mark.parametrize("q", (0.0, 0.5, 1.0, 1.0 + 5e-9, 1.4, 2.0, 2.5))
def test_potential_rows_equal_pointwise_calls(q):
    # rows of widths 2 to 5 off the simplex, as the battery's stencil rows
    # are; widths other than 3 take exact_row_sums' per-row route
    rng = np.random.default_rng(11)
    for m in range(2, 6):
        rows = rng.uniform(0.05, 0.6, (40, m))
        pointwise = np.array([potential(row, q) for row in rows])
        assert np.array_equal(_potential_rows(rows, q).view(np.uint64), pointwise.view(np.uint64))


def test_potential_hessian_diagonal():
    p = (0.2, 0.3, 0.5)
    h = potential_hessian(p, 1.4)
    assert h.shape == (3, 3)
    assert np.allclose(h, np.diag(np.asarray(p) ** -1.4 * -1.0), rtol=1e-14)
    assert h[0, 1] == 0.0


@pytest.mark.parametrize("q", (0.0, 0.5, 1.0, 1.4, 1.9))
def test_potential_hessian_matches_finite_differences(q):
    rng = np.random.default_rng(19)
    h = 1e-4
    for _ in range(8):
        m = int(rng.choice((2, 3, 4)))
        p = rng.dirichlet(np.full(m, 5.0))
        if p.min() < 0.05:
            continue
        analytic = potential_hessian(p, q)
        for i in range(m):
            ei = np.zeros(m)
            ei[i] = h
            fd = (
                potential(p + ei, q) - 2 * potential(p, q) + potential(p - ei, q)
            ) / h**2
            assert fd == pytest.approx(analytic[i, i], rel=1e-5)


@pytest.mark.parametrize("q", (-2.0, 0.0, 0.7, 1.4, 2.5))
def test_metric_rows_equal_pointwise_calls(q):
    # the grid of the battery's positive-definiteness check, and rows of
    # widths 2 to 5 on the simplex; each matrix is diag(w[:-1]) + w[-1]
    # of its row's weights w = p^(-q), bit for bit
    rng = np.random.default_rng(12)
    for rows in (grid_field(20, 1.4, 1e-3).points, *(rng.dirichlet(np.ones(m), 40) for m in range(2, 6))):
        pointwise = np.stack([induced_metric(row, q) for row in rows])
        built = np.stack([np.diag(w[:-1]) + w[-1] for w in rows ** -q])
        assert _metric_rows(rows, q).tobytes() == pointwise.tobytes() == built.tobytes()


def test_induced_metric_m2():
    assert induced_metric((0.5, 0.5), 0.0).tolist() == [[2.0]]


def test_induced_metric_structure():
    p = (0.2, 0.3, 0.5)
    q = 1.4
    g = induced_metric(p, q)
    w = np.asarray(p) ** -q
    want = np.diag(w[:2]) + w[2]
    assert np.allclose(g, want, rtol=1e-14)
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_induced_metric_equals_projected_hessian():
    rng = np.random.default_rng(31)
    for _ in range(8):
        m = int(rng.choice((2, 3, 4)))
        p = rng.dirichlet(np.full(m, 5.0))
        jac = np.vstack([np.eye(m - 1), -np.ones(m - 1)])
        for q in (0.0, 0.7, 1.4, 2.2):
            g = induced_metric(p, q)
            built = -jac.T @ potential_hessian(p, q) @ jac
            assert np.max(np.abs(g - built)) <= 1e-12


def test_text_is_not_read_as_a_point():
    # "123" iterates as the characters "1", "2", "3", and "1" as (1.0,)
    for text in ("123", "1", b"1"):
        for fn in (potential, potential_hessian, induced_metric, volume_element):
            with pytest.raises(DomainError):
                fn(text, 1.0)


def test_overflow_is_refused_not_returned():
    with pytest.raises(DomainError, match="overflows float64"):
        potential(UNIFORM3, 2000.0)
    with pytest.raises(DomainError, match="overflows float64"):
        volume_element(UNIFORM3, 2000.0)
    with pytest.raises(DomainError, match="overflows float64"):
        grid_field(60, 400.0, 1e-3)
    with pytest.raises(DomainError, match="overflows float64"):
        potential_hessian(UNIFORM3, 2000.0)
    # sqrt(3) (1/3)^660 ~ 2e-315 is subnormal: digits are lost, so it is refused
    with pytest.raises(DomainError, match="underflows float64"):
        volume_element(UNIFORM3, -660.0)
    # (1/3)^1400 ~ 1e-668 rounds to 0: the metric would be the zero matrix
    with pytest.raises(DomainError, match="underflows float64"):
        induced_metric(UNIFORM3, -1400.0)
    with pytest.raises(DomainError, match="underflows float64"):
        potential_hessian(UNIFORM3, -1400.0)


def test_potential_row_sum_overflow_is_refused():
    # off the simplex each term of (0.9, 0.9, 0.9) stays finite while their
    # sum overflows: the row sum gives inf, refused, not fsum's OverflowError
    with pytest.raises(DomainError, match="overflows float64"):
        potential((0.9, 0.9, 0.9), 6732.0)
    assert math.isfinite(potential((0.9, 0.9, 0.9), 6000.0))


def test_induced_metric_rejects_bad_points():
    with pytest.raises(DomainError):
        induced_metric((0.5, 0.6), 1.0)
    with pytest.raises(DomainError):
        induced_metric((1.0,), 1.0)


def test_volume_element_values():
    # uniform ternary point: det g = 3^(2q) * 3 evaluated at q = 1.4
    assert volume_element(UNIFORM3, 1.4) == pytest.approx(
        8.06362613856686, rel=1e-12
    )
    assert volume_element((0.5, 0.5), 0.0) == pytest.approx(
        math.sqrt(2), rel=1e-13
    )
    assert volume_element(UNIFORM3, 0.0) == pytest.approx(
        math.sqrt(3), rel=1e-13
    )
    # frozen rank-one determinant at 40 digits
    assert volume_element((0.2, 0.3, 0.5), 1.4) == pytest.approx(
        9.524351882541586, rel=1e-12
    )


def test_volume_element_matches_rank_one_formula():
    rng = np.random.default_rng(37)
    for _ in range(10):
        m = int(rng.choice((2, 3, 4, 5)))
        p = rng.dirichlet(np.ones(m))
        for q in (0.0, 0.7, 1.4):
            w = p**-q
            det = np.prod(w[:-1]) * (1.0 + w[-1] * np.sum(1.0 / w[:-1]))
            assert volume_element(p, q) == pytest.approx(
                math.sqrt(det), rel=1e-10
            )


def _mp_volume(p, q):
    """sqrt(det g) of the full (m-1) x (m-1) metric, in 400-digit arithmetic:
    at 50 digits the determinant cancels to 0 at q = -40."""
    with mp.workdps(400):
        w = [mp.mpf(x) ** -mp.mpf(q) for x in p]
        g = mp.matrix(len(p) - 1)
        for a in range(len(p) - 1):
            for b in range(len(p) - 1):
                g[a, b] = w[-1] + (w[a] if a == b else 0)
        return mp.sqrt(mp.det(g))


def _volume_points():
    rng = np.random.default_rng(43)
    eps = 1e-3
    for m in (2, 3, 4, 5):
        for _ in range(4):
            yield tuple(rng.dirichlet(np.ones(m)).tolist())
        rest = (1 - eps) / (m - 1)
        yield (eps,) * (m - 1) + (1 - (m - 1) * eps,)
        yield (rest,) * (m - 1) + (eps,)
        yield (eps,) + (rest,) * (m - 1)


@pytest.mark.parametrize("q", (-40.0, -6.0, 0.0, 1.4, 4.0, 6.0, 10.0, 12.0, 40.0))
def test_volume_element_against_mpmath_determinant(q):
    for p in _volume_points():
        exact = _mp_volume(p, q)
        assert abs(volume_element(p, q) - exact) <= 1e-15 * exact


def test_boundary_enhancement():
    eps = 1e-3
    edge = volume_element((eps, (1 - eps) / 2, (1 - eps) / 2), 1.4)
    centre = volume_element(UNIFORM3, 1.4)
    assert edge > 10 * centre


def test_grid_field_centroid_row():
    field = grid_field(1, 1.4, 1e-3)
    assert len(field) == 1
    assert field.points[0].tolist() == pytest.approx(list(UNIFORM3), rel=1e-15)
    assert field.volume[0] == pytest.approx(8.06362613856686, rel=1e-12)


def test_grid_field_counts_and_margin():
    # R(R+1)/2 interior lattice points; margin 1e-3 excludes none at R=60
    field = grid_field(60, 1.4, 1e-3)
    assert len(field) == 1830
    assert float(field.points.min()) == pytest.approx(1 / 62, rel=1e-15)
    # a margin wider than the lattice spacing drops boundary bands
    trimmed = grid_field(60, 1.4, 0.1)
    assert len(trimmed) < 1830
    assert float(trimmed.points.min()) >= 0.1


def test_grid_field_ordering_is_lexicographic():
    field = grid_field(3, 1.0, 1e-6)
    pts = field.points
    keys = [(round(r[0], 12), round(r[1], 12)) for r in pts]
    assert keys == sorted(keys)


def test_grid_field_flat_at_q0():
    field = grid_field(25, 0.0, 1e-3)
    assert float(np.var(field.volume)) <= 1e-20
    assert field.volume[0] == pytest.approx(math.sqrt(3), rel=1e-14)


def test_grid_field_rejections():
    with pytest.raises(DomainError):
        grid_field(0, 1.4, 1e-3)
    with pytest.raises(DomainError):
        grid_field(10.5, 1.4, 1e-3)
    with pytest.raises(DomainError):
        grid_field(10, 1.4, 0.0)
    with pytest.raises(DomainError):
        grid_field(10, 1.4, 0.4)  # excludes every lattice point
    with pytest.raises(DomainError):
        grid_field(MAX_RESOLUTION + 1, 1.4, 1e-3)


@pytest.mark.parametrize("resolution", (1, 7, 25, 60))
@pytest.mark.parametrize("q", (-1.5, 0.0, 0.5, 1.0, 1.0 + 1e-10, 1.4, 2.0, 3.0))
def test_grid_field_rows_equal_pointwise_calls(resolution, q):
    # margin 0.05 drops the rows nearest the boundary from R = 25 on
    for margin in (1e-3, 0.05):
        field = grid_field(resolution, q, margin)
        phi = [potential(row, q) for row in field.points]
        vol = [volume_element(row, q) for row in field.points]
        assert np.array_equal(field.phi, phi)
        assert np.array_equal(field.volume, vol)


@pytest.mark.parametrize("resolution", (1, 2, 7, 60, 300))
@pytest.mark.parametrize("margin", (1e-3, 0.05))
def test_grid_field_columns_decode_to_its_arrays(resolution, margin):
    # the CSV writer reads grid_field's own encoding of its columns: lattice
    # fractions by part and orbit values by orbit, through one gather index
    field = grid_field(resolution, 1.3, margin)
    floats, index = _csv_columns(field)
    decoded = np.concatenate(floats)[index]
    table = np.column_stack([field.points, field.phi, field.volume])
    assert np.array_equal(decoded.view(np.uint64), table.view(np.uint64))


def _field_digest(field):
    digest = hashlib.sha256()
    for array in (field.points, field.phi, field.volume):
        digest.update(array.tobytes())
    digest.update(field_to_csv(field).encode())
    return digest.hexdigest()


def test_grid_field_lattice_cache():
    # what depends on (R, margin) alone is kept for the last _LATTICES pairs
    assert _lattice.cache_info().maxsize == _LATTICES == 4
    pairs = ((60, 1e-3), (150, 1e-3), (300, 0.01), (7, 0.05))
    _lattice.cache_clear()
    warm = {}
    for q in (-1.5, 0.4, 1.0, 2.0):
        for resolution, margin in pairs:
            warm[resolution, q, margin] = _field_digest(grid_field(resolution, q, margin))
    info = _lattice.cache_info()
    assert (info.hits, info.misses, info.currsize) == (12, 4, 4)
    for args, digest in warm.items():
        _lattice.cache_clear()
        assert _field_digest(grid_field(*args)) == digest, args
    # a field owns its points: writing to them leaves the cache as it was
    field = grid_field(60, 1.4, 1e-3)
    reference = _field_digest(field)
    field.points[:] = 0.5
    assert _field_digest(grid_field(60, 1.4, 1e-3)) == reference
    assert not _lattice(60, 1e-3).points.flags.writeable
    # two margins are two entries, and the oldest pair goes first
    _lattice.cache_clear()
    assert len(grid_field(60, 1.4, 0.05)) < len(grid_field(60, 1.4, 1e-3)) == 1830
    assert _lattice.cache_info().currsize == 2
    for margin in (2e-3, 3e-3, 4e-3):
        grid_field(60, 1.4, margin)
    assert _lattice.cache_info().currsize == 4
    grid_field(60, 1.4, 0.05)
    assert _lattice.cache_info().misses == 6


def _symmetry_points():
    rng = np.random.default_rng(59)
    eps = 1e-3
    yield (eps, eps, 1 - 2 * eps)
    yield (eps, (1 - eps) / 2, (1 - eps) / 2)
    yield (0.2, 0.2, 0.6)
    yield (1 / 62, 30 / 62, 31 / 62)
    for m in (3, 4, 5):
        for _ in range(3):
            yield tuple((eps + (1 - m * eps) * rng.dirichlet(np.ones(m))).tolist())
        yield (eps,) * (m - 1) + (1 - (m - 1) * eps,)
        yield (0.5 / (m - 1),) * (m - 1) + (0.5,)


@pytest.mark.parametrize("q", (-40.0, -1.5, 0.0, 0.5, 1.0, 1.0 + 1e-10, 1.4, 2.0, 3.0, 40.0))
def test_row_kernels_are_bitwise_symmetric(q):
    # grid_field evaluates one row per permutation orbit and copies it to
    # the others, which is exact only if every permutation gives the same bits
    for p in _symmetry_points():
        phi, vol = potential(p, q), volume_element(p, q)
        for perm in itertools.permutations(p):
            assert potential(perm, q) == phi, (p, perm)
            assert volume_element(perm, q) == vol, (p, perm)


def test_field_csv_reads_back_exactly():
    field = grid_field(25, 1.4, 1e-3)
    table = np.array(
        [[float(c) for c in line.split(",")]
         for line in field_to_csv(field).splitlines()[1:]]
    )
    assert np.array_equal(table[:, :3], field.points)
    assert np.array_equal(table[:, 3], field.phi)
    assert np.array_equal(table[:, 4], field.volume)


def test_field_csv_of_a_replaced_field_reads_back_to_its_arrays():
    # the CSV table grid_field keeps with its field is not carried over by
    # dataclasses.replace: the copy's text is written from its own arrays
    field = grid_field(4, 0.7, 1e-3)
    moved = dataclasses.replace(field, phi=field.phi + 1.0)
    table = np.array([[float(c) for c in line.split(",")] for line in field_to_csv(moved).splitlines()[1:]])
    assert np.array_equal(table, np.column_stack([moved.points, moved.phi, moved.volume]))
    assert field_to_csv(moved) != field_to_csv(field)
    with pytest.raises(TypeError):
        MetricField(field.points, field.phi, field.volume, 0.7, None)


def _csv_reference(field):
    """The CSV text written cell by cell, each cell '%.17g' of its float."""
    table = np.column_stack([field.points, field.phi, field.volume])
    rows = (",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())
    return "p1,p2,p3,phi,sqrt_det_g\n" + "".join(rows)


@pytest.mark.parametrize(
    "resolution, q, margin",
    (
        (1, 1.4, 1e-3),
        (7, -1.5, 1e-3),
        (25, 2.0, 0.05),
        (60, 0.0, 1e-3),
        (150, 0.7, 1e-3),
        (300, -3.0, 1e-3),
        (150, 0.7, 0.02),
    ),
)
def test_field_csv_equals_cell_by_cell_text(resolution, q, margin):
    field = grid_field(resolution, q, margin)
    assert field_to_csv(field) == _csv_reference(field)


def test_field_csv_of_a_hand_built_field():
    # repeated values, both zeros and the extremes of float64 (a field holds
    # no nan or inf: MetricField refuses them)
    points = np.array(
        [
            [0.2, 0.3, 0.5],
            [0.5, 0.3, 0.2],
            [1e-300, 0.5, 0.5],
            [0.2, -0.0, 0.0],
            [1e300, 5e-324, 2.2250738585072014e-308],
            [0.2, 0.3, 0.5],
        ]
    )
    phi = np.array([0.0, -0.0, 1e300, -1e-300, -5e-324, -1.7976931348623157e308])
    volume = np.array([1.0, 1e-300, 1e300, 1.0, 1.7976931348623157e308, 1.0])
    field = MetricField(points, phi, volume, q=1.4)
    text = field_to_csv(field)
    assert text == _csv_reference(field)
    lines = text.splitlines()
    assert lines[1].split(",")[3] == "0" and lines[2].split(",")[3] == "-0"
    # integer arrays are written as their float values
    ints = MetricField(np.array([[1, 1, 2**60 + 1]]), np.array([-3]), np.array([7]), q=0.0)
    assert field_to_csv(ints) == _csv_reference(ints)


def test_field_csv_of_a_field_grid_field_did_not_build():
    # such a field carries no CSV table: its text is written from its own
    # arrays, cell by cell, with the identity index, -0.0 and 0.0 apart
    field = grid_field(60, 1.4, 1e-3)
    moved = dataclasses.replace(field, phi=field.phi + 1.0)
    assert moved._columns is None
    floats, index = _csv_columns(moved)
    assert np.array_equal(index, np.arange(5 * len(moved)).reshape(5, -1).T)
    assert field_to_csv(moved) == _csv_reference(moved)
    zeros = np.where(np.arange(len(field)) % 3 == 0, -0.0, 0.0)
    signed = dataclasses.replace(field, phi=zeros)
    text = field_to_csv(signed)
    assert text == _csv_reference(signed)
    assert [line.split(",")[3] for line in text.splitlines()[1:4]] == ["-0", "0", "0"]


def test_field_csv_at_the_edges_of_the_array_route():
    # powers of ten with both neighbours (the exponent fix-up) and exact
    # half-way ties (round half to even), each column holding repeats
    p = np.array([float(f"1e{k}") for k in range(-8, 19)])
    ties = np.arange(2**17 + 1, 2**17 + 601, 2) / 2**17
    edges = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, math.inf), ties])
    values = np.random.default_rng(3).permutation(np.resize(np.concatenate([edges, -edges]), 5 * 600))
    table = values.reshape(600, 5)
    field = MetricField(table[:, :3], table[:, 3], np.abs(table[:, 4]), q=0.5)
    assert field_to_csv(field) == _csv_reference(field)


def test_metric_field_validation():
    with pytest.raises(DomainError):
        MetricField(np.zeros((2, 3)), np.zeros(1), np.ones(2), q=1.0)
    # the writers label exactly three point columns
    for points in (np.zeros((2, 2)), np.zeros(6)):
        with pytest.raises(DomainError):
            MetricField(points, np.zeros(2), np.ones(2), q=1.0)
    # the writers print every value, and JSON has no nan or inf: a
    # non-finite point, phi or volume is refused
    point = np.array([[0.2, 0.3, 0.5]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="points must be finite"):
            MetricField(np.array([[0.2, bad, 0.5]]), np.zeros(1), np.ones(1), q=0.5)
        with pytest.raises(DomainError, match="phi must be finite"):
            MetricField(point, np.array([bad]), np.ones(1), q=0.5)
        with pytest.raises(DomainError, match="volume must be finite"):
            MetricField(point, np.zeros(1), np.array([abs(bad)]), q=0.5)
    with pytest.raises(DomainError):
        MetricField(point, np.array([math.nan]), np.array([math.inf]), 0.5)
    field = MetricField(point, np.array([-1.7976931348623157e308]), np.array([5e-324]), 0.5)
    assert json.loads(field_to_json(field))[0]["sqrt_det_g"] == 5e-324


def test_field_csv_layout():
    field = grid_field(1, 1.4, 1e-3)
    text = field_to_csv(field)
    lines = text.splitlines()
    assert lines[0] == "p1,p2,p3,phi,sqrt_det_g"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 5
    assert float(cells[0]) == pytest.approx(1 / 3, rel=1e-16)
    assert text.endswith("\n")


def test_field_json_matches_csv_rows():
    field = grid_field(4, 1.4, 1e-3)
    rows = json.loads(field_to_json(field))
    assert len(rows) == len(field)
    first = rows[0]
    assert set(first) == {"p1", "p2", "p3", "phi", "sqrt_det_g"}
    assert first["sqrt_det_g"] == pytest.approx(field.volume[0], rel=1e-15)
