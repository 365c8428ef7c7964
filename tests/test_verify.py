import dataclasses
import math

import numpy as np
import pytest

from qspectra import spectrum as spc
from qspectra import verify, zeta
from qspectra.geometry import potential, potential_hessian
from qspectra.verify import _EM_PAIRS, CheckResult, check_names, run_checks

# the deformed-multinomial remainder tends to a nonzero zeta constant for
# q > 1, so this slope check cannot pass; see the module docstring
EXPECTED_FAILURES = {"combinatorics.remainder_scaling_q1.5"}


@pytest.fixture(scope="module")
def results():
    return run_checks()


def test_battery_shape(results):
    names = [r.name for r in results]
    assert names == check_names()
    assert len(set(names)) == len(names)
    assert all(isinstance(r, CheckResult) for r in results)
    prefixes = {n.split(".")[0] for n in names}
    assert prefixes == {"qalgebra", "combinatorics", "spectrum", "zeta", "geometry"}


def test_only_the_documented_check_fails(results):
    failures = {r.name for r in results if not r.passed}
    assert failures == EXPECTED_FAILURES


def test_residuals_are_finite_and_typed(results):
    for r in results:
        assert isinstance(r.residual, float)
        assert isinstance(r.passed, bool)
        assert math.isfinite(r.residual)
        payload = dataclasses.asdict(r)
        assert set(payload) == {"name", "residual", "tolerance", "passed", "detail"}


def test_battery_is_deterministic(results):
    again = run_checks()
    assert [(r.name, r.residual) for r in again] == [
        (r.name, r.residual) for r in results
    ]


def test_doubling_pairs_take_the_euler_maclaurin_route():
    # zeta.euler_maclaurin_doubling moves the cutoff of this route; off it
    # (M = 0) the check would compare two methods, not two cutoffs
    for s, a in _EM_PAIRS:
        assert zeta._hurwitz(s, a)[3] > 0, (s, a)


def _hessian_residual_pointwise():
    """geometry.hessian_consistency as a loop of one-row potential calls:
    the reference for the battery's stencil arrays."""
    rng = np.random.default_rng(verify._SEED + 8)
    h = 1e-4
    worst = 0.0
    for p in verify._interior_points(rng, 12):
        arr = np.asarray(p)
        for q in (0.0, 0.5, 1.0, 1.4, 1.9):
            d = np.diag(potential_hessian(arr, q))
            e = np.eye(arr.size) * h
            for i in range(arr.size):
                fd_ii = (potential(arr + e[i], q) - 2.0 * potential(arr, q) + potential(arr - e[i], q)) / h**2
                worst = max(worst, abs(fd_ii - d[i]) / abs(d[i]))
                for j in range(i + 1, arr.size):
                    fd_ij = (
                        potential(arr + e[i] + e[j], q)
                        - potential(arr + e[i] - e[j], q)
                        - potential(arr - e[i] + e[j], q)
                        + potential(arr - e[i] - e[j], q)
                    ) / (4.0 * h**2)
                    worst = max(worst, abs(fd_ij) / abs(d[i]))
    return worst


def _variation_residual_pointwise():
    """spectrum.variation_finite_difference with its lower point as
    lam - eps delta: the reference for the shared central difference."""
    rng = np.random.default_rng(verify._SEED + 3)
    eps = 1e-5
    worst = 0.0
    for spec in verify._random_spectra(rng, 6):
        lam = spec.eigenvalues
        delta = rng.uniform(-1.0, 1.0, len(spec))
        delta /= np.linalg.norm(delta)
        for q in (0.3, 1.0, 1.7):
            up = spc.q_logdet(spc.Spectrum(lam + eps * delta, spec.scale), q)
            dn = spc.q_logdet(spc.Spectrum(lam - eps * delta, spec.scale), q)
            worst = max(worst, abs(spc.action_variation(spec, tuple(delta), q) - (up - dn) / (2.0 * eps)))
    return worst


@pytest.mark.parametrize(
    "name, reference",
    (
        ("geometry.hessian_consistency", _hessian_residual_pointwise),
        ("spectrum.variation_finite_difference", _variation_residual_pointwise),
    ),
)
def test_stencil_checks_equal_their_pointwise_loops(results, name, reference):
    (residual,) = [r.residual for r in results if r.name == name]
    assert residual.hex() == float(reference()).hex()
