"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each test prints one ``[acceptance]`` PASS/FAIL line (visible under
``pytest -s``) and then asserts. Two tests fail on purpose and are
expected to stay red: the remainder-slope bound at q = 1.5 demands decay
that the surviving Euler-Maclaurin constant makes impossible, and the
clean-battery test inherits that failure through the ``verify``
subcommand. See the ``qspectra.verify`` module docstring for the
analysis; silencing either test would misreport what the code does.
"""

import json
import math

import numpy as np
import pytest
from conftest import run_cli

from qspectra import combinatorics as comb
from qspectra import geometry as geom
from qspectra import qalgebra as qa
from qspectra import spectrum as spc
from qspectra import zeta as zt
from qspectra.verify import _partitions_upto, _rel


def _report(name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    assert passed, f"{name}: {detail}"


def test_deformed_algebra_laws_on_grid():
    xs = tuple(np.geomspace(0.1, 10.0, 10))
    qs = (0.3, 0.8, 1.0, 1.4, 1.9)
    thetas = (-1.0, 0.5, 2.0)
    worst = 0.0
    exercised = 0
    for q in qs:
        r = 1.0 - q
        for x in xs:
            back = qa.q_exp(qa.q_log(x, q), q)
            assert not back.clamped
            worst = max(worst, abs(back.value - x) / x)
            for th in thetas:
                lhs = qa.q_log(x, qa.theta_reparam(q, th))
                rhs = qa.q_log(x**th, q) / th
                worst = max(worst, _rel(lhs - rhs, lhs, rhs))
            for y in xs:
                lx, ly = qa.q_log(x, q), qa.q_log(y, q)
                lhs = qa.q_log(x * y, q)
                rhs = lx + ly + r * lx * ly
                worst = max(worst, _rel(lhs - rhs, lhs, rhs))
                # the product/quotient laws are stated for unclamped results
                prod = qa.q_mul(x, y, q)
                if not prod.clamped:
                    worst = max(worst, _rel(qa.q_log(prod.value, q) - lx - ly, lx + ly))
                    exercised += 1
                quot = qa.q_div(x, y, q)
                if not quot.clamped:
                    worst = max(worst, _rel(qa.q_log(quot.value, q) - lx + ly, lx - ly))
                    exercised += 1
    assert exercised > 400
    _report(
        "deformed algebra laws on 10x10x5 grid",
        worst <= 1e-12,
        f"worst relative residual {worst:.3e}, tolerance 1e-12",
    )


def test_classical_limit_recovery_at_least_linear():
    xs = tuple(np.geomspace(0.2, 8.0, 7))
    spec = spc.Spectrum((0.7, 2.0, 3.5), 1.0)
    p = (0.2, 0.3, 0.5)
    shannon = comb.tsallis_entropy(p, 1.0)
    logdet = math.fsum(math.log(v) for v in spec.eigenvalues)

    def errors(dq: float, sign: float) -> tuple[float, float, float]:
        q = 1.0 + sign * dq
        return (
            max(abs(qa.q_log(x, q) - math.log(x)) for x in xs),
            abs(spc.q_logdet(spec, q) - logdet),
            abs(comb.tsallis_entropy(p, q) - shannon),
        )

    worst = 0.0
    for k in range(2, 7):
        dq = 10.0**-k
        for sign in (1.0, -1.0):
            for full, half in zip(errors(dq, sign), errors(dq / 2.0, sign)):
                worst = max(worst, half / full)
    _report(
        "classical limit recovery over five decades",
        worst <= 0.625,
        f"worst error ratio under halving |q-1| is {worst:.4f}, bound 0.625",
    )


def test_integer_multinomial_oracle():
    worst = 0.0
    count = 0
    for parts in _partitions_upto(12):
        exact = math.factorial(sum(parts))
        for ni in parts:
            exact //= math.factorial(ni)
        approx = qa.q_exp(comb.q_multinomial_log(comb.Partition.from_parts(parts), 1.0), 1.0)
        assert not approx.clamped
        worst = max(worst, abs(approx.value - exact) / exact)
        count += 1
    assert count == 271
    _report(
        "integer multinomial oracle for all partitions of n <= 12",
        worst <= 1e-9,
        f"worst relative error {worst:.3e} over {count} partitions, tolerance 1e-9",
    )


def test_remainder_exact_at_q_zero():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 10_001))
        m = int(rng.integers(2, 9))
        parts = rng.multinomial(n - m, np.full(m, 1.0 / m)) + 1
        part = comb.Partition(n, tuple(int(v) for v in parts))
        lead = comb.asymptotic_leading(part.n, part.ratios(), 0.0)
        rem = comb.asymptotic_remainder(part, 0.0)
        worst = max(worst, abs(rem) / max(1.0, abs(lead)))
    _report(
        "remainder vanishes at q = 0 for 100 random partitions of n <= 10^4",
        worst <= 1e-9,
        f"worst relative remainder {worst:.3e}, tolerance 1e-9",
    )


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_remainder_slope_bound(q):
    logs_n, logs_r = [], []
    for k in range(6, 15):
        n = 2**k
        rem = comb.asymptotic_remainder(comb.Partition(n, (n // 2, n // 2)), q)
        logs_n.append(math.log(n))
        logs_r.append(math.log(abs(rem)))
    slope = float(np.polyfit(logs_n, logs_r, 1)[0])
    bound = (1.0 - q) + 0.15
    _report(
        f"remainder slope bound at q = {q:g}",
        slope <= bound,
        f"fitted log-log slope {slope:.4f}, required <= {bound:.2f}",
    )


def test_zeta_special_values():
    model = zt.shifted_linear(1.0)
    worst_value = max(
        abs(zt.zeta_value(model, 0.0) + 0.5),
        abs(zt.zeta_value(model, -1.0) + 1.0 / 12.0),
        abs(zt.zeta_value(model, 2.0) - math.pi**2 / 6.0),
    )
    deriv_err = abs(zt.zeta_deriv0(model) + 0.5 * math.log(2.0 * math.pi))
    _report(
        "zeta special values and determinant derivative",
        worst_value <= 1e-10 and deriv_err <= 1e-8,
        f"values off by {worst_value:.3e} (tol 1e-10), "
        f"derivative off by {deriv_err:.3e} (tol 1e-8)",
    )


def test_qdet_linear_in_classical_distance():
    model = zt.shifted_linear(1.0)
    target = 0.5 * math.log(2.0 * math.pi)
    ratios = []
    for k in range(14):
        d = 1e-2 * 2.0**-k
        for sign in (1.0, -1.0):
            ratios.append(abs(zt.qdet_zeta(model, 1.0 + sign * d) - target) / d)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    _report(
        "qdet approaches -zeta'(0) linearly in |q-1|",
        spread <= 0.25,
        f"error/|q-1| spread {spread:.4f} while halving 1e-2 -> 1e-6, bound 0.25",
    )


def test_theta_covariance_closes_the_family():
    rng = np.random.default_rng(77)
    worst_finite = 0.0
    worst_duality = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 11))
        spec = spc.Spectrum(tuple(float(v) for v in rng.uniform(0.5, 5.0, size)), 1.0)
        inverse = spc.power_transform(spec, -1.0)
        for q in (0.3, 0.7, 1.2, 1.7, 2.4):
            for th in (-2.0, -1.0, 0.5, 2.0, 3.0):
                worst_finite = max(worst_finite, spc.theta_covariance_residual(spec, q, th))
            lhs = spc.q_logdet(spec, 2.0 - q)
            rhs = -spc.q_logdet(inverse, q)
            worst_duality = max(worst_duality, abs(lhs - rhs))
    worst_zeta = 0.0
    for alpha, q, th in (
        (1.0, 1.25, 2.0),
        (1.0, 1.4, 0.5),
        (2.0, 1.2, 3.0),
        (0.5, 0.8, 2.0),
        (1.5, 1.1, 1.0),
    ):
        worst_zeta = max(worst_zeta, zt.theta_covariance_zeta(zt.power_spectrum(alpha), q, th))
    _report(
        "theta covariance on finite spectra, power models, and inversion duality",
        worst_finite <= 1e-11 and worst_zeta <= 1e-8 and worst_duality <= 1e-11,
        f"finite {worst_finite:.3e} (tol 1e-11), power-model {worst_zeta:.3e} "
        f"(tol 1e-8), duality {worst_duality:.3e} (tol 1e-11)",
    )


def test_variation_matches_finite_differences():
    rng = np.random.default_rng(911)
    eps = 1e-5
    worst = 0.0
    for _ in range(8):
        size = int(rng.integers(2, 11))
        spec = spc.Spectrum(tuple(float(v) for v in rng.uniform(0.5, 5.0, size)), 1.0)
        lam = np.asarray(spec.eigenvalues)
        delta = rng.uniform(-1.0, 1.0, size)
        delta /= np.linalg.norm(delta)
        for q in (0.3, 1.0, 1.7):
            analytic = spc.action_variation(spec, tuple(delta), q)
            up = spc.Spectrum(tuple(lam + eps * delta), 1.0)
            dn = spc.Spectrum(tuple(lam - eps * delta), 1.0)
            fd = (spc.q_logdet(up, q) - spc.q_logdet(dn, q)) / (2.0 * eps)
            worst = max(worst, abs(analytic - fd))
    _report(
        "eigenvalue variation matches central differences",
        worst <= 1e-7,
        f"worst deviation {worst:.3e} per unit perturbation norm, tolerance 1e-7",
    )


def test_simplex_metric_properties():
    rng = np.random.default_rng(314)
    h = 1e-4
    worst_hess = 0.0
    worst_metric = 0.0
    while True:
        pts = rng.dirichlet(np.full(3, 5.0), size=40)
        pts = [p for p in pts if p.min() >= 0.05][:10]
        if len(pts) == 10:
            break
    jac = np.vstack([np.eye(2), -np.ones(2)])
    for p in pts:
        for q in (0.0, 0.7, 1.4, 1.9):
            hess = geom.potential_hessian(p, q)
            for i in range(3):
                ei = np.zeros(3)
                ei[i] = h
                fd = (
                    geom.potential(p + ei, q)
                    - 2.0 * geom.potential(p, q)
                    + geom.potential(p - ei, q)
                ) / h**2
                worst_hess = max(worst_hess, abs(fd - hess[i, i]) / abs(hess[i, i]))
            built = -jac.T @ hess @ jac
            worst_metric = max(
                worst_metric, float(np.max(np.abs(geom.induced_metric(p, q) - built)))
            )

    field = geom.grid_field(60, 1.4, 1e-3)
    min_eig = min(
        float(np.linalg.eigvalsh(geom.induced_metric(row, 1.4)).min())
        for row in field.points
    )
    eps = 1e-3
    ratio = geom.volume_element((eps, (1 - eps) / 2, (1 - eps) / 2), 1.4) / (
        geom.volume_element((1 / 3, 1 / 3, 1 / 3), 1.4)
    )
    flat_dev = float(np.max(np.abs(geom.grid_field(60, 0.0, 1e-3).volume - math.sqrt(3.0))))
    _report(
        "simplex metric: Hessian, construction, positivity, boundary, flat case",
        worst_hess <= 1e-5
        and worst_metric <= 1e-12
        and min_eig > 0.0
        and ratio > 10.0
        and flat_dev <= 1e-13,
        f"Hessian FD {worst_hess:.3e} (tol 1e-5), metric {worst_metric:.3e} "
        f"(tol 1e-12), min eigenvalue {min_eig:.3e}, boundary/centroid "
        f"{ratio:.1f} (> 10), q=0 deviation from sqrt(3) {flat_dev:.3e}",
    )


def test_weight_curves_unit_crossing_and_ordering():
    proc = run_cli("weight")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "lambda,q=0.5,q=1,q=2"
    crossing_exact = "1,1,1,1" in lines[1:]
    ordered = True
    for line in lines[1:]:
        lam, *ws = map(float, line.split(","))
        if lam < 1.0:
            ordered = ordered and ws[0] < ws[1] < ws[2]
        elif lam > 1.0:
            ordered = ordered and ws[0] > ws[1] > ws[2]
    _report(
        "weight curves cross (1, 1) exactly and are q-ordered on each side",
        crossing_exact and ordered,
        f"exact unit row present: {crossing_exact}, strict ordering: {ordered}",
    )


def test_emitted_outputs_are_deterministic():
    identical = True
    for args in (("geometry", "--q", "1.4", "--resolution", "60"), ("weight",)):
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0 and second.returncode == 0
        identical = identical and first.stdout == second.stdout
    _report(
        "geometry and weight outputs byte-identical across runs",
        identical,
        "two runs of each subcommand compared",
    )


def test_verification_battery_is_clean():
    proc = run_cli("verify")
    failures = []
    if proc.stdout:
        failures = json.loads(proc.stdout).get("failures", [])
    _report(
        "verify subcommand exits 0",
        proc.returncode == 0,
        f"exit code {proc.returncode}, failing checks: {failures or 'none'}",
    )
