"""Self-verification battery.

Every documented invariant of the library is encoded as a named check
that measures a residual and compares it against a tolerance. The battery
is deterministic (fixed seeds), never aborts on a failing check, and is
what the command-line ``verify`` subcommand executes.

A note on honesty: the remainder-scaling checks encode the expectation
that the deformed-multinomial remainder decays like n^(1-q). That holds
for q <= 1, but for q > 1 the Euler-Maclaurin constant
(m - 1) zeta(q - 1) / (q - 1) survives in the remainder, so the q = 1.5
check fails by mathematical necessity. It is kept, and kept failing,
because silencing it would misreport what the measurement shows. Next to
it, combinatorics.remainder_second_order_q1.5 subtracts that constant and
measures the decay that is left, with the expected slope 1 - q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import combinatorics as comb
from . import geometry as geom
from . import qalgebra as qa
from . import spectrum as spc
from . import zeta as zt

__all__ = ["CheckResult", "run_checks", "check_names"]

_SEED = 20240817


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = field(default="")


def _rel(delta: float, *scales: float) -> float:
    return abs(delta) / max(1.0, *(abs(s) for s in scales))


# ---------------------------------------------------------------------------
# deformed scalar calculus

_X_GRID = tuple(np.geomspace(0.1, 10.0, 10))
_Q_GRID = (0.3, 0.7, 1.0, 1.6, 2.4)


def _worst_on_grid(law) -> float:
    """Worst relative gap between the sides (lhs, rhs) = law(x, y, q) over
    the q x x x y grid; points where law returns None are skipped."""
    worst = 0.0
    for q in _Q_GRID:
        for x in _X_GRID:
            for y in _X_GRID:
                sides = law(x, y, q)
                if sides is not None:
                    lhs, rhs = sides
                    worst = max(worst, _rel(lhs - rhs, lhs, rhs))
    return worst


def _check_pseudo_additivity() -> tuple[float, str]:
    def law(x, y, q):
        lx, ly = qa.q_log(x, q), qa.q_log(y, q)
        return qa.q_log(x * y, q), lx + ly + (1.0 - q) * lx * ly

    return _worst_on_grid(law), "ln_q(xy) = ln_q x + ln_q y + (1-q) ln_q x ln_q y"


def _check_product_duality() -> tuple[float, str]:
    def law(x, y, q):
        prod = qa.q_mul(x, y, q)
        if not prod.clamped:
            return qa.q_log(prod.value, q), qa.q_log(x, q) + qa.q_log(y, q)

    return _worst_on_grid(law), "ln_q of unclamped q-products is additive"


def _check_quotient_duality() -> tuple[float, str]:
    def law(x, y, q):
        quot = qa.q_div(x, y, q)
        if not quot.clamped:
            return qa.q_log(quot.value, q), qa.q_log(x, q) - qa.q_log(y, q)

    return _worst_on_grid(law), "ln_q of unclamped q-quotients is subtractive"


def _check_inverse_pair() -> tuple[float, str]:
    worst = 0.0
    for q in _Q_GRID:
        for x in _X_GRID:
            back = qa.q_exp(qa.q_log(x, q), q)
            if back.clamped:
                return math.inf, f"unexpected clamp at x={x}, q={q}"
            worst = max(worst, abs(back.value - x) / x)
    return worst, "exp_q(ln_q x) = x on the admissible set"


# |q - 1| halving from 1e-2, for the checks of the q -> 1 limits
_HALVING_DELTAS = tuple(1e-2 * 2.0**-k for k in range(14))


def _worst_halving_ratio(error) -> float:
    """Largest error(1 +- d/2) / error(1 +- d) as d halves, on each side of 1."""
    worst = 0.0
    for sign in (1.0, -1.0):
        errs = [error(1.0 + sign * d) for d in _HALVING_DELTAS]
        for lo, hi in zip(errs[1:], errs[:-1]):
            worst = max(worst, lo / hi)
    return worst


def _check_limit_recovery() -> tuple[float, str]:
    def error(q):
        return max(abs(qa.q_log(x, q) - math.log(x)) for x in _X_GRID)

    return _worst_halving_ratio(error), (
        "halving |q-1| at least halves the q_log error (x1.25 slack)"
    )


def _check_theta_identity() -> tuple[float, str]:
    worst = 0.0
    for q in _Q_GRID:
        thetas = (-2.0, -1.0, 0.5, 3.0)
        thetas += (-1.0 / q,) if q != 0 else ()
        for th in thetas:
            qprime = qa.theta_reparam(q, th)
            for x in _X_GRID:
                lhs = qa.q_log(x, qprime)
                rhs = qa.q_log(x**th, q) / th
                worst = max(worst, _rel(lhs - rhs, lhs, rhs))
    return worst, "ln_{q'} x = ln_q(x^theta)/theta with q' = 1 + theta(q-1)"


def _check_product_commutativity() -> tuple[float, str]:
    worst = 0.0
    for q in _Q_GRID:
        for x in _X_GRID:
            for y in _X_GRID:
                ab, ba = qa.q_mul(x, y, q), qa.q_mul(y, x, q)
                if ab.clamped != ba.clamped:
                    return math.inf, "clamp flag depends on operand order"
                if ab.clamped:
                    continue
                worst = max(worst, _rel(ab.value - ba.value, ab.value))
    return worst, "q-product is symmetric"


def _check_product_associativity() -> tuple[float, str]:
    triples = [(0.5, 1.5, 3.0), (2.0, 2.0, 2.0), (0.8, 1.2, 2.5), (1.1, 0.6, 1.9)]
    worst = 0.0
    for q in (0.0, 0.5, 1.0, 1.5):
        for x, y, z in triples:
            left_in = qa.q_mul(x, y, q)
            right_in = qa.q_mul(y, z, q)
            if left_in.clamped or right_in.clamped:
                continue
            left = qa.q_mul(left_in.value, z, q)
            right = qa.q_mul(x, right_in.value, q)
            if left.clamped or right.clamped:
                continue
            worst = max(worst, _rel(left.value - right.value, left.value))
    return worst, "q-product associates when no intermediate clamp fires"


# ---------------------------------------------------------------------------
# combinatorics

def _partitions_upto(n_max: int):
    def gen(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    for n in range(1, n_max + 1):
        yield from gen(n, n)


def _check_multinomial_integer_oracle() -> tuple[float, str]:
    worst = 0.0
    for parts in _partitions_upto(12):
        exact = math.factorial(sum(parts))
        for ni in parts:
            exact //= math.factorial(ni)
        approx = qa.q_exp(comb.q_multinomial_log(parts, 1.0), 1.0).value
        worst = max(worst, abs(approx - exact) / exact)
    return worst, "q = 1 multinomials match exact integer coefficients, n <= 12"


def _check_difference_identity() -> tuple[float, str]:
    worst = 0.0
    parts_list = [(2, 2), (1, 2, 3), (5, 5, 5), (7, 1), (4, 4, 4, 4), (10, 20, 30)]
    for q in (0.0, 0.5, 1.5, 2.5):
        r = 1.0 - q
        for parts in parts_list:
            part = comb.Partition.from_parts(parts)
            lhs = comb.q_multinomial_log(part, q)
            rhs = (
                comb.generalized_harmonic(part.n, r)
                - math.fsum(comb.generalized_harmonic(ni, r) for ni in part.parts)
            ) / r
            worst = max(worst, _rel(lhs - rhs, lhs, rhs))
    return worst, "multinomial equals the raw power-sum difference"


def _check_q0_remainder() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(10, 10_001))
        m = int(rng.integers(2, 7))
        parts = rng.multinomial(n - m, np.full(m, 1.0 / m)) + 1
        part = comb.Partition(n, tuple(int(v) for v in parts))
        lead = comb.asymptotic_leading(part.n, part.ratios(), 0.0)
        rem = comb.asymptotic_remainder(part, 0.0)
        worst = max(worst, abs(rem) / max(1.0, abs(lead)))
    return worst, "remainder vanishes identically at q = 0"


def _remainder_slope(q: float, limit: float = 0.0) -> float:
    """Fitted log-log slope of |remainder - limit| against n = 2^6..2^14."""
    ns = [2**k for k in range(6, 15)]
    logs_n, logs_r = [], []
    for n in ns:
        part = comb.Partition(n, (n // 2, n // 2))
        rem = comb.asymptotic_remainder(part, q)
        logs_n.append(math.log(n))
        logs_r.append(math.log(abs(rem - limit)))
    slope = np.polyfit(logs_n, logs_r, 1)[0]
    return float(slope)


def _check_remainder_scaling(q: float) -> tuple[float, str]:
    return _remainder_slope(q), (
        f"log-log slope of |remainder| vs n for p = (1/2, 1/2) at q = {q:g}"
    )


def _check_remainder_second_order() -> tuple[float, str]:
    q = 1.5
    limit = zt.hurwitz_zeta(q - 1.0, 1.0) / (q - 1.0)  # (m - 1) zeta(q-1)/(q-1), m = 2
    return _remainder_slope(q, limit), (
        "log-log slope of |remainder - zeta(q-1)/(q-1)| vs n for p = (1/2, 1/2) "
        "at q = 1.5, expected 1 - q"
    )


def _check_tsallis_limit() -> tuple[float, str]:
    p = (0.2, 0.3, 0.5)
    shannon = comb.tsallis_entropy(p, 1.0)

    def error(q):
        return abs(comb.tsallis_entropy(p, q) - shannon)

    return _worst_halving_ratio(error), (
        "Tsallis -> Shannon at least linearly in |q-1| (x1.25 slack)"
    )


# ---------------------------------------------------------------------------
# finite spectra

def _random_spectra(rng, count: int, max_size: int = 10):
    out = []
    for _ in range(count):
        size = int(rng.integers(2, max_size + 1))
        eigs = tuple(float(v) for v in rng.uniform(0.5, 5.0, size))
        out.append(spc.Spectrum(eigs, 1.0))
    return out


def _check_ordering_invariance() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for spec in _random_spectra(rng, 10):
        base = spc.q_logdet(spec, 1.7)
        for _ in range(4):
            perm = rng.permutation(len(spec))
            shuffled = spc.Spectrum(spec.eigenvalues[perm], 1.0)
            worst = max(worst, _rel(spc.q_logdet(shuffled, 1.7) - base, base))
    return worst, "q_logdet is permutation invariant"


def _check_classical_product() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for spec in _random_spectra(rng, 10):
        det = spc.q_det(spec, 1.0)
        exact = math.prod(spec.eigenvalues)
        worst = max(worst, abs(det.value - exact) / exact)
    return worst, "q = 1 determinant equals the plain eigenvalue product"


def _check_variation_fd() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 3)
    eps = 1e-5
    worst = 0.0
    for spec in _random_spectra(rng, 6):
        lam = spec.eigenvalues
        delta = rng.uniform(-1.0, 1.0, len(spec))
        delta /= np.linalg.norm(delta)
        for q in (0.3, 1.0, 1.7):
            analytic = spc.action_variation(spec, tuple(delta), q)
            up = spc.Spectrum(lam + eps * delta, spec.scale)
            dn = spc.Spectrum(lam - eps * delta, spec.scale)
            fd = (spc.q_logdet(up, q) - spc.q_logdet(dn, q)) / (2.0 * eps)
            worst = max(worst, abs(analytic - fd))
    return worst, "analytic variation matches central differences (unit norm)"


def _check_theta_covariance_finite() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 4)
    worst = 0.0
    for spec in _random_spectra(rng, 8):
        for q in (0.3, 0.7, 1.2, 1.7, 2.4):
            for th in (-2.0, -1.0, -1.0 / q, 0.5, 3.0):
                gamma = spc.q_logdet(spec, qa.theta_reparam(q, th))
                res = spc.theta_covariance_residual(spec, q, th)
                worst = max(worst, res / (1.0 + abs(gamma)))
    return worst, "Gamma_{q'}[A] = Gamma_q[A^theta]/theta on finite spectra"


def _check_theta_inversion_duality() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 5)
    worst = 0.0
    for spec in _random_spectra(rng, 8):
        inverse = spc.power_transform(spec, -1.0)
        for q in (0.3, 0.7, 1.2, 1.7, 2.4):
            lhs = spc.q_logdet(spec, 2.0 - q)
            rhs = -spc.q_logdet(inverse, q)
            worst = max(worst, abs(lhs - rhs))
    return worst, "Gamma_{2-q}[A] = -Gamma_q[A^-1]"


def _check_variation_covariance() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 6)
    eps = 1e-5
    worst = 0.0
    for spec in _random_spectra(rng, 4):
        lam = spec.eigenvalues
        delta = rng.uniform(-1.0, 1.0, len(spec))
        delta /= np.linalg.norm(delta)
        for q in (0.5, 1.3):
            for th in (0.5, 2.0, -1.0):
                qprime = qa.theta_reparam(q, th)
                analytic = spc.action_variation(spec, tuple(delta), qprime)

                def gamma_of(e: float) -> float:
                    moved = spc.Spectrum(lam + e * delta, spec.scale)
                    return spc.q_logdet(spc.power_transform(moved, th), q) / th

                fd = (gamma_of(eps) - gamma_of(-eps)) / (2.0 * eps)
                worst = max(worst, abs(analytic - fd))
    return worst, "variation transforms with the reparametrised index"


def _check_weight_monotonicity() -> tuple[float, str]:
    qs = (0.0, 0.5, 1.0, 1.5, 2.0)
    worst = 0.0
    for lam in (0.2, 0.5, 2.0, 5.0):
        ws = [qa.spectral_weight(lam, q) for q in qs]
        diffs = np.diff(ws)
        if lam > 1.0:
            worst = max(worst, float(np.max(diffs, initial=-math.inf)))
        else:
            worst = max(worst, float(np.max(-diffs, initial=-math.inf)))
    crossing = abs(qa.spectral_weight(1.0, 1.7) - 1.0)
    worst = max(worst, crossing)
    return max(worst, 0.0), "lambda^(-q) ordered strictly by q on each side of 1"


# ---------------------------------------------------------------------------
# zeta continuation

def _check_zeta_constants() -> tuple[float, str]:
    model = zt.shifted_linear(1.0)
    worst = max(
        abs(zt.zeta_value(model, 0.0) + 0.5),
        abs(zt.zeta_value(model, -1.0) + 1.0 / 12.0),
        abs(zt.zeta_value(model, 2.0) - math.pi**2 / 6.0),
    )
    return worst, "zeta(0), zeta(-1), zeta(2) against closed forms"


def _check_zeta_determinant_oracle() -> tuple[float, str]:
    res = abs(zt.zeta_deriv0(zt.shifted_linear(1.0)) + 0.5 * math.log(2.0 * math.pi))
    return res, "zeta'(0) = -ln(2 pi)/2"


def _check_qdet_limit_stability() -> tuple[float, str]:
    model = zt.shifted_linear(1.0)
    target = 0.5 * math.log(2.0 * math.pi)
    ratios = [
        abs(zt.qdet_zeta(model, 1.0 + sign * d) - target) / d
        for d in _HALVING_DELTAS
        for sign in (1.0, -1.0)
    ]
    spread = (max(ratios) - min(ratios)) / min(ratios)
    return spread, "qdet -> -zeta'(0) linearly; error/|q-1| stays flat"


def _check_finite_consistency() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 7)
    worst = 0.0
    for spec in _random_spectra(rng, 6):
        for q in (-1.0, 0.0, 0.5, 0.99, 1.01, 1.5, 2.0, 3.0):
            a = zt.qdet_zeta(spec, q)
            b = spc.q_logdet(spec, q)
            worst = max(worst, _rel(a - b, a, b))
    return worst, "zeta route reproduces the direct finite q_logdet"


def _check_scale_covariance() -> tuple[float, str]:
    worst = 0.0
    for mu in (0.5, 2.0, 7.3):
        scaled = zt.shifted_linear(1.0, scale=mu)
        plain = zt.shifted_linear(1.0)
        for s in (-1.0, 0.0, 0.5, 2.0, 3.5):
            lhs = zt.zeta_value(scaled, s)
            rhs = mu**s * zt.zeta_value(plain, s)
            worst = max(worst, _rel(lhs - rhs, lhs, rhs))
        eigs = (0.7, 1.9, 3.1)
        fd_scaled = zt.finite_diag(eigs, scale=mu)
        fd_folded = zt.finite_diag(tuple(e / mu for e in eigs))
        for q in (0.0, 0.5, 1.6):
            lhs = zt.qdet_zeta(fd_scaled, q)
            rhs = zt.qdet_zeta(fd_folded, q)
            worst = max(worst, _rel(lhs - rhs, lhs, rhs))
    return worst, "zeta_{A/mu}(s) = mu^s zeta_A(s) and the folded-scale qdet"


# every pair takes the Euler-Maclaurin route, whose cutoff n_direct moves;
# the integers s <= 0 take the exact Bernoulli values instead
_EM_PAIRS = (
    (-2.9, 2.5),
    (-2.5, 0.6),
    (-0.9, 0.1),
    (-0.9, 1.0),
    (-0.5, 0.5),
    (-0.1, 0.1),
    (0.1, 7.0),
    (0.5, 2.0),
    (2.0, 0.1),
    (2.0, 1.0),
    (4.0, 0.3),
    (6.0, 1.0),
    (12.0, 2.0),
    (30.0, 5.0),
)


def _check_euler_maclaurin_doubling() -> tuple[float, str]:
    worst = 0.0
    for s, a in _EM_PAIRS:
        base = zt.hurwitz_zeta(s, a)
        refined = zt.hurwitz_zeta(s, a, n_direct=100)
        # for s < 1 the partial sum and the integral tail grow like
        # x^(1-s) and cancel; that intermediate magnitude sets the
        # attainable float accuracy, so the residual is measured
        # against the largest term entering the evaluation
        scale = max(1.0, abs(base))
        if s < 1.0:
            scale = max(scale, (a + 100.0) ** (1.0 - s) / abs(s - 1.0))
        worst = max(worst, abs(refined - base) / scale)
    return worst, "doubling the direct-sum cutoff moves values at rounding level"


def _check_theta_covariance_zeta() -> tuple[float, str]:
    cases = (
        (1.0, 1.25, 2.0),
        (1.0, 1.4, 0.5),
        (2.0, 1.2, 3.0),
        (0.5, 0.8, 2.0),
        (1.5, 1.1, 1.0),
    )
    worst = 0.0
    for alpha, q, th in cases:
        worst = max(worst, zt.theta_covariance_zeta(zt.power_spectrum(alpha), q, th))
    return worst, "power-spectrum qdet is theta covariant"


# ---------------------------------------------------------------------------
# simplex geometry

def _interior_points(rng, count: int, sizes=(2, 3, 4), floor: float = 0.05):
    pts = []
    while len(pts) < count:
        m = int(rng.choice(sizes))
        p = rng.dirichlet(np.full(m, 5.0))
        if p.min() >= floor:
            pts.append(tuple(float(v) for v in p))
    return pts


def _check_hessian_consistency() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 8)
    h = 1e-4
    worst = 0.0
    for p in _interior_points(rng, 12):
        arr = np.asarray(p)
        for q in (0.0, 0.5, 1.0, 1.4, 1.9):
            analytic = geom.potential_hessian(arr, q)
            m = arr.size
            for i in range(m):
                ei = np.zeros(m)
                ei[i] = h
                fd_ii = (
                    geom.potential(arr + ei, q)
                    - 2.0 * geom.potential(arr, q)
                    + geom.potential(arr - ei, q)
                ) / h**2
                worst = max(worst, abs(fd_ii - analytic[i, i]) / abs(analytic[i, i]))
                for j in range(i + 1, m):
                    ej = np.zeros(m)
                    ej[j] = h
                    fd_ij = (
                        geom.potential(arr + ei + ej, q)
                        - geom.potential(arr + ei - ej, q)
                        - geom.potential(arr - ei + ej, q)
                        + geom.potential(arr - ei - ej, q)
                    ) / (4.0 * h**2)
                    worst = max(worst, abs(fd_ij) / abs(analytic[i, i]))
    return worst, "diag(-p^-q) Hessian against second differences"


def _check_metric_construction() -> tuple[float, str]:
    rng = np.random.default_rng(_SEED + 9)
    worst = 0.0
    for p in _interior_points(rng, 12):
        arr = np.asarray(p)
        m = arr.size
        jac = np.vstack([np.eye(m - 1), -np.ones(m - 1)])
        for q in (0.0, 0.7, 1.4, 2.2):
            g = geom.induced_metric(arr, q)
            built = -jac.T @ geom.potential_hessian(arr, q) @ jac
            worst = max(worst, float(np.max(np.abs(g - built))))
    return worst, "g = -J^T H J for the simplex embedding"


def _check_positive_definiteness() -> tuple[float, str]:
    field = geom.grid_field(20, 1.4, 1e-3)
    worst = math.inf
    for row in field.points:
        eigs = np.linalg.eigvalsh(geom.induced_metric(row, 1.4))
        worst = min(worst, float(eigs.min()))
    return max(0.0, -worst), "metric eigenvalues stay positive on the grid"


def _check_boundary_enhancement() -> tuple[float, str]:
    eps = 1e-3
    edge = geom.volume_element((eps, (1 - eps) / 2, (1 - eps) / 2), 1.4)
    centre = geom.volume_element((1 / 3, 1 / 3, 1 / 3), 1.4)
    ratio = edge / centre
    return max(0.0, 10.0 - ratio), f"boundary/centroid volume ratio = {ratio:.3f}"


def _check_flatness_q0() -> tuple[float, str]:
    field = geom.grid_field(30, 0.0, 1e-3)
    return float(np.var(field.volume)), "q = 0 volume element is constant sqrt(3)"


# ---------------------------------------------------------------------------
# registry

_REGISTRY: tuple[tuple[str, float, object], ...] = (
    ("qalgebra.pseudo_additivity", 1e-12, _check_pseudo_additivity),
    ("qalgebra.product_duality", 1e-12, _check_product_duality),
    ("qalgebra.quotient_duality", 1e-12, _check_quotient_duality),
    ("qalgebra.inverse_pair", 1e-12, _check_inverse_pair),
    ("qalgebra.limit_recovery", 0.625, _check_limit_recovery),
    ("qalgebra.theta_identity", 1e-12, _check_theta_identity),
    ("qalgebra.product_commutativity", 1e-12, _check_product_commutativity),
    ("qalgebra.product_associativity", 1e-12, _check_product_associativity),
    ("combinatorics.multinomial_integer_oracle", 1e-9, _check_multinomial_integer_oracle),
    ("combinatorics.difference_identity", 1e-12, _check_difference_identity),
    ("combinatorics.q0_remainder_exact", 1e-9, _check_q0_remainder),
    ("combinatorics.remainder_scaling_q0.5", 0.65, lambda: _check_remainder_scaling(0.5)),
    ("combinatorics.remainder_scaling_q1.0", 0.15, lambda: _check_remainder_scaling(1.0)),
    ("combinatorics.remainder_scaling_q1.5", -0.35, lambda: _check_remainder_scaling(1.5)),
    # measured slope -0.4995; the bound leaves a margin of 0.05
    ("combinatorics.remainder_second_order_q1.5", -0.45, _check_remainder_second_order),
    ("combinatorics.tsallis_shannon_limit", 0.625, _check_tsallis_limit),
    ("spectrum.ordering_invariance", 1e-12, _check_ordering_invariance),
    ("spectrum.classical_product", 1e-12, _check_classical_product),
    ("spectrum.variation_finite_difference", 1e-7, _check_variation_fd),
    ("spectrum.theta_covariance", 1e-11, _check_theta_covariance_finite),
    ("spectrum.theta_inversion_duality", 1e-11, _check_theta_inversion_duality),
    ("spectrum.variation_covariance", 1e-6, _check_variation_covariance),
    ("spectrum.weight_monotonicity", 0.0, _check_weight_monotonicity),
    ("zeta.constants", 1e-10, _check_zeta_constants),
    ("zeta.determinant_oracle", 1e-8, _check_zeta_determinant_oracle),
    ("zeta.qdet_limit_stability", 0.25, _check_qdet_limit_stability),
    ("zeta.finite_consistency", 1e-12, _check_finite_consistency),
    ("zeta.scale_covariance", 1e-10, _check_scale_covariance),
    ("zeta.euler_maclaurin_doubling", 1e-11, _check_euler_maclaurin_doubling),
    ("zeta.theta_covariance", 1e-8, _check_theta_covariance_zeta),
    ("geometry.hessian_consistency", 1e-5, _check_hessian_consistency),
    ("geometry.metric_construction", 1e-12, _check_metric_construction),
    ("geometry.positive_definiteness", 0.0, _check_positive_definiteness),
    ("geometry.boundary_enhancement", 0.0, _check_boundary_enhancement),
    ("geometry.flatness_q0", 1e-20, _check_flatness_q0),
)


def check_names() -> list[str]:
    return [name for name, _, _ in _REGISTRY]


def run_checks(
    tolerance_scale: float = 1.0, overrides: dict[str, float] | None = None
) -> list[CheckResult]:
    """Run the full battery.

    ``overrides`` replaces the default tolerance of individual checks by
    name; ``tolerance_scale`` then multiplies every effective tolerance.
    A check that raises is reported as failed with an infinite residual;
    no failure stops the rest of the battery.
    """
    overrides = dict(overrides or {})
    scale = float(tolerance_scale)
    unknown = set(overrides) - set(check_names())
    if unknown:
        raise KeyError(f"unknown check names: {sorted(unknown)}")
    results = []
    for name, tol, fn in _REGISTRY:
        tol = float(overrides.get(name, tol)) * scale
        try:
            residual, detail = fn()
        except Exception as exc:  # noqa: BLE001 - the battery must not abort
            results.append(CheckResult(name, math.inf, tol, False, f"raised {exc!r}"))
            continue
        residual = float(residual)
        results.append(CheckResult(name, residual, tol, bool(residual <= tol), detail))
    return results
