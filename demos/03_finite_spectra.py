"""Finite operator spectra and the deformed effective action.

For a finite positive spectrum the q-determinant is the q-product of the
eigenvalues and Gamma_q = q_logdet is the deformed effective action. Its
first variation weights each eigenvalue perturbation by lambda^(-q),
which is what makes small eigenvalues dominate the response for q > 0.
"""

import math

import numpy as np

from qspectra import (
    Spectrum,
    action_variation,
    effective_action,
    power_transform,
    q_det,
    q_logdet,
    relative_q_logdet,
    theta_covariance_residual,
)


def main() -> None:
    spec = Spectrum((0.5, 1.0, 2.0, 4.0), scale=1.0)
    print(f"= spectrum {tuple(spec.eigenvalues.tolist())} =")
    for q in (0.0, 0.5, 1.0, 1.5):
        det = q_det(spec, q)
        print(
            f"  q = {q:3}: Gamma_q = {q_logdet(spec, q):+12.8f}"
            f"   det_q = {det.value:12.8f} (clamped={det.clamped})"
        )
    print(f"  ordinary log det = {math.log(math.prod(spec.eigenvalues)):+.8f}")

    print("\n= relative determinants cancel reference spectra =")
    ref = Spectrum((0.5, 1.0, 2.0, 4.0), scale=1.0)
    print(f"  relative to itself: {relative_q_logdet(spec, ref, 0.7):.1e}")
    shifted = Spectrum(spec.eigenvalues * 1.1, scale=1.0)
    print(f"  relative to 1.1x:   {relative_q_logdet(shifted, spec, 0.7):+.8f}")

    print("\n= variation: d Gamma_q = sum lambda^(-q) d lambda =")
    rng = np.random.default_rng(5)
    delta = rng.uniform(-1.0, 1.0, len(spec))
    delta /= np.linalg.norm(delta)
    eps = 1e-5
    for q in (0.3, 1.0, 1.7):
        analytic = action_variation(spec, tuple(delta), q)
        up = Spectrum(spec.eigenvalues + eps * delta, 1.0)
        dn = Spectrum(spec.eigenvalues - eps * delta, 1.0)
        fd = (q_logdet(up, q) - q_logdet(dn, q)) / (2.0 * eps)
        print(f"  q = {q}: analytic {analytic:+.10f}   central FD {fd:+.10f}")

    print("\n= theta covariance ties power transforms to reparametrisation =")
    for theta in (-1.0, 0.5, 2.0):
        res = theta_covariance_residual(spec, 1.3, theta)
        print(f"  theta = {theta:+4}: |Gamma_q'[A] - Gamma_q[A^theta]/theta| = {res:.2e}")
    inv = power_transform(spec, -1.0)
    print(f"  inversion duality: Gamma_0.6[A] = {q_logdet(spec, 0.6):+.10f}")
    print(f"                    -Gamma_1.4[A^-1] = {-q_logdet(inv, 1.4):+.10f}")

    print(f"\n  effective_action is the same map: {effective_action(spec, 0.6):+.10f}")


if __name__ == "__main__":
    main()
