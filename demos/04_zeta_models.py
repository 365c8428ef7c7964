"""Spectral zeta models and the finite-difference determinant.

Infinite spectra get a zeta model: zeta_A(s) = sum lambda_k^(-s),
analytically continued by an Euler-Maclaurin scheme. The classical
zeta-regularised log-determinant is -zeta_A'(0); its deformed cousin
replaces the derivative by the finite difference
(zeta_A(q-1) - zeta_A(0)) / (1 - q), which recovers -zeta_A'(0) as
q -> 1 and stays finite away from the model's pole.
"""

import math

from qspectra import (
    PoleError,
    power_spectrum,
    qdet_zeta,
    shifted_linear,
    zeta_deriv0,
    zeta_value,
)


def main() -> None:
    harmonic = shifted_linear(1.0)  # eigenvalues 1, 2, 3, ...
    print("= Riemann values from the continuation =")
    print(f"  zeta(0)  = {zeta_value(harmonic, 0.0):+.15f}   (exactly -1/2)")
    print(f"  zeta(-1) = {zeta_value(harmonic, -1.0):+.15f}   (exactly -1/12)")
    print(f"  zeta(2)  = {zeta_value(harmonic, 2.0):+.15f}   (pi^2/6 = {math.pi**2 / 6:.15f})")

    print("\n= the regularised determinant of the harmonic ladder =")
    print(f"  -zeta'(0)     = {-zeta_deriv0(harmonic):.12f}")
    print(f"  ln sqrt(2 pi) = {0.5 * math.log(2.0 * math.pi):.12f}")

    print("\n= finite-difference determinant approaching the classical one =")
    target = 0.5 * math.log(2.0 * math.pi)
    for dq in (1e-1, 1e-2, 1e-3, 1e-4):
        val = qdet_zeta(harmonic, 1.0 + dq)
        print(f"  q = 1 + {dq:<6}: qdet = {val:.10f}   error = {val - target:+.3e}")

    print("\n= poles bound the admissible q range =")
    lattice = power_spectrum(2.0)  # eigenvalues k^2
    print(f"  shifted_linear pole at q = {harmonic.pole}")
    print(f"  power_spectrum(2) pole at q = {lattice.pole}")
    try:
        qdet_zeta(lattice, 1.5)
    except PoleError as exc:
        print(f"  qdet at the pole raises: {exc}")
    print(f"  just off the pole: qdet(q=1.499) = {qdet_zeta(lattice, 1.499):.6f}")

    print("\n= scale enters as mu^s =")
    scaled = shifted_linear(1.0, scale=2.0)
    print(f"  zeta_(A/2)(2) = {zeta_value(scaled, 2.0):.15f}")
    print(f"  2^2 zeta_A(2) = {4.0 * zeta_value(harmonic, 2.0):.15f}")


if __name__ == "__main__":
    main()
