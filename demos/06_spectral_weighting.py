"""Spectral weights: how q tilts the response to eigenvalue changes.

The variation of Gamma_q weights a perturbation of eigenvalue lambda by
w(lambda) = lambda^(-q). All curves pass through (1, 1); below lambda = 1
larger q amplifies, above it larger q suppresses. The flow derivative
applies the same weight to a whole spectrum moving under a flow.
"""

from qspectra import Spectrum, action_variation, spectral_weight


def main() -> None:
    qs = (0.5, 1.0, 2.0)
    lambdas = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)

    print("= w(lambda) = lambda^(-q) =")
    header = "  {:>8} " + " ".join("{:>12}" for _ in qs)
    print(header.format("lambda", *(f"q={q:g}" for q in qs)))
    for lam in lambdas:
        row = [spectral_weight(lam, q) for q in qs]
        print(("  {:>8g} " + " ".join("{:>12.6f}" for _ in qs)).format(lam, *row))
    print("  every column equals 1 at lambda = 1; ordering flips across it")

    print("\n= weighting a spectral flow =")
    spec = Spectrum((0.2, 1.0, 5.0), scale=1.0)
    rates = (0.1, 0.1, 0.1)  # uniform drift of all eigenvalues
    for q in qs:
        print(f"  q = {q:3}: dGamma/dt = {action_variation(spec, rates, q):+.8f}")
    print("  small eigenvalues dominate once q > 0: the 0.2 mode carries")
    print(f"  weight {spectral_weight(0.2, 2.0):.1f} at q = 2, the 5.0 mode only "
          f"{spectral_weight(5.0, 2.0):.3f}")

    print("\n= the q = 1 row is the ordinary d(log det) =")
    classical = sum(r / lam for lam, r in zip(spec.eigenvalues, rates))
    print(f"  sum rate/lambda = {classical:.8f}")
    print(f"  action_variation = {action_variation(spec, rates, 1.0):.8f}")


if __name__ == "__main__":
    main()
