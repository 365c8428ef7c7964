"""Tour of the deformed scalar calculus.

The q-logarithm and q-exponential replace ln and exp with a one-parameter
family that is additive under the q-product instead of the ordinary
product. This script walks through the basic identities and the clamp
flag that marks where the deformed functions leave their natural domain.
"""

import math

from qspectra import q_div, q_exp, q_log, q_mul, q_prod, theta_reparam


def main() -> None:
    print("= q-log and q-exp =")
    for q in (0.0, 0.5, 1.0, 2.0):
        print(f"  q_log(e, {q:3}) = {q_log(math.e, q):+.6f}   (ln e = 1)")

    print("\n= inverse pair =")
    x = 3.7
    for q in (0.3, 1.0, 1.8):
        back = q_exp(q_log(x, q), q)
        print(f"  q = {q}: exp_q(ln_q {x}) = {back.value:.12f}, clamped={back.clamped}")

    print("\n= pseudo-additivity: ln_q(xy) = ln_q x + ln_q y + (1-q) ln_q x ln_q y =")
    x, y, q = 2.0, 5.0, 0.4
    lx, ly = q_log(x, q), q_log(y, q)
    lhs = q_log(x * y, q)
    rhs = lx + ly + (1.0 - q) * lx * ly
    print(f"  lhs = {lhs:.15f}")
    print(f"  rhs = {rhs:.15f}")

    print("\n= q-product and q-quotient =")
    prod = q_mul(x, y, q)
    quot = q_div(x, y, q)
    print(f"  {x} (x)_q {y} = {prod.value:.6f}  (ordinary product {x * y})")
    print(f"  {x} (/)_q {y} = {quot.value:.6f}  (ordinary quotient {x / y})")
    print(f"  ln_q of the q-product:  {q_log(prod.value, q):.15f}")
    print(f"  ln_q x + ln_q y:        {lx + ly:.15f}")

    print("\n= the positive-part clamp =")
    # for q < 1 the q-exponential hits zero once its argument drops
    # below -1/(1-q); the flag records that the value was truncated
    clamped = q_mul(0.25, 0.5, 0.0)
    print(f"  0.25 (x)_0 0.5 = {clamped.value} with clamped={clamped.clamped}")
    diverged = q_prod((3.0, 3.0, 3.0), 1.7)
    print(f"  3 (x)_1.7 3 (x)_1.7 3 = {diverged.value} with clamped={diverged.clamped}")

    print("\n= theta reparametrisation: q' = 1 + theta (q - 1) =")
    q, theta = 1.6, 0.5
    qprime = theta_reparam(q, theta)
    lhs = q_log(x, qprime)
    rhs = q_log(x**theta, q) / theta
    print(f"  q = {q}, theta = {theta} -> q' = {qprime}")
    print(f"  ln_q'(x)            = {lhs:.15f}")
    print(f"  ln_q(x^theta)/theta = {rhs:.15f}")

    q = 1.0 + 1e-12
    print(f"\n  q = {q} is treated as classical: q_log({x}, q) == ln {x} is {q_log(x, q) == math.log(x)}")


if __name__ == "__main__":
    main()
