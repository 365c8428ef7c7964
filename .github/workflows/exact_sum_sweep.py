"""Compare qalgebra.exact_sum with math.fsum on seeded arrays, bit for bit
(the sign of a zero included), and exit 1 at the first array where they
differ. The sweep counts the extraction passes of each array (one np.add
into sigma each) and exits 1 unless some block takes more than 3: an
array of B blocks that takes more than 3 B passes has one.

The arrays take sizes in turn from 513 (just above the math.fsum
shortcut) to 10^6, around the block of 2^16 entries among them, and
their terms in turn from four laws: log ratios ln x and ln_q terms
(q uniform in [-2, 3]) of log-uniform ratios x in [1e-3, 1e6]; normal
mantissas spread over 10^+-20; and pairs x, -x of normal terms, each with
1e-17 normal noise added. Each array is scaled by 1, 2^-1000 (its small
terms are then subnormal) or 2^900 in turn.

A second section checks the determinants a finite operator keeps:
FiniteDiag.qdet, warm (its logs kept, each q's sum kept), against the
cold sum exact_sum(q_log_array(ratios, q)), bit for bit, on 10^6 seeded
log-uniform eigenvalues at three scales, each over 50 q (some repeated).

Usage: PYTHONPATH=src python exact_sum_sweep.py [VALUES]   (default: 10000000)
"""

import math
import sys
from unittest import mock

import numpy as np

from qspectra.qalgebra import _BLOCK, exact_sum, q_log_array
from qspectra.spectrum import FiniteDiag

SIZES = (513, 4097, 2**16 - 1, 2**16, 2**16 + 1, 200_003, 10**6)
LAWS = ("log", "ln_q", "spread", "pairs")
SCALES = (1.0, 2.0**-1000, 2.0**900)


def law(kind: str, rng: np.random.Generator, size: int) -> np.ndarray:
    ratios = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size))
    if kind == "log":
        return np.log(ratios)
    if kind == "ln_q":
        return q_log_array(ratios, float(rng.uniform(-2.0, 3.0)))
    if kind == "spread":
        return rng.normal(size=size) * 10.0 ** rng.uniform(-20.0, 20.0, size)
    half = rng.normal(size=size // 2)
    x = np.concatenate([half, -half, rng.normal(size=size % 2)]) + rng.normal(size=size) * 1e-17
    rng.shuffle(x)
    return x


def same(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def determinants(size: int = 10**6) -> int:
    rng = np.random.default_rng([2026, 17])
    ratios = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), size))
    # q = 1, the band point, +-0, near 2, where terms overflow, and seeded q
    qs = [1.0, 1.0 + 5e-9, 0.0, -0.0, 2.0 - 1e-12, 400.0, -400.0, *rng.uniform(-3.0, 4.0, 33).tolist()]
    qs += qs[::4]  # repeats, from the memo
    for scale in (1.0, 1.37, 1e-100):
        spec = FiniteDiag(ratios * scale, scale)
        for q in qs:
            warm, cold = spec.qdet(q), exact_sum(q_log_array(spec.dimensionless(), q))
            if warm.hex() != cold.hex():
                print(f"qdet at scale {scale!r}, q = {q!r}: warm {warm!r}, cold {cold!r}")
                return 1
    print(f"{size} eigenvalues at 3 scales, {len(qs)} q each: FiniteDiag.qdet warm is the cold sum bit for bit")
    return 0


def main(total: int) -> int:
    done = k = deep = passes = 0
    while done < total:
        size = min(SIZES[k % len(SIZES)], total - done)
        kind, scale = LAWS[k % len(LAWS)], SCALES[k % len(SCALES)]
        x = law(kind, np.random.default_rng([2026, k]), size) * scale
        expected = math.fsum(x.tolist())
        with mock.patch.object(np, "add", wraps=np.add) as add:
            got = exact_sum(x)
        if not same(got, expected):
            print(f"array {k} ({kind}, {size} terms, scale {scale!r}): exact_sum gives {got!r}, math.fsum {expected!r}")
            return 1
        deep += add.call_count > 3 * -(-size // _BLOCK)
        passes += add.call_count
        done += size
        k += 1
    print(f"{done} values in {k} arrays: exact_sum is math.fsum bit for bit")
    print(f"{passes} extraction passes; {deep} arrays have a block of more than 3")
    if not deep:
        print("no block took more than 3 passes; the sweep must reach one")
        return 1
    return determinants()


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 10**7))
