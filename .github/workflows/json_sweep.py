"""Compare spectrum_to_json with json.dumps on seeded eigenvalues, byte for
byte, and exit 1 at the first spectrum whose texts differ.

The values come in spectra of 10^6 (the last one shorter), drawn in turn
from six laws: six decimals in [0.05, 50], as measured spectra are
written; three significant digits over 1e-8 to 1e20; 17-digit values
exp(u), u uniform in [-30, 30]; the same rounded to 15 and to 16 digits;
and positive finite bit patterns, which include subnormals and every
exponent. Each spectrum takes a scale from 1, 1.5 and 1e-300 in turn.

Usage: PYTHONPATH=src python json_sweep.py [VALUES]   (default: 10000000)
"""

import json
import math
import sys

import numpy as np

from qspectra.spectrum import Spectrum, spectrum_to_json

SPECTRUM = 10**6
SCALES = (1.0, 1.5, 1e-300)
LAWS = 6


def digits(x: np.ndarray, n: int) -> np.ndarray:
    """x rounded to n significant digits, as float() reads '%.{n}e'."""
    return np.array(np.char.mod(f"%.{n - 1}e", x), dtype=float)


def law(k: int, rng: np.random.Generator, size: int) -> np.ndarray:
    kind = k % LAWS
    if kind == 0:
        return np.round(np.exp(rng.uniform(math.log(0.05), math.log(50.0), size)), 6)
    if kind == 1:
        return digits(10.0 ** rng.uniform(-8.0, 20.0, size), 3)
    if kind in (2, 3, 4):
        x = np.exp(rng.uniform(-30.0, 30.0, size))
        return x if kind == 2 else digits(x, 12 + kind)  # 15 and 16 digits
    bits = rng.integers(1, 0x7FF0_0000_0000_0000, size, dtype=np.uint64)  # 5e-324 .. the largest double
    return bits.view(float)


def main(total: int) -> int:
    done = 0
    for k in range(-(-total // SPECTRUM)):
        size = min(SPECTRUM, total - done)
        spec = Spectrum(law(k, np.random.default_rng([2026, k]), size), SCALES[k % len(SCALES)])
        text = spectrum_to_json(spec)
        expected = json.dumps({"eigenvalues": spec.eigenvalues.tolist(), "scale": spec.scale})
        if text != expected:
            at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
            print(f"spectrum {k} (law {k % LAWS}): byte {at}: {text[at - 40 : at + 40]!r} against {expected[at - 40 : at + 40]!r}")
            return 1
        done += size
    print(f"{done} values in {k + 1} spectra: spectrum_to_json is json.dumps byte for byte")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 10**7))
