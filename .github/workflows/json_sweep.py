"""Compare the spectrum text readers and writers with their per-value
routes on seeded eigenvalues, and exit 1 at the first spectrum where one
differs: spectrum_to_json with json.dumps, byte for byte;
spectrum_to_csv of the values at scale 1, and g17_lines of the negated
values, with '%.17g\\n' % v for each value, byte for byte; g17_table of
the two columns (x, -x), one row per value, with '%.17g,%.17g\\n' of each
row, byte for byte (the cell array's V-item view and gather included);
spectrum_from_json of the JSON text with the spectrum itself; and
spectrum_from_csv of the values' repr, one a line, with
np.array(lines, dtype=float), bit for bit. One value outside the array
kernel's grammar sends a whole text to the per-line route, so the lines
of each spectrum that are inside it (I.F, at most 8 digits each side,
at most 2^53 as one integer) are also read by g17.read_decimals alone.

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
import re
import sys

import numpy as np

from qspectra.g17 import g17_lines, g17_table, read_decimals
from qspectra.spectrum import Spectrum, spectrum_from_csv, spectrum_from_json, spectrum_to_csv, spectrum_to_json

SPECTRUM = 10**6
SCALES = (1.0, 1.5, 1e-300)
LAWS = 6
DECIMAL = re.compile(r"([0-9]{1,8})\.([0-9]{1,8})")


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
    done = checked = 0
    for k in range(-(-total // SPECTRUM)):
        size = min(SPECTRUM, total - done)
        spec = Spectrum(law(k, np.random.default_rng([2026, k]), size), SCALES[k % len(SCALES)])
        text = spectrum_to_json(spec)
        expected = json.dumps({"eigenvalues": spec.eigenvalues.tolist(), "scale": spec.scale})
        if text != expected:
            at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
            print(f"spectrum {k} (law {k % LAWS}): byte {at}: {text[at - 40 : at + 40]!r} against {expected[at - 40 : at + 40]!r}")
            return 1
        x = spec.eigenvalues  # at scale 1, which no ratio leaves float64 at
        rows = np.arange(size)
        table = g17_table("", (x, -x), np.column_stack([rows, rows + size]))
        for what, got, cells in (
            ("spectrum_to_csv", spectrum_to_csv(Spectrum(x, 1.0)), ["%.17g\n" % v for v in x.tolist()]),
            ("g17_lines", g17_lines(-x), ["%.17g\n" % v for v in (-x).tolist()]),
            ("g17_table", table, ["%.17g,%.17g\n" % (v, -v) for v in x.tolist()]),
        ):
            if got != "".join(cells):
                at = next((i for i, (a, b) in enumerate(zip(got.splitlines(True), cells)) if a != b), len(cells))
                print(f"spectrum {k} (law {k % LAWS}): {what}: line {at + 1}: {got.splitlines(True)[at:at + 1]!r} "
                      f"against {cells[at:at + 1]!r}")
                return 1
        if spectrum_from_json(text) != spec:
            print(f"spectrum {k} (law {k % LAWS}): spectrum_from_json does not read back the spectrum")
            return 1
        lines = list(map(repr, spec.eigenvalues.tolist()))
        inside = [line for line in lines if (m := DECIMAL.fullmatch(line)) and int(m[1] + m[2]) <= 2**53]
        inside_text = "\n".join(inside)
        for what, part, got in (
            ("spectrum_from_csv", lines, spectrum_from_csv("\n".join(lines) + "\n").eigenvalues),
            ("read_decimals", inside, read_decimals(inside_text, "\n", 0, len(inside_text), False) if inside else np.empty(0)),
        ):
            expected = np.array(part, dtype=float)
            if got is None or got.tobytes() != expected.tobytes():
                at = 0 if got is None else np.flatnonzero(got.view(np.int64) != expected.view(np.int64))[0]
                print(f"spectrum {k} (law {k % LAWS}): {what}: line {at + 1}: {part[at]!r} read as "
                      f"{None if got is None else got[at]!r}")
                return 1
        checked += len(inside)
        done += size
    print(f"{done} values in {k + 1} spectra: spectrum_to_json is json.dumps byte for byte, spectrum_to_csv, "
          f"g17_lines of the negated values and g17_table of both are '%.17g' byte for byte, and both readers "
          f"read the texts back bit for bit ({checked} lines by read_decimals alone)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 10**7))
