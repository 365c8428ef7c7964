"""Speed references: fixed work that runs no qspectra code.

The machine that defined this benchmark shares its cores with other
tenants, and its speed drifts by up to 40% over minutes, longer than a run
lasts, so no median within a run can remove it. Each run therefore times a
reference that does the same kind of work as its workload (an interpreter
start with the imports the CLI needs, text parsing and array kernels, small
array calls and scalar loops) next to the jobs, and scales its times by
``NOMINAL_S / reference time``: times are reported in seconds of a machine
running the reference in ``NOMINAL_S``. The drift is slower than a run,
so one factor, from the median of reference samples taken between all the
passes, scales the whole run; a factor per pass would add the reference's
own noise to every pass. No change to qspectra can change a
reference, so a faster or slower qspectra moves the scaled times as much as
the raw ones.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

REPEATS = 5

# Median reference times measured on the defining machine (2-core x86-64
# container); they fix the unit, not the comparison.
NOMINAL_S = {"spawn": 0.16, "text-arrays": 0.145, "small-calls": 0.125}

# which reference each workload's times are scaled by
FOR_WORKLOAD = {"cli-session": "spawn", "spectra-bulk": "text-arrays", "model-scan": "small-calls"}

@lru_cache(maxsize=1)
def _text() -> str:
    values = np.exp(np.random.default_rng(0).uniform(math.log(0.05), math.log(50.0), 100_000))
    return "\n".join(map(repr, np.round(values, 6).tolist())) + "\n"


def _spawn() -> None:
    subprocess.run(
        [sys.executable, "-c", "import numpy, argparse, json, fractions, dataclasses"],
        check=True, capture_output=True, timeout=60,
    )


def _text_arrays() -> None:
    values = np.asarray([float(v) for v in _text().split()])
    terms = np.expm1(0.5 * np.log(values)) / 0.5
    math.fsum(terms)
    math.fsum(values ** -0.7 * values)
    "\n".join(f"{v:.17g}" for v in values.tolist())


def _small_calls() -> None:
    acc = 0.0
    p = np.array([0.2, 0.3, 0.5])
    for k in range(3000):
        w = p ** (-1.4 - k * 1e-6)
        g = np.full((2, 2), w[-1])
        g[[0, 1], [0, 1]] += w[:-1]
        acc += np.linalg.slogdet(g)[1]
        acc += math.fsum((np.arange(50.0) + 0.3) ** -1.7)
    ks = np.arange(1.0, 500_001.0)
    acc += math.fsum(np.expm1(0.3 * np.log(ks)) / 0.3)


_KERNELS = {"spawn": _spawn, "text-arrays": _text_arrays, "small-calls": _small_calls}


def time_once(name: str) -> float:
    """Seconds one run of reference ``name`` takes now."""
    kernel = _KERNELS[name]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def measure(name: str) -> list[float]:
    """REPEATS timed runs of reference ``name``, in seconds."""
    if name == "text-arrays":
        _text()  # built once per process, outside the timing
    return [time_once(name) for _ in range(REPEATS)]


def scale(name: str, samples: list[float]) -> float:
    """Factor that turns raw seconds into seconds at the nominal speed,
    from the median of the reference's samples."""
    return NOMINAL_S[name] / statistics.median(samples)
