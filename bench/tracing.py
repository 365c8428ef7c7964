"""Spans around the public functions of each qspectra module.

The wrappers are installed from the benchmark side by rebinding module
attributes, so nothing under ``src/`` changes. A span is the tuple
(name, start, end, parent, job): ``parent`` is the index of the enclosing
span in the same process, or -1 for a root span. Spans stay in memory and
are written out once, when the run ends.

Counts that give per-unit ratios (eigenvalues, bytes, terms, points) are
recorded at the same boundaries as the spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("qalgebra", "combinatorics", "spectrum", "zeta", "geometry", "verify", "cli")
_EIG_BYTES = 8


def _eigs(args, result):
    return len(args[0])


# span name -> (counter name, function of (args, result) giving the amount)
_COUNTERS = {
    "spectrum.Spectrum": ("eigs", lambda args, result: len(args[0].eigenvalues)),
    "spectrum.spectrum_from_csv": ("bytes", lambda args, result: len(args[0])),
    "spectrum.q_logdet": ("eigs", _eigs),
    "spectrum.action_variation": ("eigs", _eigs),
    "spectrum.power_transform": ("eigs", _eigs),
    "combinatorics.q_factorial_log": ("terms", lambda args, result: int(args[0])),
    "geometry.grid_field": ("points", lambda args, result: len(result)),
    "geometry.field_to_csv": ("bytes", lambda args, result: len(result)),
    "verify.run_checks": ("checks_failed", lambda args, result: sum(not r.passed for r in result)),
}


class Tracer:
    """Collects spans and counters while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.stack: list[int] = []
        self.job = -1
        self.active = False

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer):
    """Route every public function of the qspectra modules through tracer;
    returns a function that puts the originals back.

    Each module's ``__all__`` names the public functions. Every module
    namespace that holds one of them (including the ones that imported it
    with ``from ... import``) is rebound to the wrapper, so calls between
    modules are traced too. ``Spectrum`` construction is traced through its
    ``__post_init__``.
    """
    mods = [importlib.import_module(f"qspectra.{m}") for m in MODULES]
    package = importlib.import_module("qspectra")
    wrappers = {}
    for short, mod in zip(MODULES, mods):
        names = list(getattr(mod, "__all__", ()))
        for name in names:
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", "") == mod.__name__:
                wrappers[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
    originals = []
    for mod in mods + [package]:
        for name, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and callable(obj):
                originals.append((mod, name, obj))
                setattr(mod, name, wrapper)
    spectrum_cls = mods[MODULES.index("spectrum")].Spectrum
    originals.append((spectrum_cls, "__post_init__", spectrum_cls.__post_init__))
    spectrum_cls.__post_init__ = tracer.wrap("spectrum.Spectrum", spectrum_cls.__post_init__)

    def restore() -> None:
        for owner, name, obj in originals:
            setattr(owner, name, obj)

    return restore


def load(path) -> tuple[list, dict]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return [tuple(s) for s in obj["spans"]], obj["counts"]


def merge(parts) -> tuple[list, dict]:
    """Concatenate span lists from several processes, fixing parent indices."""
    spans: list = []
    counts: dict = defaultdict(float)
    for part_spans, part_counts in parts:
        base = len(spans)
        for name, start, end, parent, job in part_spans:
            spans.append((name, start, end, parent + base if parent >= 0 else -1, job))
        for key, value in part_counts.items():
            counts[key] += value
    return spans, counts


def aggregate(spans) -> dict:
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children; children nest strictly inside their parent because every
    workload runs on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = agg[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return agg


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num: float, den: float, unit_scale: float = 1.0) -> float:
    return num / den * unit_scale if den else 0.0


def layer_metrics(spans, counts, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass over the job list.

    Values are totals over the pass; a layer a workload never calls reads 0.
    ``*_per_*`` ratios divide a function's whole span time, children
    included, by the work it was given; ``self_s`` excludes the children.
    """
    agg = aggregate(spans)

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def self_s(name):
        return agg[name]["self_s"] if name in agg else 0.0

    def total_s(name):
        return agg[name]["total_s"] if name in agg else 0.0

    def count(key):
        return float(counts.get(key, 0.0))

    m: dict = {}
    m["cli.main_s"] = (total_s("cli.main"), "s")
    m["cli.main_self_s"] = (self_s("cli.main"), "s")
    m["verify.run_checks_s"] = (total_s("verify.run_checks"), "s")
    m["verify.checks_failed"] = (_ratio(count("verify.run_checks.checks_failed"), calls("verify.run_checks")), "count")
    for fn in ("q_log", "q_exp", "q_mul", "q_div"):
        m[f"qalgebra.{fn}.calls"] = (calls(f"qalgebra.{fn}"), "count")
        m[f"qalgebra.{fn}.self_s"] = (self_s(f"qalgebra.{fn}"), "s")
    eigs = count("spectrum.Spectrum.eigs")
    m["spectrum.Spectrum.eigs"] = (eigs, "count")
    m["spectrum.Spectrum.self_s"] = (self_s("spectrum.Spectrum"), "s")
    m["spectrum.Spectrum.ns_per_eig"] = (_ratio(total_s("spectrum.Spectrum"), eigs, 1e9), "ns")
    m["spectrum.spectrum_from_csv.bytes"] = (count("spectrum.spectrum_from_csv.bytes"), "B")
    m["spectrum.spectrum_from_csv.self_s"] = (self_s("spectrum.spectrum_from_csv"), "s")
    m["spectrum.spectrum_to_csv.self_s"] = (self_s("spectrum.spectrum_to_csv"), "s")
    m["spectrum.spectrum_to_json.self_s"] = (self_s("spectrum.spectrum_to_json"), "s")
    for fn in ("q_logdet", "action_variation", "power_transform"):
        name = f"spectrum.{fn}"
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.ns_per_eig"] = (_ratio(total_s(name), count(f"{name}.eigs"), 1e9), "ns")
    # computed, not measured: the 8 bytes per eigenvalue the kernel must read
    m["spectrum.q_logdet.bytes_computed"] = (_EIG_BYTES * count("spectrum.q_logdet.eigs"), "B")
    hz_calls = calls("zeta.hurwitz_zeta")
    m["zeta.hurwitz_zeta.calls"] = (hz_calls, "count")
    m["zeta.hurwitz_zeta.self_s"] = (self_s("zeta.hurwitz_zeta"), "s")
    m["zeta.hurwitz_zeta.us_per_call"] = (_ratio(total_s("zeta.hurwitz_zeta"), hz_calls, 1e6), "us")
    qdet_calls = calls("zeta.qdet_zeta")
    m["zeta.qdet_zeta.calls"] = (qdet_calls, "count")
    m["zeta.qdet_zeta.self_s"] = (self_s("zeta.qdet_zeta"), "s")
    inside = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "zeta.zeta_value" and _has_ancestor(spans, i, "zeta.qdet_zeta")
    )
    m["zeta.zeta_value_per_qdet"] = (_ratio(inside, qdet_calls), "ratio")
    terms = count("combinatorics.q_factorial_log.terms")
    m["combinatorics.q_factorial_log.calls"] = (calls("combinatorics.q_factorial_log"), "count")
    m["combinatorics.q_factorial_log.terms"] = (terms, "count")
    m["combinatorics.q_factorial_log.self_s"] = (self_s("combinatorics.q_factorial_log"), "s")
    m["combinatorics.q_factorial_log.ns_per_term"] = (
        _ratio(total_s("combinatorics.q_factorial_log"), terms, 1e9), "ns")
    m["combinatorics.q_multinomial_log.self_s"] = (self_s("combinatorics.q_multinomial_log"), "s")
    m["combinatorics.asymptotic_remainder.self_s"] = (self_s("combinatorics.asymptotic_remainder"), "s")
    points = count("geometry.grid_field.points")
    m["geometry.grid_field.points"] = (points, "count")
    m["geometry.grid_field.self_s"] = (self_s("geometry.grid_field"), "s")
    m["geometry.grid_field.us_per_point"] = (_ratio(total_s("geometry.grid_field"), points, 1e6), "us")
    m["geometry.volume_element.calls"] = (calls("geometry.volume_element"), "count")
    m["geometry.potential.calls"] = (calls("geometry.potential"), "count")
    m["geometry.field_to_csv.bytes"] = (count("geometry.field_to_csv.bytes"), "B")
    m["geometry.field_to_csv.self_s"] = (self_s("geometry.field_to_csv"), "s")
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    m["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    m["trace.unattributed_s"] = (traced_wall_s - roots, "s")
    return m
