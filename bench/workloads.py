"""The three workloads: seeded inputs, timed jobs and their checks.

A job has three parts. ``prepare`` builds the inputs the program receives
(file names, texts, arrays) and is not timed. ``call`` is the timed work.
``check`` compares the output with an independent reference and returns
None when it is right, else the reason it is wrong.

Every workload is a closed loop with one caller: the next job starts when
the previous one has returned. The seed fixes the job list of one pass, and
a run repeats that pass a number of times fixed by its length, so every
run with the same arguments does the same work and reports statistics over
the same number of samples.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle

import qspectra as Q
from qspectra.errors import PoleError, UnsupportedModelError

BENCH = Path(__file__).resolve().parent

# Seconds one pass over each workload's job list takes on a 2-core x86-64
# container. They fix the number of passes in a run, not how long it takes.
PASS_S = {"cli-session": 4.0, "spectra-bulk": 4.0, "model-scan": 4.2}
BULK_JOBS = 11


@dataclass
class Job:
    key: str
    prepare: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], "str | None"]
    known_bad: bool = False


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _log_quantiles(count: int, lo: float, hi: float) -> list[int]:
    """The ``count`` mid-quantiles of the log-uniform law on [10^lo, 10^hi].

    Sizes do not depend on the seed, so every seed moves the same number of
    eigenvalues; the seed draws the values, formats' order and q grids.
    """
    u = (np.arange(count) + 0.5) / count
    return [int(round(10 ** (lo + (hi - lo) * v))) for v in u]


def _eigenvalues(rng, n: int) -> np.ndarray:
    """Log-uniform eigenvalues in [0.05, 50], six decimals as in measured data."""
    return np.round(np.exp(rng.uniform(math.log(0.05), math.log(50.0), n)), 6)


def _csv(values: np.ndarray) -> str:
    return "\n".join(map(repr, values.tolist())) + "\n"


def _spectrum_json(values: np.ndarray, scale: float) -> str:
    return json.dumps({"eigenvalues": values.tolist(), "scale": scale})


def _expect_raise(out, exc_type, what: str):
    if isinstance(out, exc_type):
        return None
    return f"{what}: expected {exc_type.__name__}, got {out!r}"[:300]


# ---------------------------------------------------------------------------
# cli-session


class CliLauncher:
    """Runs one CLI invocation in the directory that holds its input files;
    with ``spans_dir`` set, through the tracing bootstrap, which writes the
    child's spans to one file per invocation."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.spans_dir: Path | None = None
        self.job = 0

    def __call__(self, argv: list[str]):
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "qspectra", *argv]
        else:
            spans = self.spans_dir / f"job-{self.job}.json"
            cmd = [sys.executable, str(BENCH / "cli_boot.py"), str(spans), str(self.job), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr


def _load_operand(path: Path):
    """The documented operand dispatch: JSON with 'kind' is a model, other
    JSON a spectrum, anything else one-column CSV."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if "kind" in obj:
            return Q.model_from_json(text)
        return Q.spectrum_from_json(text)
    return Q.spectrum_from_csv(text)


def _library_qdet(spec: dict, workdir: Path) -> float:
    operand = _load_operand(workdir / spec["input"])
    refs = [_load_operand(workdir / r) for r in spec["refs"]]
    if spec["theta"] is not None:
        th = spec["theta"]
        tf = lambda o: Q.power_transform(o, th) if isinstance(o, Q.Spectrum) else Q.power_transform_model(o, th)
        operand, refs = tf(operand), [tf(r) for r in refs]
    if refs:
        return Q.relative_q_logdet(operand, Q.concatenate(*refs), spec["q"])
    if isinstance(operand, Q.Spectrum):
        return Q.q_logdet(operand, spec["q"])
    return Q.qdet_zeta(operand, spec["q"])


def _library_zeta(spec: dict, workdir: Path) -> float:
    operand = _load_operand(workdir / spec["input"])
    model = operand if isinstance(operand, Q.ZetaModel) else Q.from_spectrum(operand)
    return Q.zeta_deriv0(model) if spec["deriv0"] else Q.zeta_value(model, spec["s"])


def _report_value(stdout: bytes, fmt: str) -> float:
    text = stdout.decode()
    if fmt == "json":
        return float(json.loads(text)["value"])
    fields = dict(line.split(",", 1) for line in text.splitlines()[1:])
    return float(fields["value"])


class CliSession:
    """Files and argument lists for the CLI jobs, and their references."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        rng = _rng(seed, 1)
        self.models = {
            "shifted.json": ("shifted_linear", float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.5, 2.0))),
            "power.json": ("power_spectrum", float(rng.uniform(0.6, 2.0)), float(rng.uniform(0.5, 2.0))),
        }
        for name, (kind, param, scale) in self.models.items():
            key = "a" if kind == "shifted_linear" else "alpha"
            self._write(name, json.dumps({"kind": kind, key: param, "scale": scale}))
        self.arrays: dict[str, tuple[np.ndarray, float]] = {}
        finite = _eigenvalues(rng, 20)
        self._write("finite.json", json.dumps({"kind": "finite_diag", "eigenvalues": finite.tolist(), "scale": 1.5}))
        self.arrays["finite.json"] = (finite, 1.5)
        for i, n in enumerate(_log_quantiles(4, 2.0, 4.0)):
            self._spectrum(f"spec_{i}.csv", _eigenvalues(rng, n))
        self._spectrum("spec_json.json", _eigenvalues(rng, 1000), scale=float(np.round(rng.uniform(0.5, 2.0), 3)))
        self._spectrum("ref_a.csv", _eigenvalues(rng, 300))
        self._spectrum("ref_b.csv", _eigenvalues(rng, 700))
        self._spectrum("big.csv", _eigenvalues(rng, 100_000))
        good = _csv(_eigenvalues(rng, 50)).splitlines()
        good.insert(int(rng.integers(1, 49)), "0.5;0.7")
        self._write("bad.csv", "\n".join(good) + "\n")

        def q(lo, hi):
            return float(np.round(rng.uniform(lo, hi), 4))

        # model jobs keep the Hurwitz argument in [-0.9, 0.9], where the
        # continuation meets its contract; model-scan covers the whole domain
        alpha = self.models["power.json"][1]
        theta = q(0.5, 2.0)
        self.specs = [
            self._qdet("shifted.json", q(0.3, 1.9)),
            self._qdet("power.json", 1.0 - q(0.05, 0.9) / alpha, fmt="csv"),
            self._qdet("shifted.json", 1.0),
            self._qdet("power.json", 1.0 - q(0.05, 0.9) / (alpha * theta), theta=theta),
            self._qdet("finite.json", q(-1.0, 3.0)),
            self._qdet("spec_0.csv", q(-1.0, 3.0)),
            self._qdet("spec_1.csv", q(-1.0, 3.0), refs=["ref_a.csv", "ref_b.csv"]),
            self._qdet("spec_json.json", q(-1.0, 3.0), theta=q(0.5, 2.0)),
            self._qdet("spec_2.csv", q(-1.0, 3.0), fmt="csv"),
            self._qdet("spec_3.csv", q(-1.0, 3.0), refs=["ref_a.csv"]),
            self._qdet("big.csv", q(-1.0, 3.0)),
            self._zeta("shifted.json", s=q(-0.9, 0.9)),
            self._zeta("power.json", s=q(-0.9, 0.9) / alpha),
            self._zeta("shifted.json", deriv0=True),
            self._zeta("finite.json", deriv0=True),
            {"cmd": "weight", "argv": ["weight", "--q-list=" + ",".join(str(q(-1.0, 3.0)) for _ in range(3))]},
            {"cmd": "geometry", "argv": ["geometry"]},
            {"cmd": "verify", "argv": ["verify"]},
            {"cmd": "refused", "argv": ["qdet", "--q", "0.5", "--input", "bad.csv"]},
            {"cmd": "refused", "argv": ["qdet", "--q", "2", "--input", "shifted.json"]},
        ]

    def _write(self, name: str, text: str) -> None:
        (self.workdir / name).write_text(text, encoding="utf-8")

    def _spectrum(self, name: str, values: np.ndarray, scale: float = 1.0) -> None:
        self.arrays[name] = (values, scale)
        self._write(name, _spectrum_json(values, scale) if name.endswith(".json") else _csv(values))

    @staticmethod
    def _qdet(path, q, theta=None, refs=(), fmt="json"):
        argv = ["qdet", "--q", repr(q), "--input", path]
        if theta is not None:
            argv += ["--theta", repr(theta)]
        for ref in refs:
            argv += ["--input-ref", ref]
        if fmt != "json":
            argv += ["--format", fmt]
        return {"cmd": "qdet", "argv": argv, "input": path, "q": q, "theta": theta, "refs": list(refs), "fmt": fmt}

    @staticmethod
    def _zeta(path, s=None, deriv0=False):
        argv = ["zeta", "--input", path] + (["--deriv0"] if deriv0 else ["--s", repr(s)])
        return {"cmd": "zeta", "argv": argv, "input": path, "s": s, "deriv0": deriv0, "fmt": "json"}

    def jobs(self, seed: int, launcher: CliLauncher) -> list[Job]:
        order = _rng(seed, 2).permutation(len(self.specs))
        return [
            Job(f"cli-{i}", lambda i=i: self.specs[i]["argv"], launcher,
                lambda argv, out, i=i: self.check(i, out))
            for i in order.tolist()
        ]

    # -- checks -------------------------------------------------------------

    def check(self, i: int, out) -> "str | None":
        spec = self.specs[i]
        if isinstance(out, Exception):
            return f"{spec['argv']}: {out!r}"
        code, stdout, stderr = out
        reason = getattr(self, f"_check_{spec['cmd']}")(spec, code, stdout, stderr)
        return None if reason is None else f"{' '.join(spec['argv'])}: {reason}"

    def _oracle_value(self, spec: dict) -> tuple[float, float]:
        path = spec["input"]
        if path in self.models:
            kind, param, scale = self.models[path]
            if spec["cmd"] == "zeta":
                if spec["deriv0"]:
                    ref = float(ZETA.deriv0(kind, param, scale, 1))
                    return ref, oracle.DERIV_TOL * max(1.0, abs(ref))
                return ZETA.value_tol(kind, param, scale, spec["s"])
            if spec["theta"] is not None:
                param, scale = param * spec["theta"], scale ** spec["theta"]
            return ZETA.qdet(kind, param, scale, spec["q"])
        values, scale = self.arrays[path]
        x = values / scale
        if spec["cmd"] == "zeta":
            ref = -math.fsum(np.log(x))
            return ref, oracle.DERIV_TOL * max(1.0, abs(ref))
        if path == "finite.json":
            return oracle.finite_zeta_qdet(x, spec["q"])
        if spec["theta"] is not None:
            x = x ** spec["theta"]
        value, tol = oracle.q_logdet(x, spec["q"])
        if spec["refs"]:
            ref = np.concatenate([self.arrays[r][0] / self.arrays[r][1] for r in spec["refs"]])
            if spec["theta"] is not None:
                ref = ref ** spec["theta"]
            ref_value, ref_tol = oracle.q_logdet(ref, spec["q"])
            value, tol = value - ref_value, tol + ref_tol
        return value, tol

    def _check_qdet(self, spec, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.decode()[-200:]}"
        value = _report_value(stdout, spec["fmt"])
        compute = _library_qdet if spec["cmd"] == "qdet" else _library_zeta
        lib = compute(spec, self.workdir)
        if value != lib:
            return f"value {value!r} differs from the library call {lib!r}"
        ref, tol = self._oracle_value(spec)
        STATS.zeta_err(spec["input"] in self.models or spec["cmd"] == "zeta", value, ref)
        if not oracle.within(value, ref, tol):
            return f"value {value!r} vs reference {ref!r} (tolerance {tol:.3g})"
        return None

    _check_zeta = _check_qdet

    def _check_weight(self, spec, code, stdout, stderr):
        if code != 0:
            return f"exit {code}"
        lines = stdout.decode().splitlines()
        qs = [float(t) for t in spec["argv"][1].partition("=")[2].split(",")]
        if lines[0] != ",".join(["lambda"] + [f"q={q:g}" for q in qs]):
            return f"header {lines[0]!r}"
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        if not np.any(rows[:, 0] == 1.0):
            return "lambda = 1 missing from the grid"
        ref = rows[:, :1] ** -np.array(qs)
        if not np.all(np.abs(rows[:, 1:] - ref) <= 4 * oracle.EPS * np.abs(ref)):
            return "weights differ from lambda^(-q)"
        return None

    def _check_geometry(self, spec, code, stdout, stderr):
        if code != 0:
            return f"exit {code}"
        return check_field(stdout.decode(), resolution=60, q=1.4, margin=1e-3)

    def _check_verify(self, spec, code, stdout, stderr):
        failures = json.loads(stdout)["failures"]
        if code != 1 or failures != ["combinatorics.remainder_scaling_q1.5"]:
            return f"exit {code}, failures {failures}"
        return None

    def _check_refused(self, spec, code, stdout, stderr):
        err = stderr.decode()
        if code != 2 or stdout or not err.startswith("error:") or "Traceback" in err:
            return f"exit {code}, stderr {err[:200]!r}"
        return None


# ---------------------------------------------------------------------------
# simplex fields (shared by cli-session and model-scan)


def check_field(text: str, resolution: int, q: float, margin: float, field=None) -> "str | None":
    lines = text.splitlines()
    if lines[0] != "p1,p2,p3,phi,sqrt_det_g":
        return f"header {lines[0]!r}"
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    total = resolution + 2
    expected = sum(
        1 for i in range(1, total - 1) for j in range(1, total - i)
        if min(i, j, total - i - j) / total >= margin
    )
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    if field is not None and not (
        np.array_equal(rows[:, :3], field.points)
        and np.array_equal(rows[:, 3], field.phi)
        and np.array_equal(rows[:, 4], field.volume)
    ):
        return "CSV does not round-trip the field arrays"
    points = rows[:, :3]
    lattice = points * total
    if not np.all(np.abs(lattice - np.round(lattice)) <= 1e-9):
        return "points off the barycentric lattice"
    vol = oracle.volume_element(points, q)
    if not np.all(np.abs(rows[:, 4] - vol) <= oracle.VOLUME_TOL * vol):
        worst = float(np.max(np.abs(rows[:, 4] - vol) / vol))
        return f"volume element off the rank-one closed form by {worst:.3g} relative"
    phi, tol = oracle.potential(points, q)
    if not np.all(np.abs(rows[:, 3] - phi) <= tol):
        return "potential differs from the naive formula"
    return None


# ---------------------------------------------------------------------------
# spectra-bulk


@dataclass
class BulkInput:
    fmt: str
    text: str
    ref_text: str
    deltas: np.ndarray
    values: np.ndarray
    ref_values: np.ndarray
    scale: float
    qs: tuple
    det_qs: tuple
    q_var: float
    theta: float
    q_theta: float
    q_rel: float
    q_zeta: float


@lru_cache(maxsize=None)
def _bulk_prepare(seed: int, index: int, n: int, fmt: str) -> BulkInput:
    """Inputs of one job, made once per run: formatting costs more than a job."""
    rng = _rng(seed, 3, index)
    values = _eigenvalues(rng, n)
    scale = float(np.round(rng.uniform(0.5, 2.0), 3)) if fmt == "json" else 1.0
    ref_values = _eigenvalues(rng, 1000)
    # q = 0, q < 0, q = 1, a point inside the classical band and points on both sides
    qs = (float(rng.uniform(-2.0, -0.5)), 0.0, float(rng.uniform(0.2, 0.8)), 1.0,
          1.0 + float(rng.uniform(-5e-9, 5e-9)), float(rng.uniform(1.2, 3.0)))
    return BulkInput(
        fmt=fmt,
        text=_spectrum_json(values, scale) if fmt == "json" else _csv(values),
        ref_text=_csv(ref_values),
        deltas=rng.normal(size=n),
        values=values,
        ref_values=ref_values,
        scale=scale,
        qs=qs,
        det_qs=(0.0, qs[-1]),
        q_var=float(rng.uniform(0.0, 2.0)),
        theta=float(rng.uniform(0.5, 2.0)),
        q_theta=float(rng.uniform(0.2, 1.8)),
        q_rel=float(rng.uniform(-1.0, 3.0)),
        q_zeta=float(rng.uniform(0.2, 0.8)),
    )


def _bulk_call(inp: BulkInput) -> dict:
    if inp.fmt == "json":
        spec = Q.spectrum_from_json(inp.text)
    else:
        spec = Q.spectrum_from_csv(inp.text)
    ref = Q.spectrum_from_csv(inp.ref_text)
    out = {
        "logdet": [Q.q_logdet(spec, q) for q in inp.qs],
        "det": [tuple(Q.q_det(spec, q)) for q in inp.det_qs],
        "variation": Q.action_variation(spec, inp.deltas, inp.q_var),
        "powered": Q.power_transform(spec, inp.theta),
        "theta_residual": Q.theta_covariance_residual(spec, inp.q_theta, inp.theta),
        "relative": Q.relative_q_logdet(spec, ref, inp.q_rel),
        "qdet_zeta": Q.qdet_zeta(Q.finite_diag(spec.eigenvalues, spec.scale), inp.q_zeta),
    }
    out["text"] = Q.spectrum_to_json(spec) if inp.fmt == "json" else Q.spectrum_to_csv(spec)
    return out


def _bulk_check(inp: BulkInput, out) -> "str | None":
    if isinstance(out, Exception):
        return repr(out)[:300]
    x = inp.values / inp.scale
    refs = []
    for q, value in zip(inp.qs, out["logdet"]):
        ref, tol = oracle.q_logdet(x, q)
        refs.append((q, ref, tol))
        if not oracle.within(value, ref, tol):
            return f"q_logdet(q={q!r}) = {value!r}, reference {ref!r} (tolerance {tol:.3g})"
    for q, (value, clamped) in zip(inp.det_qs, out["det"]):
        _, ref, tol = next(r for r in refs if r[0] == q)
        det_ref, clamp_ref = oracle.q_exp(ref, q)
        margin = 1.0 + (1.0 - q) * ref
        if abs(margin) > abs(1.0 - q) * tol and clamped != clamp_ref:
            return f"q_det(q={q!r}) clamp flag {clamped}, reference {clamp_ref}"
        if math.isfinite(det_ref) and det_ref > 0.0 and not clamped:
            # d ln(det) / d Gamma = 1 / margin, plus rounding of the power
            rel = tol / abs(margin) + 8 * oracle.EPS * (1.0 + abs(math.log(det_ref)))
            if abs(value - det_ref) > rel * det_ref:
                return f"q_det(q={q!r}) = {value!r}, reference {det_ref!r}"
    ref, tol = oracle.action_variation(x, inp.deltas, inp.scale, inp.q_var)
    if not oracle.within(out["variation"], ref, tol):
        return f"action_variation = {out['variation']!r}, reference {ref!r}"
    powered = np.asarray(out["powered"].eigenvalues)
    expected = x**inp.theta
    if out["powered"].scale != 1.0 or not np.all(np.abs(powered - expected) <= 2 * oracle.EPS * expected):
        return "power_transform differs from x^theta"
    gamma_prime, _ = oracle.q_logdet(x, 1.0 + inp.theta * (inp.q_theta - 1.0))
    if not out["theta_residual"] <= oracle.THETA_SPEC_TOL * (1.0 + abs(gamma_prime)):
        return f"theta_covariance_residual = {out['theta_residual']!r} above its 1e-11 (1 + |Gamma|) bound"
    value, tol = oracle.q_logdet(x, inp.q_rel)
    ref_value, ref_tol = oracle.q_logdet(inp.ref_values, inp.q_rel)
    if not oracle.within(out["relative"], value - ref_value, tol + ref_tol):
        return f"relative_q_logdet = {out['relative']!r}, reference {value - ref_value!r}"
    ref, tol = oracle.finite_zeta_qdet(x, inp.q_zeta)
    STATS.zeta_err(True, out["qdet_zeta"], ref)
    if not oracle.within(out["qdet_zeta"], ref, tol):
        return f"qdet_zeta(finite_diag) = {out['qdet_zeta']!r}, reference {ref!r}"
    if inp.fmt == "json":
        back = json.loads(out["text"])
        same = back["scale"] == inp.scale and np.array_equal(np.asarray(back["eigenvalues"]), inp.values)
    else:
        same = np.array_equal(oracle.parse_column(out["text"]), x)
    if not same:
        return "serialised spectrum does not read back to its eigenvalues"
    return None


def spectra_bulk(seed: int) -> list[Job]:
    jobs = []
    # ascending sizes, CSV and JSON alternating: every seed runs the same
    # sizes in the same order, so the allocator sees the same history
    for slot, n in enumerate(_log_quantiles(BULK_JOBS, 3.0, 6.0)):
        fmt = ("csv", "json")[slot % 2]
        jobs.append(Job(
            f"bulk-{slot}",
            lambda slot=slot, n=n, fmt=fmt: _bulk_prepare(seed, slot, n, fmt),
            _bulk_call, _bulk_check,
        ))
    return jobs


# ---------------------------------------------------------------------------
# model-scan


def _zeta_job(key: str, kind: str, param: float, scale: float, q: float, theta: float) -> Job:
    alpha = param if kind == "power_spectrum" else 1.0
    args = [alpha * (q - 1.0)]
    if kind == "power_spectrum":
        args.append(alpha * theta * (q - 1.0))
    known_bad = min(args) < oracle.KNOWN_BAD_S

    def prepare():
        if kind == "shifted_linear":
            return Q.shifted_linear(param, scale)
        return Q.power_spectrum(param, scale)

    def call(model):
        out = {
            "qdet": Q.qdet_zeta(model, q),
            "value": Q.zeta_value(model, q - 1.0),
            "deriv0": Q.zeta_deriv0(model),
        }
        try:
            out["theta"] = Q.theta_covariance_zeta(model, q, theta)
        except UnsupportedModelError as exc:
            out["theta"] = exc
        return out

    def check(model, out):
        if isinstance(out, Exception):
            return f"{kind}({param!r}, scale={scale!r}) at q={q!r}: {out!r}"[:300]
        where = f"{kind}({param!r}, scale={scale!r}) at q={q!r}"
        ref, tol = ZETA.qdet(kind, param, scale, q)
        STATS.zeta_err(True, out["qdet"], ref)
        if not oracle.within(out["qdet"], ref, tol):
            return f"{where}: qdet_zeta = {out['qdet']!r}, reference {ref!r}"
        ref, tol = ZETA.value_tol(kind, param, scale, q - 1.0)
        STATS.zeta_err(True, out["value"], ref)
        if not oracle.within(out["value"], ref, tol):
            return f"{where}: zeta_value = {out['value']!r}, reference {ref!r}"
        ref = float(ZETA.deriv0(kind, param, scale, 1))
        STATS.zeta_err(True, out["deriv0"], ref)
        if not oracle.within(out["deriv0"], ref, oracle.DERIV_TOL * max(1.0, abs(ref))):
            return f"{where}: zeta_deriv0 = {out['deriv0']!r}, reference {ref!r}"
        if kind == "shifted_linear":
            return _expect_raise(out["theta"], UnsupportedModelError, f"{where}: theta_covariance_zeta")
        if not out["theta"] <= oracle.THETA_ZETA_TOL:
            return f"{where}: theta_covariance_zeta residual {out['theta']!r} above 1e-8"
        return None

    return Job(key, prepare, call, check, known_bad)


def _pole_job(key: str, kind: str, param: float, scale: float) -> Job:
    q = 2.0 if kind == "shifted_linear" else 1.0 + 1.0 / param
    make = Q.shifted_linear if kind == "shifted_linear" else Q.power_spectrum
    return Job(
        key, lambda: make(param, scale), lambda model: Q.qdet_zeta(model, q),
        lambda model, out: _expect_raise(out, PoleError, f"qdet_zeta({kind}) at its pole q={q!r}"),
    )


def _asym_job(key: str, exponent: int, ratios: tuple, q: float) -> Job:
    n = 2**exponent
    parts = tuple(int(n * r) for r in ratios)

    def call(part):
        return {"multinomial": Q.q_multinomial_log(part, q), "remainder": Q.asymptotic_remainder(part, q)}

    def check(part, out):
        where = f"n=2^{exponent}, parts {ratios}, q={q!r}"
        if isinstance(out, Exception):
            return f"{where}: {out!r}"
        full = oracle.q_factorial_log(n, q)
        tol = oracle.q_factorial_tol(n, q, float(full))
        multi = full
        for ni in parts:
            sub = oracle.q_factorial_log(ni, q)
            multi -= sub
            tol += oracle.q_factorial_tol(ni, q, float(sub))
        tol += 4 * oracle.EPS * abs(float(multi))
        if not oracle.within(out["multinomial"], float(multi), tol):
            return f"{where}: q_multinomial_log = {out['multinomial']!r}, reference {float(multi)!r}"
        lead = oracle.tsallis_leading(n, ratios, q)
        rem = float(multi - lead)
        tol += 16 * oracle.EPS * abs(float(lead)) + 4 * oracle.EPS * abs(rem)
        if not oracle.within(out["remainder"], rem, tol):
            return f"{where}: asymptotic_remainder = {out['remainder']!r}, reference {rem!r}"
        return None

    return Job(key, lambda: Q.Partition(n, parts), call, check)


def _geometry_job(key: str, resolution: int, q: float) -> Job:
    def call(_):
        field = Q.grid_field(resolution, q, 1e-3)
        return field, Q.field_to_csv(field)

    def check(_, out):
        if isinstance(out, Exception):
            return f"grid_field({resolution}, q={q!r}): {out!r}"
        reason = check_field(out[1], resolution, q, 1e-3, field=out[0])
        return None if reason is None else f"grid_field({resolution}, q={q!r}): {reason}"

    return Job(key, lambda: None, call, check)


_RATIOS = ((0.5, 0.5), (0.25, 0.75), (0.25, 0.25, 0.5))
_EXPONENTS = range(6, 21)
_RESOLUTIONS = (60, 150, 300)


def model_scan(seed: int, index: int) -> list[Job]:
    """Pass ``index``: the same models and mix in every pass, fresh q, n
    and q-grid draws, so the passes together cover more of the domain."""
    rng = _rng(seed, 5)
    # power_spectrum(1) stays in the set so that q = -40 reaches zeta(-41)
    models = [
        ("shifted_linear", float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 2.0))),
        ("shifted_linear", float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.5, 2.0))),
        ("shifted_linear", float(rng.uniform(3.0, 8.0)), float(rng.uniform(0.5, 2.0))),
        ("power_spectrum", 1.0, 1.0),
        ("power_spectrum", float(rng.uniform(0.5, 0.9)), float(rng.uniform(0.5, 2.0))),
        ("power_spectrum", float(rng.uniform(1.2, 2.5)), float(rng.uniform(0.5, 2.0))),
    ]
    rng = _rng(seed, 6, index)
    jobs = []
    for m, (kind, param, scale) in enumerate(models):
        pole = 2.0 if kind == "shifted_linear" else 1.0 + 1.0 / param
        # one q per stratum of the accepted domain, down to q = -40
        qs = [
            float(rng.uniform(-40.0, -5.0)),
            float(rng.uniform(-2.0, 0.0)),
            float(rng.uniform(0.0, 0.95)),
            1.0 + float(rng.uniform(-5e-9, 5e-9)),
            float(rng.uniform(1.05, 4.0)),
        ]
        while abs(qs[-1] - pole) < 0.05:
            qs[-1] = float(rng.uniform(1.05, 4.0))
        if (kind, param) == ("power_spectrum", 1.0):
            qs.append(-40.0)
        for j, q in enumerate(qs):
            jobs.append(_zeta_job(f"{index}.z{m}.{j}", kind, param, scale, q, float(rng.uniform(0.5, 2.0))))
        if m % 3 == 0:
            jobs.append(_pole_job(f"{index}.pole{m}", kind, param, scale))
    # q stratum and part ratios cycle with n, so that every seed gives the
    # O(1) classical branch (q = 1) the same sizes; the seed draws q within
    # each stratum
    strata = ((0.0, 0.5), (0.5, 1.0), (1.0, 1.0), (1.0, 1.5), (1.5, 1.9))
    for k, exponent in enumerate(_EXPONENTS):
        lo, hi = strata[k % len(strata)]
        q = lo if lo == hi else float(rng.uniform(lo, hi))
        jobs.append(_asym_job(f"{index}.asym{exponent}", exponent, _RATIOS[k % len(_RATIOS)], q))
    for resolution in _RESOLUTIONS:
        jobs.append(_geometry_job(f"{index}.geom{resolution}", resolution, float(rng.uniform(0.0, 1.9))))
    return [jobs[k] for k in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# shared oracle state


class Stats:
    """Largest zeta-layer error seen by the checks, relative to max(1, |ref|)."""

    def __init__(self) -> None:
        self.zeta_max_rel_err = 0.0

    def zeta_err(self, is_zeta: bool, value: float, ref: float) -> None:
        if is_zeta:
            self.zeta_max_rel_err = max(self.zeta_max_rel_err, oracle.rel_err(value, ref))


STATS = Stats()
ZETA = oracle.Zeta()
