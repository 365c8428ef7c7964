"""qspectra benchmark: one workload, one seed, one run.

Usage, from the root of a qspectra checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is cli-session, spectra-bulk or model-scan (see bench/README.md).
The package is imported from ``src/``; nothing is installed. Inputs are
made from --seed, the amount of work from --seconds. With --trace 0 the
run reports the end-to-end metrics, with --trace 1 the per-layer metrics
of a traced pass. A summary goes to stdout first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 on a completed run, 1 when the run itself broke, 2 when the
arguments or the checkout are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli-session", "spectra-bulk", "model-scan")

# set-up spawns before and after the worker, so their median spans the run
SETUP_SPAWNS = (5, 4)
IMPORTTIME_SPAWNS = 5
SPAWN_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

# What a fresh process pays before its first call: the import, and the
# Bernoulli table the zeta continuation caches on first use.
READY = "import qspectra, qspectra.cli; qspectra.bernoulli_numbers(30); print('ready', flush=True)"


def configure_children() -> None:
    """Environment every process of the run inherits: the package from
    ``src/``, and one caller with no extra threads, so numpy's BLAS pool
    stays at one thread."""
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})


def setup_sample() -> tuple[float, float]:
    """One set-up time and one reference spawn made right after it."""
    return spawn_ready(), reference.time_once("spawn")


def spawn_ready() -> float:
    """Seconds from spawning an interpreter until it reports ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SPAWN_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed with exit code {proc.returncode}")
    return elapsed


def run_worker(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run the worker in its own process group, so that a timeout or a
    signal to this process also stops the CLI jobs the worker started."""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def import_breakdown() -> dict:
    """Interpreter floor, numpy and qspectra's own modules, from one
    ``python -X importtime -c 'import qspectra.cli'``.

    qspectra's cost is the cumulative time of its top-level import entries
    minus the numpy import nested inside them; the interpreter floor is the
    wall time of the whole process minus both.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qspectra.cli"],
        cwd=ROOT, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S, check=True,
    )
    wall = time.perf_counter() - start
    numpy_us = qspectra_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        name = name[1:]
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = int(cumulative)
        if name.startswith("qspectra"):
            qspectra_us += int(cumulative)
    return {
        "cli.interpreter_s": wall - qspectra_us / 1e6,
        "cli.import_numpy_s": numpy_us / 1e6,
        "cli.import_qspectra_s": (qspectra_us - numpy_us) / 1e6,
    }


def median_of(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="qspectra benchmark, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "qspectra" / "__init__.py").is_file():
        print(f"error: no qspectra package under {SRC}; run from a qspectra checkout", file=sys.stderr)
        return 2
    configure_children()
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    try:
        workdir.mkdir(parents=True)
        spans_file.parent.mkdir(exist_ok=True)
        spawn_ready()  # compiles the bytecode once; not a sample
        setup = [setup_sample() for _ in range(SETUP_SPAWNS[0])]
        proc = run_worker(
            [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
             repr(args.seconds), str(args.trace), str(workdir), str(spans_file)],
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup += [setup_sample() for _ in range(SETUP_SPAWNS[1])]
        imports = median_of([import_breakdown() for _ in range(IMPORTTIME_SPAWNS)]) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n, passes = result["samples"], result["passes"]
    if args.trace:
        metrics = {name: (value, unit) for name, (value, unit) in result["layers"].items()}
        metrics.update({name: (value, "s") for name, value in imports.items()})
        notes = {name: f"traced pass of {n} jobs" for name in metrics}
        notes.update({name: f"median of {IMPORTTIME_SPAWNS} spawns" for name in imports})
    else:
        metrics = {
            "setup_s": (statistics.median(raw for raw, _ in setup)
                        * reference.scale("spawn", [ref for _, ref in setup]), "s"),
            "wall_s": (result["wall_s"], "s"),
            "job_p50_s": (result["job_p50_s"], "s"),
            "job_tail_s": (result["job_tail_s"], "s"),
            "ok_ratio": (result["ok_ratio"], "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        raw_setup = statistics.median(raw for raw, _ in setup)
        notes = {
            "setup_s": f"median of {sum(SETUP_SPAWNS)} spawns (raw {raw_setup:.4g} s)",
            "wall_s": f"median of {passes} passes of {n // passes} jobs "
                      f"(raw {result['raw_wall_s']:.4g} s, speed factor {result['speed_factor']:.3f})",
            "job_p50_s": f"median of {passes} per-pass medians",
            "job_tail_s": f"p{result['tail_percentile']:.1f} of {n} jobs",
            "ok_ratio": f"{result['failed']} of {result['attempted']} jobs failed their check",
            "peak_rss_mb": "children of the worker" if args.workload == "cli-session" else "worker process",
        }
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} {notes[name]}")
    for kind in ("unexpected_failures", "known_bad_failures"):
        for reason in result[kind]:
            print(f"  {kind[:-1].replace('_', ' ')}: {reason}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
