"""Worker process: builds one workload's jobs, times them and checks them.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR SPANS_FILE
(started by run.py, which puts ``src/`` on PYTHONPATH).

Without tracing it makes max(3, round(SECONDS / pass length)) passes over
the workload's job list. The first warms the process and is checked but
not timed; of the others it reports the median pass, so that a burst of
load from outside the run moves one pass, not the result. With TRACE = 1 it
runs one pass three times: untraced, traced and untraced again. The first
pass warms the process (allocator, page cache); tracing overhead is the
traced pass minus the last one, which does the same work equally warm.
Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

REPORTED_FAILURES = 5


def fingerprint(out) -> bytes:
    """Digest of a job's output, for comparing repeats of the same job."""
    digest = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            digest.update(obj.tobytes())
        elif isinstance(obj, str):
            digest.update(obj.encode())
        elif isinstance(obj, bytes):
            digest.update(obj)
        elif isinstance(obj, dict):
            for key in sorted(obj):
                digest.update(key.encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)) and len(obj) > 64:
            feed(np.asarray(obj, dtype=float))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                feed(getattr(obj, f.name))
        else:
            digest.update(repr(obj).encode())

    feed(out)
    return digest.digest()


def run_pass(jobs, verdicts: dict, tracer=None):
    """Run every job once, in order; returns latencies and failed jobs.

    A job's first run is checked against its reference. A repeat of the same
    job must produce the same output, byte for byte, and then shares the
    verdict of the first run.
    """
    latencies, failures = [], []
    for index, job in enumerate(jobs):
        inputs = job.prepare()
        if isinstance(job.call, workloads.CliLauncher):
            job.call.job = index
        if tracer is not None:
            tracer.job = index
            tracer.active = True
        start = time.perf_counter()
        try:
            out = job.call(inputs)
        except Exception as exc:  # noqa: BLE001 - an error is an outcome the check judges
            out = exc
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        digest = fingerprint(out)
        if job.key not in verdicts:
            verdicts[job.key] = (digest, job.check(inputs, out))
        first_digest, reason = verdicts[job.key]
        if digest != first_digest:
            reason = f"{job.key}: output differs from the job's first run"
        if reason is not None:
            failures.append((job, reason))
        del inputs, out
    return latencies, failures


def main() -> int:
    workload, seed, seconds, trace, workdir, spans_file = sys.argv[1:7]
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    launcher = None
    if workload == "cli-session":
        launcher = workloads.CliLauncher(workdir)
        session = workloads.CliSession(seed, workdir)
        make_pass = lambda index: session.jobs(seed, launcher)
    elif workload == "spectra-bulk":
        make_pass = lambda index: workloads.spectra_bulk(seed)
    else:
        make_pass = lambda index: workloads.model_scan(seed, index)

    if trace:
        return traced_run(make_pass, launcher, workdir, spans_file)
    passes = max(3, round(seconds / workloads.PASS_S[workload]))
    ref_name = reference.FOR_WORKLOAD[workload]
    refs, raw_walls, raw_medians, raw_latencies, failures, verdicts = [], [], [], [], [], {}
    attempted = 0
    for index in range(passes):
        jobs = make_pass(index)
        lat, fail = run_pass(jobs, verdicts)
        attempted += len(jobs)
        failures += fail
        refs += reference.measure(ref_name)
        if index == 0:
            continue  # warm-up: checked, not timed; fills caches and allocator pools
        raw_walls.append(sum(lat))
        raw_medians.append(statistics.median(lat))
        raw_latencies += lat
    factor = reference.scale(ref_name, refs)
    latencies = [t * factor for t in raw_latencies]
    who = resource.RUSAGE_CHILDREN if launcher is not None else resource.RUSAGE_SELF
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - 11)  # the sample with exactly ten beyond it
    result = {
        "attempted": attempted,
        "wall_s": statistics.median(raw_walls) * factor,
        "job_p50_s": statistics.median(raw_medians) * factor,
        "job_tail_s": ordered[rank],
        "tail_percentile": 100.0 * (rank + 1) / len(ordered),
        "ok_ratio": 1.0 - len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "passes": passes - 1,
        "samples": len(latencies),
        "raw_wall_s": statistics.median(raw_walls),
        "speed_factor": factor,
    }
    return report(result, failures)


def traced_run(make_pass, launcher, workdir: Path, spans_file: str) -> int:
    """Untraced, traced and untraced again over the same job list."""
    jobs = make_pass(0)
    verdicts = {}
    _, failures = run_pass(jobs, verdicts)
    tracer = tracing.Tracer()
    if launcher is not None:
        launcher.spans_dir = workdir / "spans"
        launcher.spans_dir.mkdir()
        traced, traced_failures = run_pass(jobs, verdicts)
        launcher.spans_dir = None
        spans, counts = tracing.merge(
            tracing.load(workdir / "spans" / f"job-{i}.json") for i in range(len(jobs))
        )
    else:
        restore = tracing.install(tracer)
        traced, traced_failures = run_pass(jobs, verdicts, tracer)
        restore()
        spans, counts = tracer.spans, tracer.counts
    warm, warm_failures = run_pass(jobs, verdicts)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "counts": counts}, fh)
    layers = tracing.layer_metrics(spans, counts, sum(traced), sum(warm))
    layers["zeta.max_rel_err"] = (workloads.STATS.zeta_max_rel_err, "ratio")
    result = {"attempted": 3 * len(jobs), "layers": layers, "passes": 3, "samples": len(jobs)}
    return report(result, failures + traced_failures + warm_failures)


def report(result: dict, failures: list) -> int:
    unexpected = [reason for job, reason in failures if not job.known_bad]
    known_bad = [reason for job, reason in failures if job.known_bad]
    result["failed"] = len(failures)
    result["correct"] = not unexpected
    result["unexpected_failures"] = unexpected[:REPORTED_FAILURES]
    result["known_bad_failures"] = known_bad[:REPORTED_FAILURES]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
