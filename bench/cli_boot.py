"""Run the qspectra CLI with the benchmark's spans installed.

Usage: python3 bench/cli_boot.py SPANS_FILE JOB_ID [qspectra arguments ...]

Behaves like ``python -m qspectra`` (same output, same exit code) and
writes the spans of this one invocation to SPANS_FILE when it ends.
"""

import sys

import tracing


def main() -> int:
    spans_path, job = sys.argv[1], int(sys.argv[2])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import qspectra.cli

    tracer.job = job
    tracer.active = True
    try:
        return qspectra.cli.main(sys.argv[3:])
    finally:
        tracer.active = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
