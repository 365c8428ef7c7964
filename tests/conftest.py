import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def run_cli(*args):
    """Run ``python -m qspectra`` on these sources. numpy RuntimeWarnings
    are raised as errors, as the pytest filter does in-process, so a
    warning on stderr fails the run instead of passing unseen. No run may
    end in a traceback: every error is reported as one ``error:`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qspectra", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc
