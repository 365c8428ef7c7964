import json
import os
import subprocess
import sys

import pytest
from conftest import SRC

import qspectra

# modules that a job which builds no array must not load
_UNUSED = ("numpy", "qspectra.spectrum", "qspectra.geometry", "qspectra.combinatorics", "qspectra.verify")


def _loaded_after(code: str) -> set:
    """Which of _UNUSED a fresh interpreter holds in sys.modules after code."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(set({_UNUSED!r}) & set(sys.modules))))"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_every_exported_name_resolves():
    assert len(set(qspectra.__all__)) == len(qspectra.__all__)
    for name in qspectra.__all__:
        assert hasattr(qspectra, name), name


def test_import_and_scalar_calls_load_no_array_module():
    assert _loaded_after("import qspectra, qspectra.cli; qspectra.bernoulli_numbers(30)") == set()


@pytest.mark.parametrize(
    "argv",
    (
        ["weight"],
        ["qdet", "--q", "2", "--input", "MODEL"],  # the pole refusal
    ),
)
def test_cli_jobs_without_arrays_load_no_numpy(tmp_path, argv):
    model = tmp_path / "model.json"
    model.write_text('{"kind": "shifted_linear", "a": 1.0, "scale": 2.0}')
    argv = [str(model) if arg == "MODEL" else arg for arg in argv]
    code = (
        "import contextlib, io, qspectra.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    qspectra.cli.main({argv!r})"
    )
    assert "numpy" not in _loaded_after(code)


def test_star_import_gives_the_exported_names():
    namespace = {}
    exec("from qspectra import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qspectra.__all__)
