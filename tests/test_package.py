import json
import os
import subprocess
import sys

import pytest
from conftest import SRC

import qspectra

# modules that a job which builds no array must not load
_UNUSED = ("numpy", "qspectra.spectrum", "qspectra.geometry", "qspectra.combinatorics", "qspectra.verify")
# dataclasses imports inspect, which with ast, dis and tokenize is about a
# tenth of a numpy-free start; only the modules that load numpy use it
_NUMPY_FREE_STDLIB = ("dataclasses", "inspect")
_UNUSED += _NUMPY_FREE_STDLIB


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


def test_import_loads_no_typing():
    # -S leaves site out, which may import typing for itself; the modules
    # that load without numpy use collections.abc and namedtuple instead
    probe = "import qspectra, qspectra.cli, sys; print('typing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_MODELS = {
    "SHIFTED": '{"kind": "shifted_linear", "a": 1.0, "scale": 2.0}',
    "POWER": '{"kind": "power_spectrum", "alpha": 2.0, "scale": 1.5}',
}


@pytest.mark.parametrize(
    "argv",
    (
        ["weight"],
        ["qdet", "--q", "2", "--input", "SHIFTED"],  # the pole refusal
        # the Hurwitz continuation runs on math alone
        ["qdet", "--q", "-3", "--input", "SHIFTED"],
        ["qdet", "--q", "-3", "--input", "POWER"],
        ["qdet", "--q", "1", "--input", "SHIFTED"],
        ["qdet", "--q", "1", "--input", "POWER"],
        # the regularised ln_q sum, next to q = 1 and away from it
        ["qdet", "--q", "1.000000005", "--input", "SHIFTED"],
        ["qdet", "--q", "1.000000005", "--input", "POWER"],
        ["qdet", "--q", "0.9", "--input", "SHIFTED"],
        ["qdet", "--q", "0.9", "--input", "POWER"],
        ["qdet", "--q", "0.5", "--theta", "2", "--input", "POWER"],
        ["zeta", "--s", "-2.5", "--input", "SHIFTED"],
        ["zeta", "--s", "-2.5", "--input", "POWER"],
        ["zeta", "--deriv0", "--input", "SHIFTED"],
        ["zeta", "--deriv0", "--input", "POWER"],
    ),
)
def test_cli_jobs_without_arrays_load_no_numpy(tmp_path, argv):
    for kind, text in _MODELS.items():
        (tmp_path / f"{kind}.json").write_text(text)
    status = 2 if argv[1:3] == ["--q", "2"] else 0
    argv = [str(tmp_path / f"{arg}.json") if arg in _MODELS else arg for arg in argv]
    code = (
        "import contextlib, io, qspectra.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert qspectra.cli.main({argv!r}) == {status}"
    )
    assert _loaded_after(code).isdisjoint(("numpy",) + _NUMPY_FREE_STDLIB)


@pytest.mark.parametrize(
    "model",
    ('{"kind": "shifted_linear", "a": 1.0, "scale": 2.0}', '{"kind": "power_spectrum", "alpha": 2.0}'),
)
def test_qdet_on_infinite_models_loads_no_spectrum_module(tmp_path, model):
    # qdet routes on the kind tag; an isinstance test against FiniteDiag
    # would import the spectrum module, which loads numpy
    path = tmp_path / "model.json"
    path.write_text(model)
    code = (
        "import contextlib, io, qspectra.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert qspectra.cli.main(['qdet', '--q', '0.5', '--input', {str(path)!r}]) == 0"
    )
    assert "qspectra.spectrum" not in _loaded_after(code)


def test_star_import_gives_the_exported_names():
    namespace = {}
    exec("from qspectra import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qspectra.__all__)
