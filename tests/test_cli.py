import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "qspectra", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture()
def spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("2.0\n3.0\n")
    return str(path)


@pytest.fixture()
def spectrum_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"eigenvalues": [2.0, 4.0], "scale": 2.0}')
    return str(path)


@pytest.fixture()
def shifted_json(tmp_path):
    path = tmp_path / "shifted.json"
    path.write_text('{"kind": "shifted_linear", "a": 1.0, "scale": 1.0}')
    return str(path)


def test_qdet_spectrum_csv(spectrum_csv):
    proc = run_cli("qdet", "--q", "0", "--input", spectrum_csv)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["method"] == "q_logdet"
    assert report["value"] == pytest.approx(3.0, rel=1e-12)
    assert report["q_det"] == pytest.approx(4.0, rel=1e-12)
    assert report["clamped"] is False
    assert report["pole"] is None


def test_qdet_spectrum_json_scale(spectrum_json):
    proc = run_cli("qdet", "--q", "1", "--input", spectrum_json)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    # eigenvalues (2, 4) at scale 2 -> dimensionless (1, 2)
    assert report["value"] == pytest.approx(math.log(2.0), rel=1e-12)


def test_qdet_csv_format(spectrum_csv):
    proc = run_cli("qdet", "--q", "0", "--input", spectrum_csv, "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "field,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert float(table["value"]) == pytest.approx(3.0, rel=1e-12)
    assert table["clamped"] == "false"


def test_qdet_relative(tmp_path, spectrum_csv):
    ref = tmp_path / "ref.csv"
    ref.write_text("1.0\n6.0\n")
    proc = run_cli(
        "qdet", "--q", "1", "--input", spectrum_csv, "--input-ref", str(ref)
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["relative"] is True
    assert report["value"] == pytest.approx(0.0, abs=1e-12)


def test_qdet_multiple_refs_concatenate(tmp_path, spectrum_csv):
    # references (2,) and (3,) combine to (2, 3): relative value vanishes
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    r1.write_text("2.0\n")
    r2.write_text("3.0\n")
    proc = run_cli(
        "qdet", "--q", "0.5", "--input", spectrum_csv,
        "--input-ref", str(r1), "--input-ref", str(r2),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.0, abs=1e-12)


def test_qdet_model_near_classical(shifted_json):
    proc = run_cli("qdet", "--q", "0.999", "--input", shifted_json)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["method"] == "qdet_zeta"
    assert report["pole"] == 1.0
    assert report["value"] == pytest.approx(0.5 * math.log(2 * math.pi), abs=2e-3)


def test_qdet_model_pole_exits_2(shifted_json):
    proc = run_cli("qdet", "--q", "2", "--input", shifted_json)
    assert proc.returncode == 2
    assert "pole" in proc.stderr


def test_qdet_theta_transforms_input(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("4.0\n")
    proc = run_cli("qdet", "--q", "0.5", "--theta", "2", "--input", str(path))
    assert proc.returncode == 0
    # Gamma_0.5[(16,)] = (sqrt(16) - 1) / 0.5
    assert json.loads(proc.stdout)["value"] == pytest.approx(6.0, rel=1e-12)


def test_qdet_theta_rejected_for_shifted_model(shifted_json):
    proc = run_cli("qdet", "--q", "0.5", "--theta", "2", "--input", shifted_json)
    assert proc.returncode == 2


def test_qdet_missing_input_file():
    proc = run_cli("qdet", "--q", "1", "--input", "/no/such/file.csv")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_zeta_value_and_deriv(shifted_json):
    proc = run_cli("zeta", "--input", shifted_json, "--s", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(
        math.pi**2 / 6, abs=1e-10
    )

    proc = run_cli("zeta", "--input", shifted_json, "--deriv0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-8
    )


def test_zeta_flag_validation(shifted_json):
    assert run_cli("zeta", "--input", shifted_json).returncode == 2
    assert (
        run_cli(
            "zeta", "--input", shifted_json, "--s", "2", "--deriv0"
        ).returncode
        == 2
    )


def test_zeta_pole_exits_2(shifted_json):
    proc = run_cli("zeta", "--input", shifted_json, "--s", "1")
    assert proc.returncode == 2
    assert "pole" in proc.stderr


def test_zeta_accepts_spectrum_input(spectrum_csv):
    proc = run_cli("zeta", "--input", spectrum_csv, "--s", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["model_kind"] == "finite_diag"
    assert report["value"] == pytest.approx(1 / 2 + 1 / 3, rel=1e-12)


@pytest.mark.parametrize(
    "text, field",
    (
        ('{"kind": "shifted_linear"}', "a"),
        ('{"kind": "finite_diag"}', "eigenvalues"),
        ('{"kind": "power_spectrum", "alpha": "x"}', "alpha"),
        ('{"kind": "shifted_linear", "a": 1.0, "scale": "abc"}', "scale"),
        ('{"kind": "shifted_linear", "a": 1.0, "scale": null}', "scale"),
    ),
)
def test_malformed_model_file_exits_2(tmp_path, text, field):
    path = tmp_path / "model.json"
    path.write_text(text)
    proc = run_cli("qdet", "--q", "0.5", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr


def test_finite_diag_file_takes_the_zeta_route(tmp_path):
    model = tmp_path / "model.json"
    model.write_text('{"kind": "finite_diag", "eigenvalues": [0.5, 2.0, 3.5]}')
    plain = tmp_path / "plain.csv"
    plain.write_text("0.5\n2.0\n3.5\n")
    via_model = json.loads(run_cli("qdet", "--q", "0.7", "--input", str(model)).stdout)
    via_plain = json.loads(run_cli("qdet", "--q", "0.7", "--input", str(plain)).stdout)
    assert (via_model["operator"], via_model["method"]) == ("model", "qdet_zeta")
    assert (via_plain["operator"], via_plain["method"]) == ("spectrum", "q_logdet")
    assert via_model["value"] == pytest.approx(via_plain["value"], abs=1e-12)
    report = json.loads(run_cli("zeta", "--input", str(model), "--s", "1").stdout)
    assert report["model_kind"] == "finite_diag"


def test_geometry_defaults(tmp_path):
    out = tmp_path / "field.csv"
    proc = run_cli("geometry", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p1,p2,p3,phi,sqrt_det_g"
    assert len(lines) == 1 + 1830


def test_geometry_single_point_field():
    proc = run_cli("geometry", "--resolution", "1", "--q", "1.4")
    assert proc.returncode == 0
    row = proc.stdout.splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(1 / 3, rel=1e-15)
    assert float(row[4]) == pytest.approx(8.06362613856686, rel=1e-12)


def test_geometry_q0_constant_column():
    proc = run_cli("geometry", "--q", "0", "--resolution", "12")
    values = {line.rsplit(",", 1)[1] for line in proc.stdout.splitlines()[1:]}
    assert values == {f"{math.sqrt(3):.17g}"}


def test_geometry_json_format():
    proc = run_cli("geometry", "--resolution", "2", "--format", "json")
    rows = json.loads(proc.stdout)
    assert len(rows) == 3
    assert set(rows[0]) == {"p1", "p2", "p3", "phi", "sqrt_det_g"}


def test_geometry_rejects_zero_margin():
    assert run_cli("geometry", "--margin", "0").returncode == 2


def test_geometry_rejects_resolution_above_bound():
    proc = run_cli("geometry", "--resolution", "1001")
    assert proc.returncode == 2
    assert proc.stderr == "error: resolution must be <= 1000, got 1001\n"
    assert proc.stdout == ""


def test_geometry_overflow_exits_cleanly():
    proc = run_cli("geometry", "--q", "400")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "overflows float64" in lines[0]
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_qdet_overflow_exits_cleanly(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1e300\n2\n")
    proc = run_cli("qdet", "--q", "-1", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: q_logdet overflows float64 at q = -1.0"]
    assert proc.stdout == ""


def test_weight_defaults_cross_unit_point():
    proc = run_cli("weight")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "lambda,q=0.5,q=1,q=2"
    assert "1,1,1,1" in lines[1:]


def test_weight_q1_column_is_reciprocal():
    proc = run_cli("weight", "--q-list", "1", "--samples", "9")
    for line in proc.stdout.splitlines()[1:]:
        lam, w = map(float, line.split(","))
        assert w == pytest.approx(1.0 / lam, rel=1e-12)


def test_weight_exact_powers():
    proc = run_cli(
        "weight", "--q-list", "2", "--lambda-min", "0.25",
        "--lambda-max", "1", "--samples", "3",
    )
    assert proc.stdout.splitlines()[1:] == ["0.25,16", "0.5,4", "1,1"]


def test_weight_json_format():
    proc = run_cli("weight", "--format", "json", "--samples", "5")
    rows = json.loads(proc.stdout)
    assert rows[0]["lambda"] == pytest.approx(0.1, rel=1e-15)
    assert {"lambda", "q=0.5", "q=1", "q=2"} == set(rows[0])


def test_weight_rejects_bad_bounds():
    assert run_cli("weight", "--lambda-min", "-1").returncode == 2
    assert run_cli("weight", "--lambda-min", "5", "--lambda-max", "1").returncode == 2


@pytest.mark.parametrize(
    "argv",
    (
        ("--lambda-max", "1e300", "--q-list=-2"),
        ("--lambda-min", "1e-320"),
    ),
)
def test_weight_overflow_exits_cleanly(argv):
    proc = run_cli("weight", *argv)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "overflows float64" in lines[0]
    assert proc.stdout == ""


def test_verify_exits_1_with_single_known_failure(tmp_path):
    """The battery honestly reports the impossible q=1.5 slope bound and
    nothing else, so verify must exit 1 with exactly that failure."""
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--out", str(out))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["failures"] == ["combinatorics.remainder_scaling_q1.5"]
    assert len(report["checks"]) >= 30
    assert "FAIL combinatorics.remainder_scaling_q1.5" in proc.stderr


def test_verify_forced_failure_via_override():
    proc = run_cli("verify", "--tolerance", "spectrum.theta_covariance=1e-30")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert "spectrum.theta_covariance" in report["failures"]


def test_verify_waiving_the_known_failure_exits_0():
    proc = run_cli(
        "verify", "--tolerance", "combinatorics.remainder_scaling_q1.5=1"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_verify_unknown_check_exits_2():
    assert run_cli("verify", "--tolerance", "bogus.check=1").returncode == 2


def test_verify_tolerance_scale_env():
    proc = run_cli("verify", env_extra={"QSPECTRA_TOLERANCE_SCALE": "banana"})
    assert proc.returncode == 2
    proc = run_cli("verify", env_extra={"QSPECTRA_TOLERANCE_SCALE": "1e6"})
    report = json.loads(proc.stdout)
    assert report["tolerance_scale"] == 1e6


def test_outputs_are_byte_identical_across_runs(tmp_path):
    pairs = []
    for name, args in (
        ("geometry", ("geometry", "--q", "1.4", "--resolution", "25")),
        ("weight", ("weight",)),
    ):
        runs = [run_cli(*args) for _ in range(2)]
        assert all(p.returncode == 0 for p in runs)
        pairs.append((name, runs[0].stdout, runs[1].stdout))
    for name, first, second in pairs:
        assert first == second, name


def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate").returncode == 2
