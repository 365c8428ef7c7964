import hashlib
import json
import math
import random
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from conftest import run_cli

from qspectra import spectrum as spc
from qspectra import zeta as zt
from qspectra.cli import _MAX_SAMPLES, _MAX_WEIGHTS, _weight_lambdas
from qspectra.errors import DomainError
from qspectra.geometry import MAX_RESOLUTION


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


@pytest.fixture()
def power_json(tmp_path):
    path = tmp_path / "power.json"
    path.write_text('{"kind": "power_spectrum", "alpha": 2.0}')
    return str(path)


@pytest.mark.parametrize("q", ("0.4", "1.000000001"))
def test_qdet_model_against_model_reference(shifted_json, power_json, q):
    proc = run_cli("qdet", "--q", q, "--input", shifted_json, "--input-ref", power_json)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["operator"], report["relative"], report["method"]) == (
        "model", True, "qdet_zeta"
    )
    assert (report["pole"], report["reference_pole"]) == (1.0, 0.5)
    expected = zt.relative_qdet_zeta(zt.shifted_linear(1.0), zt.power_spectrum(2.0), float(q))
    assert report["value"] == expected


def test_qdet_spectrum_against_model_reference(spectrum_csv, shifted_json):
    proc = run_cli("qdet", "--q", "0.4", "--input", spectrum_csv, "--input-ref", shifted_json)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["operator"], report["method"]) == ("spectrum", "qdet_zeta")
    assert (report["pole"], report["reference_pole"]) == (None, 1.0)
    spec = spc.Spectrum((2.0, 3.0), 1.0)
    assert report["value"] == zt.relative_qdet_zeta(spec, zt.shifted_linear(1.0), 0.4)


def test_qdet_model_and_spectrum_references_exit_2(spectrum_csv, shifted_json):
    proc = run_cli(
        "qdet", "--q", "0.4", "--input", spectrum_csv,
        "--input-ref", shifted_json, "--input-ref", spectrum_csv,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: multiple --input-ref operators combine by direct sum, "
        "which needs finite spectra\n"
    )


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


@pytest.mark.parametrize(
    "args, message",
    (
        (
            ("qdet", "--q", "1.5"),
            "the zeta determinant of this power_spectrum model has a pole at q = 1.5, got q = 1.5",
        ),
        (
            ("zeta", "--s", "0.5"),
            "zeta of this power_spectrum model has a pole at s = 0.5, got s = 0.5",
        ),
    ),
)
def test_pole_refusal_names_the_callers_point(tmp_path, args, message):
    # the Hurwitz argument here is alpha s = 1.0, which the message must not
    # pass off as the point the caller gave
    path = tmp_path / "lattice.json"
    path.write_text('{"kind": "power_spectrum", "alpha": 2.0}')
    proc = run_cli(*args, "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_shifted_linear_pole_refusal_names_q(shifted_json):
    proc = run_cli("qdet", "--q", "2", "--input", shifted_json)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: the zeta determinant of this shifted_linear model has a pole at "
        "q = 2.0, got q = 2.0\n"
    )


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


@pytest.mark.parametrize("s", ("nan", "inf", "-inf"))
def test_zeta_refuses_s_that_is_not_finite(tmp_path, s):
    # on a finite_diag file nan was reported as an overflow and inf gave 0
    for model in ('"finite_diag", "eigenvalues": [2.0, 3.0]', '"shifted_linear", "a": 1.0'):
        path = tmp_path / "model.json"
        path.write_text(f"{{\"kind\": {model}}}")
        proc = run_cli("zeta", f"--s={s}", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: s must be finite, got {float(s)!r}\n"
        assert proc.stdout == ""


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
        # unknown fields, which were dropped so that the scale read as 1
        ('{"kind": "power_spectrum", "alpha": 2.0, "scal": 3.0}', "unknown field 'scal'"),
        ('{"eigenvalues": [2.0, 3.0], "sacle": 2.0}', "unknown field 'sacle'"),
        # strings and booleans, which float() read as numbers
        ('{"kind": "power_spectrum", "alpha": "2"}', "field 'alpha' must be a number"),
        ('{"kind": "shifted_linear", "a": true}', "field 'a' must be a number"),
        ('{"kind": "finite_diag", "eigenvalues": [true, 2.0]}', "'eigenvalues' entry 0 must be a number"),
        # integers beyond float64, which float() refuses with OverflowError
        pytest.param('{"eigenvalues": [1, 2], "scale": 1%s}' % ("0" * 400), "scale must be", id="scale-1e400"),
        pytest.param('{"kind": "shifted_linear", "a": 1%s}' % ("0" * 400), "a must be", id="a-1e400"),
        pytest.param('{"kind": "power_spectrum", "alpha": 1%s}' % ("0" * 400), "alpha must be", id="alpha-1e400"),
    ),
)
def test_malformed_model_file_exits_2(tmp_path, text, field):
    path = tmp_path / "model.json"
    path.write_text(text)
    proc = run_cli("qdet", "--q", "0.5", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr


@pytest.mark.parametrize(
    "name, data, message",
    (
        pytest.param("bad.csv", b"\xff\xfe1\n", "not UTF-8 text", id="not-utf8"),
        pytest.param(  # json.loads raises RecursionError
            "deep.json",
            b'{"eigenvalues": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            "invalid JSON: maximum recursion depth exceeded",
            id="nested-100000-deep",
        ),
        pytest.param(  # json.loads raises ValueError, not JSONDecodeError
            "digits.json",
            b'{"eigenvalues": [1' + b"0" * 5000 + b"]}",
            "invalid JSON: Exceeds the limit",
            id="int-of-5001-digits",
        ),
    ),
)
def test_unreadable_operand_file_exits_2(tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    proc = run_cli("qdet", "--q", "0.5", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {str(path)!r}: {message}")
    assert len(proc.stderr.splitlines()) == 1


def test_long_values_are_quoted_in_part(tmp_path):
    # the refused kind is quoted by its first and last 30 characters
    path = tmp_path / "model.json"
    path.write_text('{"kind": "%s"}' % ("x" * 100_000))
    proc = run_cli("qdet", "--q", "0.5", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr == "error: unknown model kind '%s...%s'\n" % ("x" * 29, "x" * 29)


@pytest.mark.parametrize(
    "model, s, message",
    (
        pytest.param(  # scale^s overflows
            '"finite_diag", "eigenvalues": [2.0], "scale": 1e300', "2", "zeta overflows",
            id="[2.0]-1e300-2",
        ),
        pytest.param(  # scale^s and the bare zeta are finite, their product is not
            '"finite_diag", "eigenvalues": [1e-200], "scale": 1e200', "1.5", "zeta overflows",
            id="[1e-200]-1e200-1.5",
        ),
        pytest.param(  # the value itself, about 1.7e375, is beyond float64
            '"shifted_linear", "a": 1.0', "-300.5", "Hurwitz zeta is not finite in",
            id="shifted_linear-1.0--300.5",
        ),
    ),
)
def test_zeta_overflow_exits_cleanly(tmp_path, model, s, message):
    path = tmp_path / "model.json"
    path.write_text(f'{{"kind": {model}}}')
    proc = run_cli("zeta", "--s", s, "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message} float64 at s = {float(s)!r}"]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "a, argv, message",
    (  # ln Gamma(a) overflows at a = 1e307, and so does the regularised
        # ln_q sum, about -a ln a, next to q = 1 and at q = 1.00000002
        ("1e307", ("zeta", "--deriv0"), "zeta'(0) is not finite in float64"),
        ("1e307", ("qdet", "--q", "1"), "the zeta determinant is not finite in float64 at q = 1.0"),
        ("1e307", ("qdet", "--q", "1.000000001"), "the zeta determinant is not finite in float64 at q = 1.000000001"),
        ("1e307", ("qdet", "--q", "1.00000002"), "the zeta determinant is not finite in float64 at q = 1.00000002"),
    ),
)
def test_zeta_differences_beyond_float64_exit_cleanly(tmp_path, a, argv, message):
    # each printed inf, -inf or nan with exit 0, or raised a traceback
    path = tmp_path / "model.json"
    path.write_text(f'{{"kind": "shifted_linear", "a": {a}}}')
    proc = run_cli(*argv, "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert proc.stdout == ""


def test_qdet_at_large_shift_next_to_one_is_finite(tmp_path):
    # refused while the band needed zeta''(0), about -a ln(a)^2 = -4.9e310
    path = tmp_path / "model.json"
    path.write_text('{"kind": "shifted_linear", "a": 1e305}')
    proc = run_cli("qdet", "--q", "1.000000001", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["value"]
    assert value == zt.qdet_zeta(zt.shifted_linear(1e305), 1.000000001)
    assert math.isfinite(value)


def test_zeta_deriv0_at_large_shift_is_finite(tmp_path):
    # ln Gamma(1e305) - ln(2 pi)/2; refused while zeta'(0) was a difference quotient
    path = tmp_path / "model.json"
    path.write_text('{"kind": "shifted_linear", "a": 1e305}')
    proc = run_cli("zeta", "--deriv0", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 7.01288453363184e307
    proc = run_cli("qdet", "--q", "1", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == -7.01288453363184e307


def test_zeta_at_large_s_is_evaluated(tmp_path):
    # was refused: the Euler-Maclaurin tail formed inf * 0 above s = 4e10
    path = tmp_path / "model.json"
    path.write_text('{"kind": "shifted_linear", "a": 1.0}')
    proc = run_cli("zeta", "--s", "1e11", "--input", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 1.0


def _finite_files(tmp_path, name, eigenvalues, scale):
    """The same operator as a finite_diag model file and as a spectrum file."""
    tagged, plain = tmp_path / f"{name}-model.json", tmp_path / f"{name}-spectrum.json"
    tagged.write_text(json.dumps({"kind": "finite_diag", "eigenvalues": eigenvalues, "scale": scale}))
    plain.write_text(json.dumps({"eigenvalues": eigenvalues, "scale": scale}))
    return str(tagged), str(plain)


def test_finite_diag_file_is_its_spectrum_twin(tmp_path, spectrum_csv):
    # one finite operator, one route: a finite_diag file took the zeta quotient
    eigenvalues = [0.01, 0.5, 3.0, 1000.0]
    tagged, plain = _finite_files(tmp_path, "operand", eigenvalues, 1.5)
    runs = [("--q", q) for q in ("-1", "0.7", "0.9999999", "1", "1.000000005", "2.4")]
    runs += [("--q", "0.7", "--theta", "2"), ("--q", "0.7", "--format", "csv")]
    for argv in runs:
        via_tagged, via_plain = (run_cli("qdet", *argv, "--input", path) for path in (tagged, plain))
        assert (via_tagged.returncode, via_tagged.stderr) == (0, "")
        assert via_tagged.stdout == via_plain.stdout, argv
    as_ref = [run_cli("qdet", "--q", "0.7", "--input", spectrum_csv, "--input-ref", path) for path in (tagged, plain)]
    assert as_ref[0].returncode == 0 and as_ref[0].stdout == as_ref[1].stdout
    assert json.loads(as_ref[0].stdout)["method"] == "q_logdet"

    report = json.loads(run_cli("qdet", "--q", "0.9999999", "--input", tagged).stdout)
    assert (report["operator"], report["method"]) == ("spectrum", "q_logdet")
    with mp.workdps(40):
        q = mp.mpf(0.9999999)
        exact = mp.fsum((mp.power(mp.mpf(lam) / mp.mpf(1.5), 1 - q) - 1) / (1 - q) for lam in eigenvalues)
        assert abs(report["value"] - exact) <= 1e-14 * abs(exact)  # the zeta quotient was off by 2.3e-9

    # finite_diag references combine by direct sum, as spectrum files do
    refs = [_finite_files(tmp_path, "r1", [2.0, 5.0], 1.5)[0], _finite_files(tmp_path, "r2", [0.3], 1.0)[0]]
    proc = run_cli("qdet", "--q", "0.7", "--input", plain, "--input-ref", refs[0], "--input-ref", refs[1])
    assert proc.returncode == 0, proc.stderr
    reference = spc.concatenate(spc.FiniteDiag((2.0, 5.0), 1.5), spc.FiniteDiag((0.3,), 1.0))
    expected = spc.relative_q_logdet(spc.FiniteDiag(eigenvalues, 1.5), reference, 0.7)
    assert json.loads(proc.stdout)["value"] == expected

    report = json.loads(run_cli("zeta", "--input", tagged, "--s", "1").stdout)
    assert report["model_kind"] == "finite_diag"


def test_finite_operators_take_the_one_kernel(tmp_path):
    # zeta'(0) is read on the ratios lambda / mu, so one beyond float64 is
    # refused there too
    tagged, _ = _finite_files(tmp_path, "beyond", [1e308, 2.0], 0.5)
    proc = run_cli("zeta", "--deriv0", "--input", tagged)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == ["error: a ratio lambda / scale leaves float64 at scale = 0.5"]
    # the relative determinant takes no classical band: next to q = 1 it is
    # the deformed value, which ln's differs from by about 4e-8 here
    eigenvalues, reference = [0.5, 3.0, 40.0], [2.0, 7.0]
    operand = _finite_files(tmp_path, "op", eigenvalues, 1.5)[0]
    ref = _finite_files(tmp_path, "ref", reference, 1.0)[1]
    report = json.loads(run_cli("qdet", "--q", "1.000000005", "--input", operand, "--input-ref", ref).stdout)
    assert (report["method"], report["relative"]) == ("q_logdet", True)
    with mp.workdps(40):
        r = 1 - mp.mpf(1.000000005)

        def gamma(xs, mu):
            return mp.fsum(mp.expm1(r * mp.log(mp.mpf(x) / mp.mpf(mu))) / r for x in xs)

        exact = gamma(eigenvalues, 1.5) - gamma(reference, 1.0)
    assert abs(report["value"] - exact) <= 1e-14 * max(1, abs(exact))


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
    # the help states the bound without loading geometry
    assert f"1 to {MAX_RESOLUTION}" in run_cli("geometry", "--help").stdout


def test_geometry_overflow_exits_cleanly():
    proc = run_cli("geometry", "--q", "400")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "overflows float64" in lines[0]
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


# sha256 of the CSV text, as written when each row was evaluated and
# formatted on its own; orbit evaluation and the per-column writer keep it
@pytest.mark.parametrize(
    "args, digest",
    (
        ((), "0e4de67b49ee21d55bdfff7a379c1b9b3c405f8dda588f66deaf56ac0b44e715"),
        (
            ("--q", "0.7", "--resolution", "150"),
            "592222080563c5e0e22aa9d86558808d3022d518eebd727046dd638456c1fea4",
        ),
        (
            ("--q", "-0.5", "--resolution", "300", "--margin", "0.01"),
            "aeab45363cc1c9eda1ad6ffc67bfda7fb18acff4fc96218ea25733c5ea8718c7",
        ),
    ),
)
def test_geometry_csv_bytes_are_pinned(args, digest):
    proc = run_cli("geometry", *args)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("q", ("12", "40", "-40"))
def test_geometry_large_q_is_evaluated(q):
    proc = run_cli("geometry", "--q", q)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 1830


def test_qdet_overflow_exits_cleanly(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1e300\n2\n")
    proc = run_cli("qdet", "--q", "-1", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: q_logdet overflows float64 at q = -1.0"]
    assert proc.stdout == ""
    # lambda / scale = 2e308 (was a RuntimeWarning, or a traceback and exit 1
    # with warnings as errors)
    path = tmp_path / "scaled.json"
    path.write_text('{"eigenvalues": [1e308, 2.0], "scale": 0.5}')
    proc = run_cli("qdet", "--q", "0.5", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: a ratio lambda / scale leaves float64 at scale = 0.5"
    ]
    assert proc.stdout == ""


def test_qdet_power_map_overflow_exits_cleanly(tmp_path):
    for text in (
        "1e300\n2\n",
        # scale^theta overflows (was a traceback, exit 1) or rounds to 0 (was
        # refused as "scale must be a finite positive number, got 0.0")
        '{"kind": "power_spectrum", "alpha": 1.0, "scale": 1e200}',
        '{"kind": "power_spectrum", "alpha": 1.0, "scale": 1e-200}',
    ):
        path = tmp_path / "operand"
        path.write_text(text)
        proc = run_cli("qdet", "--q", "0.5", "--theta", "2", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: the power map A^theta leaves float64 at theta = 2.0"]
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


def _linspace_lambdas(lmin, lmax, samples):
    """The weight grid as np.linspace builds it: the reference."""
    exps = np.linspace(math.log10(lmin), math.log10(lmax), samples)
    lams = {1.0 if abs(e) < 1e-12 else float(10.0**e) for e in exps}
    if lmin < 1.0 < lmax:
        lams.add(1.0)
    return sorted(lams)


def test_weight_grid_equals_linspace_bit_for_bit():
    cases = [(0.1, 10.0, 101)]  # the CLI defaults
    for lmin, lmax in ((0.1, 10.0), (0.03, 7.0), (1e-5, 1.0), (1.0, 50.0), (2.0, 3.0), (1e-3, 0.5)):
        cases += [(lmin, lmax, n) for n in (2, 3, 101, 1000)]
    rng = random.Random(1009)
    for _ in range(2000):
        lo, hi = sorted(rng.uniform(-300.0, 300.0) for _ in range(2))
        cases.append((10.0**lo, 10.0**hi, rng.randint(2, 300)))
    for lmin, lmax, samples in cases:
        got = _weight_lambdas(lmin, lmax, samples)
        assert list(map(float.hex, got)) == list(map(float.hex, _linspace_lambdas(lmin, lmax, samples)))


def test_weight_rejects_bad_bounds():
    assert run_cli("weight", "--lambda-min", "-1").returncode == 2
    assert run_cli("weight", "--lambda-min", "5", "--lambda-max", "1").returncode == 2


def test_weight_rejects_samples_above_bound():
    # refused before the grid is built: the grid starts with the log10 of
    # its ends, which is never taken
    with mock.patch.object(math, "log10") as log10:
        with pytest.raises(DomainError, match=f"^samples must be <= {_MAX_SAMPLES}, got {_MAX_SAMPLES + 1}$"):
            _weight_lambdas(0.1, 10.0, _MAX_SAMPLES + 1)
    assert not log10.called
    assert len(_weight_lambdas(2.0, 10.0, _MAX_SAMPLES)) == _MAX_SAMPLES
    proc = run_cli("weight", "--samples", str(_MAX_SAMPLES + 1))
    assert proc.returncode == 2
    assert proc.stderr == f"error: samples must be <= 100000, got {_MAX_SAMPLES + 1}\n"
    assert proc.stdout == ""
    assert run_cli("weight", "--samples", "1").stderr == "error: samples must be >= 2, got 1\n"
    assert f"2 to {_MAX_SAMPLES}" in run_cli("weight", "--help").stdout


def test_weight_rejects_weights_above_bound():
    # the q list is bounded through samples x q values, refused before the
    # grid is built; the default three q at the samples bound are accepted
    assert _MAX_WEIGHTS == 3 * _MAX_SAMPLES
    assert len(_weight_lambdas(2.0, 10.0, _MAX_SAMPLES, 3)) == _MAX_SAMPLES
    with mock.patch.object(math, "log10") as log10:
        with pytest.raises(DomainError, match=r"^samples x q values must be <= 300000, got 75001 x 4$"):
            _weight_lambdas(0.1, 10.0, 75_001, 4)
    assert not log10.called
    proc = run_cli("weight", "--samples", "30001", "--q-list", ",".join(["1"] * 10))
    assert proc.returncode == 2
    assert proc.stderr == "error: samples x q values must be <= 300000, got 30001 x 10\n"
    assert proc.stdout == ""
    assert run_cli("weight", "--samples", "30000", "--q-list", ",".join(["1"] * 10)).returncode == 0
    # argparse may wrap the help at any space
    assert "samples x q values at most 300000" in " ".join(run_cli("weight", "--help").stdout.split())


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


def test_verify_tolerance_option_is_unrecognised():
    # every check runs at its registry tolerance; none can be waived
    proc = run_cli("verify", "--tolerance", "combinatorics.remainder_scaling_q1.5=1")
    assert proc.returncode == 2
    assert "unrecognized arguments: --tolerance" in proc.stderr


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
