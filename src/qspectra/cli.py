"""Command-line front-end.

Subcommands:

* qdet      deformed log-determinant of a spectrum or zeta model, with
            optional reference operators for relative determinants and an
            optional power transform of the inputs,
* zeta      zeta values and zeta'(0) of a model,
* geometry  simplex metric field export (CSV/JSON),
* weight    spectral-weight curves w(lambda) = lambda^(-q),
* verify    the full invariant battery with a JSON report.

Exit codes: 0 success, 1 verification failure, 2 input/domain error
(including poles and argument errors). Numeric CSV cells carry 17
significant digits so identical inputs give byte-identical files.

Operand files are JSON objects ({"kind": ..., ...} for zeta models, and
{"eigenvalues": [...], "scale": s} for spectra, which are finite_diag
models without the tag) or plain one-column CSV of eigenvalues. Every
JSON object is read by zeta.model_from_dict, which refuses missing and
unknown fields. qdet routes on the operator's kind: the determinant of a
finite operator, from a spectrum file or a finite_diag file alike, is
q_logdet's, with its classical band, and that of an infinite model
qdet_zeta's. A relative determinant is relative_qdet_zeta's for every
kind, at the exact q.

Each subcommand imports the modules it uses when it runs: ``weight``,
and ``qdet`` and ``zeta`` on a shifted_linear or power_spectrum file, load
neither numpy and dataclasses nor the spectrum, geometry and verify
modules.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import zeta as zt
from .errors import DomainError, PoleError, UnsupportedModelError, finite_real, positive_real
from .qalgebra import q_exp, spectral_weight

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# operand loading and report rendering


def _load_operand(path: str):
    """Read a ZetaModel from a file.

    A JSON object is a model; without a 'kind' tag it is a spectrum, the
    finite_diag model. Anything else is parsed as one-column CSV of
    eigenvalues.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path!r}: not UTF-8 text: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            obj = zt._decode_json(text)
        except DomainError as exc:
            raise DomainError(f"{path!r}: {exc}") from exc
        return zt.model_from_dict({"kind": "finite_diag", **obj})
    from .spectrum import spectrum_from_csv

    try:
        return spectrum_from_csv(text)
    except DomainError as exc:
        raise DomainError(f"{path!r}: {exc}") from exc


def _json_safe(value):
    """Replace non-finite floats by strings so reports stay strict JSON."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _render_csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_json_safe(report), indent=2) + "\n"
    lines = ["field,value"]
    lines.extend(f"{key},{_render_csv_cell(val)}" for key, val in report.items())
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_qdet(args: argparse.Namespace) -> int:
    operand = _load_operand(args.input)
    refs = [_load_operand(p) for p in args.input_ref]
    if args.theta is not None:
        operand = zt.power_transform_model(operand, args.theta)
        refs = [zt.power_transform_model(r, args.theta) for r in refs]
    q = finite_real("deformation index", args.q)
    # kind is a class attribute, so routing on it imports no model module
    operand_is_finite = operand.kind == "finite_diag"
    refs_are_finite = all(ref.kind == "finite_diag" for ref in refs)

    if not refs:
        reference = None
    elif refs_are_finite:
        from . import spectrum as spc

        reference = spc.concatenate(*refs)
    elif len(refs) == 1:
        reference = refs[0]
    else:
        raise DomainError(
            "multiple --input-ref operators combine by direct sum, "
            "which needs finite spectra"
        )
    if operand_is_finite and refs_are_finite:
        from . import spectrum as spc

        method, absolute = "q_logdet", spc.q_logdet
    else:
        method, absolute = "qdet_zeta", zt.qdet_zeta
    value = absolute(operand, q) if reference is None else zt.relative_qdet_zeta(operand, reference, q)

    det = q_exp(value, q)
    report = {
        "command": "qdet",
        "q": q,
        "theta": args.theta,
        "operator": "spectrum" if operand_is_finite else "model",
        "relative": bool(refs),
        "method": method,
        "value": value,
        "q_det": det.value,
        "clamped": det.clamped,
        "pole": operand.pole,
        "reference_pole": None if reference is None else reference.pole,
    }
    _emit(_render_report(report, args.format), args.out)
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    model = _load_operand(args.input)
    if args.deriv0 == (args.s is not None):
        raise DomainError("exactly one of --s and --deriv0 is required")
    value = zt.zeta_deriv0(model) if args.deriv0 else zt.zeta_value(model, args.s)
    report = {
        "command": "zeta",
        "model_kind": model.kind,
        "scale": model.scale,
        "s": args.s,
        "deriv0": args.deriv0,
        "value": value,
        "pole": model.pole,
    }
    _emit(_render_report(report, args.format), args.out)
    return 0


def _cmd_geometry(args: argparse.Namespace) -> int:
    from . import geometry as geom

    field = geom.grid_field(args.resolution, args.q, args.margin)
    if args.format == "json":
        text = geom.field_to_json(field) + "\n"
    else:
        text = geom.field_to_csv(field)
    _emit(text, args.out)
    return 0


def _parse_q_list(text: str) -> list[float]:
    try:
        qs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"invalid q list {text!r}: {exc}") from exc
    if not qs:
        raise DomainError("q list must contain at least one value")
    return qs


# Largest weight grid: its points, rows and text take about 0.33 KB a
# sample plus 0.12 KB per q in the list. At 100,000 samples the three
# default q peak at 87 MB resident, 71 MB above the interpreter (JSON; CSV
# 68 MB), and ten q at 186 MB (measured with CPython 3.11). So the weights,
# samples x q, are bounded too, by the default list at the samples bound;
# within it fewer samples peak lower (30,000 x 10 q: 68 MB, 3,000 x 100 q:
# 55 MB).
_MAX_SAMPLES = 100_000
_MAX_WEIGHTS = 3 * _MAX_SAMPLES


def _weight_lambdas(lmin: float, lmax: float, samples: int, curves: int = 1) -> list[float]:
    lmin = positive_real("lambda-min", lmin)
    lmax = positive_real("lambda-max", lmax)
    if not lmin < lmax:
        raise DomainError(f"need lambda-min < lambda-max, got [{lmin}, {lmax}]")
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    if samples > _MAX_SAMPLES:
        raise DomainError(f"samples must be <= {_MAX_SAMPLES}, got {samples}")
    if samples * curves > _MAX_WEIGHTS:
        raise DomainError(
            f"samples x q values must be <= {_MAX_WEIGHTS}, got {samples} x {curves}"
        )
    # np.linspace's arithmetic, bit for bit: start + i * step, then stop
    start, stop = math.log10(lmin), math.log10(lmax)
    step = (stop - start) / (samples - 1)
    exps = [start + i * step for i in range(samples - 1)] + [stop]
    # snap the exponent so the grid hits lambda = 1 exactly, then force the
    # crossing point in whenever the range straddles it
    lams = {1.0 if abs(e) < 1e-12 else 10.0**e for e in exps}
    if lmin < 1.0 < lmax:
        lams.add(1.0)
    return sorted(lams)


def _cmd_weight(args: argparse.Namespace) -> int:
    qs = _parse_q_list(args.q_list)
    lams = _weight_lambdas(args.lambda_min, args.lambda_max, args.samples, len(qs))
    labels = [f"q={q:g}" for q in qs]
    rows = [[lam] + [spectral_weight(lam, q) for q in qs] for lam in lams]
    if args.format == "json":
        objs = [
            dict(zip(["lambda"] + labels, row))
            for row in rows
        ]
        text = json.dumps(objs) + "\n"
    else:
        lines = [",".join(["lambda"] + labels)]
        lines.extend(",".join(f"{v:.17g}" for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import dataclasses

    from .verify import run_checks

    results = run_checks()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: residual={res.residual:.6g} "
            f"tolerance={res.tolerance:.6g}",
            file=sys.stderr,
        )
    failures = [res.name for res in results if not res.passed]
    report = {
        "command": "verify",
        "passed": not failures,
        "failures": failures,
        "checks": [dataclasses.asdict(res) for res in results],
    }
    _emit(_render_report(report, "json"), args.out)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default_format,
        help="output format (default %(default)s)",
    )
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspectra",
        description="Deformed spectral determinants, zeta continuation, "
        "simplex geometry, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qdet = sub.add_parser(
        "qdet", help="deformed log-determinant of a spectrum or zeta model"
    )
    p_qdet.add_argument("--q", type=float, required=True, help="deformation index")
    p_qdet.add_argument(
        "--theta", type=float, default=None,
        help="apply the power map A -> A^theta to every input first",
    )
    p_qdet.add_argument("--input", required=True, help="operand file")
    p_qdet.add_argument(
        "--input-ref", action="append", default=[], metavar="PATH",
        help="reference operator for a relative determinant; repeatable, "
        "multiple finite spectra combine by direct sum",
    )
    _add_io_flags(p_qdet, "json")
    p_qdet.set_defaults(func=_cmd_qdet)

    p_zeta = sub.add_parser("zeta", help="zeta values and zeta'(0) of a model")
    p_zeta.add_argument("--input", required=True, help="operand file")
    p_zeta.add_argument("--s", type=float, default=None, help="evaluation point")
    p_zeta.add_argument(
        "--deriv0", action="store_true", help="emit zeta'(0) instead of a value"
    )
    _add_io_flags(p_zeta, "json")
    p_zeta.set_defaults(func=_cmd_zeta)

    p_geom = sub.add_parser("geometry", help="simplex metric field export")
    p_geom.add_argument("--q", type=float, default=1.4, help="deformation index")
    p_geom.add_argument(
        "--resolution", type=int, default=60,
        help="lattice refinement, 1 to 1000",  # geometry.MAX_RESOLUTION
    )
    p_geom.add_argument(
        "--margin", type=float, default=1e-3,
        help="minimum distance from the simplex boundary",
    )
    _add_io_flags(p_geom, "csv")
    p_geom.set_defaults(func=_cmd_geometry)

    p_weight = sub.add_parser("weight", help="spectral-weight curves lambda^(-q)")
    p_weight.add_argument(
        "--q-list", default="0.5,1,2",
        help="comma-separated deformation indices (default %(default)s); "
        "samples x q values at most 300000",  # _MAX_WEIGHTS
    )
    p_weight.add_argument("--lambda-min", type=float, default=0.1)
    p_weight.add_argument("--lambda-max", type=float, default=10.0)
    p_weight.add_argument(
        "--samples", type=int, default=101,
        help="points on the log-spaced grid, 2 to 100000",  # _MAX_SAMPLES
    )
    _add_io_flags(p_weight, "csv")
    p_weight.set_defaults(func=_cmd_weight)

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--out", default=None, help="report file (default stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PoleError, UnsupportedModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
