"""Command line front end.

Exit codes: 0 success, 1 usage or input-format problem (an ``--out`` file
that cannot be written too), 2 model failed
validation, 3 the request is a deliberate theory-domain refusal (parameter
on the spectrum, eigenvalue hit, and so on).  All JSON output is
deterministic: keys sorted, floats at 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import (
    EigenvalueHit,
    ExprSyntaxError,
    InvalidModel,
    ModelFormatError,
    NoAtom,
    NonUniqueSolution,
    NotAnEigenvalue,
    OutsideTheory,
    PioError,
    SpectrumHit,
    UnknownIdentifier,
)
from .expr import parse_expr2
from .model import load_model_file
from .oracle import compare_spectra, nystrom_matrix, oracle_eigs
from .pie import residual, solve_pie
from .spectrum import (
    delta_trace_rows,
    discrete_spectrum,
    eigenfunctions_T,
    sigma_full,
)

__all__ = ["main"]

_USAGE_EXIT = 1
_INVALID_EXIT = 2
_REFUSAL_EXIT = 3

_REFUSALS = (
    SpectrumHit,
    EigenvalueHit,
    NotAnEigenvalue,
    NoAtom,
    NonUniqueSolution,
    OutsideTheory,
)


def _fmt(x):
    return format(float(x), ".17g")


def _to_json(obj, indent=0):
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f'{inner}"{key}": {_to_json(obj[key], indent + 1)}'
            for key in sorted(obj)
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _emit_json(payload, out_path):
    return _emit(_to_json(payload) + "\n", out_path)


def _csv_rows(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _number(kind, low, what):
    """Flag type that parses ``kind`` and refuses values that are not finite
    or are below ``low``, so that argparse exits 1 before anything runs."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = np.nan
        if not (abs(value) < np.inf and value >= low):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_finite = _number(float, -np.inf, "a finite number")
_tolerance = _number(float, 0.0, "a finite number >= 0")
_positive = _number(int, 1, "an integer >= 1")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


def _build_parser():
    parser = _Parser(prog="pio", description="spectral toolkit for two-channel partial integral operators")
    commands = parser.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        sub = commands.add_parser(name, **kwargs)
        sub.add_argument("--model", required=True, help="model JSON file")
        sub.add_argument("--out", default=None, help="output file (default: stdout)")
        return sub

    cmd("validate", help="check the model and report")
    cmd("spectrum", help="full spectrum report")
    cmd("discrete", help="discrete eigenvalues only")

    sub = cmd("solve", help="solve f - tau*T f = g")
    sub.add_argument("--tau", type=_finite, required=True)
    sub.add_argument("--rhs", required=True, help="right-hand side, expression in x and y")

    sub = cmd("delta-trace", help="determinant samples over a real window")
    sub.add_argument("--lmin", type=_finite, required=True)
    sub.add_argument("--lmax", type=_finite, required=True)
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--path", type=int, default=1, choices=(1, 2))

    sub = cmd("oracle-check", help="discretization cross-check")
    sub.add_argument("--nx", type=_positive, default=60)
    sub.add_argument("--ny", type=_positive, default=60)
    sub.add_argument("--tol-disc", type=_tolerance, default=5e-3)
    sub.add_argument("--tol-ess", type=_tolerance, default=5e-3)

    sub = cmd("eigenfunction", help="orthonormal eigenfunctions at an eigenvalue")
    sub.add_argument("--lambda", dest="lam", type=_finite, required=True)
    return parser


def _require_valid(args):
    """The model, exiting 2 on the validation report the library gates on too."""
    model = load_model_file(args.model)
    if not model._validation.ok:
        sys.stderr.write(f"{InvalidModel(model._validation)}\n")
        raise SystemExit(_INVALID_EXIT)
    return model


def _run_validate(args):
    report = load_model_file(args.model)._validation
    code = 0 if report.ok else _INVALID_EXIT
    _emit_json(report.as_dict(), args.out)
    return code


def _run_spectrum(args):
    model = _require_valid(args)
    report = sigma_full(model)
    return _emit_json(report.as_dict(), args.out)


def _run_discrete(args):
    model = _require_valid(args)
    disc = discrete_spectrum(model)
    return _emit_json([[lam, mult] for lam, mult in disc], args.out)


def _run_solve(args):
    model = _require_valid(args)
    rhs = parse_expr2(args.rhs)
    g = model.grid(rhs)
    f = solve_pie(model, args.tau, g)
    xs, ys = model.rule_x.nodes, model.rule_y.nodes
    rows = (
        (float(x), float(y), float(f.values[i, j]))
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
    )
    code = _emit(_csv_rows("x,y,value", rows), args.out)
    res = residual(model, args.tau, f, g)
    payload = {"residual": float(res), "tau": float(args.tau)}
    if args.out:
        sys.stdout.write(_to_json(payload) + "\n")
    else:
        sys.stderr.write(_to_json(payload) + "\n")
    return code


def _run_delta_trace(args):
    model = _require_valid(args)
    if args.samples < 2 or args.lmax <= args.lmin:
        sys.stderr.write("need lmin < lmax and at least 2 samples\n")
        return _USAGE_EXIT
    view = model if args.path == 1 else model.mirrored()
    rows = [(*row, args.path) for row in delta_trace_rows(view, args.lmin, args.lmax, args.samples)]
    return _emit(_csv_rows("lambda,re_delta,im_delta,path", rows), args.out)


def _run_oracle_check(args):
    model = _require_valid(args)
    sysm = nystrom_matrix(model, args.nx, args.ny)
    eigs = oracle_eigs(sysm)
    report = sigma_full(model)
    cmp = compare_spectra(report, eigs, args.tol_disc, args.tol_ess)
    head = sorted(eigs, key=abs, reverse=True)[:16]
    payload = {
        "nystrom": {"Nx": int(args.nx), "Ny": int(args.ny)},
        "eigs_head": [float(e) for e in head],
        "mismatches": [dict(m) for m in cmp.mismatches],
        "ok": cmp.ok,
    }
    return _emit_json(payload, args.out)


def _run_eigenfunction(args):
    model = _require_valid(args)
    family = eigenfunctions_T(model, args.lam)
    xs, ys = model.rule_x.nodes, model.rule_y.nodes
    header = "x,y," + ",".join(f"f{i + 1}" for i in range(len(family)))
    rows = (
        (float(x), float(y), *(float(g.values[i, j].real) for g in family))
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
    )
    return _emit(_csv_rows(header, rows), args.out)


_RUNNERS = {
    "validate": _run_validate,
    "spectrum": _run_spectrum,
    "discrete": _run_discrete,
    "solve": _run_solve,
    "delta-trace": _run_delta_trace,
    "oracle-check": _run_oracle_check,
    "eigenfunction": _run_eigenfunction,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _RUNNERS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE_EXIT
    except (ModelFormatError, ExprSyntaxError, UnknownIdentifier, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return _USAGE_EXIT
    except _REFUSALS as exc:
        sys.stderr.write(f"refused: {type(exc).__name__}: {exc}\n")
        return _REFUSAL_EXIT
    except PioError as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return _INVALID_EXIT


if __name__ == "__main__":
    sys.exit(main())
