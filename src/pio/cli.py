"""Command line front end.

Exit codes: 0 success, 1 usage or input-format problem (an ``--out`` file
that cannot be written too), 2 model failed
validation, 3 the request is a deliberate theory-domain refusal (parameter
on the spectrum, eigenvalue hit, and so on).  Output is deterministic: JSON
by ``json.dumps`` with keys sorted and a two-space indent, and every float, in
JSON and CSV, as Python's shortest text that reads back to the same double
(``Infinity`` and ``NaN`` in JSON where it is not finite).

Each subcommand's runner imports the library functions it calls when it runs,
so a ``pio`` process compiles and loads only the modules its subcommand needs,
and reads each function from its home module at call time.
"""

from __future__ import annotations

import argparse
import json
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
    _integer,
    _numeric,
    _tolerance,
    _whole,
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


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_rows(header, rows):
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _emit_grid(model, names, columns, out_path):
    """CSV ``x,y,<names>``, one row per node of the model's grid (``x`` slowest) and one
    column per array of values on it."""
    x, y = np.meshgrid(model.rule_x.nodes, model.rule_y.nodes, indexing="ij")
    table = np.stack([x, y, *columns], axis=-1).reshape(-1, 2 + len(columns))
    return _emit(_csv_rows(",".join(("x", "y", *names)), table.tolist()), out_path)


def _flag(rule, name, **bounds):
    """Flag type: the text as an int, else a float, else as it is, converted by the library's
    ``rule`` as its parameter ``name``; the rule's refusal is a usage error, exit 1."""

    def parse(text):
        for kind in (_integer, float, str):  # a zero is read as a float, so that -0 keeps its sign
            try:
                value = kind(text)
            except ValueError:
                continue
            if value or kind is not _integer:
                break
        try:
            return rule(value, name, **bounds)
        except PioError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


def _build_parser():
    parser = _Parser(prog="pio", description="spectral toolkit for two-channel partial integral operators")
    commands = parser.add_subparsers(dest="command", required=True)

    def cmd(name, run, **kwargs):
        sub = commands.add_parser(name, **kwargs)
        sub.add_argument("--model", required=True, help="model JSON file")
        sub.add_argument("--out", default=None, help="output file (default: stdout)")
        sub.set_defaults(run=run)
        return sub

    cmd("validate", _run_validate, help="check the model and report")
    cmd("spectrum", _run_spectrum, help="full spectrum report")
    cmd("discrete", _run_discrete, help="discrete eigenvalues only")

    sub = cmd("solve", _run_solve, help="solve f - tau*T f = g")
    sub.add_argument("--tau", type=_flag(_numeric, "tau", real=True), required=True)
    sub.add_argument("--rhs", required=True, help="right-hand side, expression in x and y")

    sub = cmd("delta-trace", _run_delta_trace, help="determinant samples over a real window")
    sub.add_argument("--lmin", type=_flag(_numeric, "lmin", real=True), required=True)
    sub.add_argument("--lmax", type=_flag(_numeric, "lmax", real=True), required=True)
    sub.add_argument("--samples", type=_flag(_whole, "samples", lo=2), required=True)
    sub.add_argument("--path", type=_flag(_whole, "path", hi=2), default=1, choices=(1, 2))

    sub = cmd("oracle-check", _run_oracle_check, help="discretization cross-check")
    sub.add_argument("--nx", type=_flag(_whole, "Nx"), default=60)
    sub.add_argument("--ny", type=_flag(_whole, "Ny"), default=60)
    sub.add_argument("--tol-disc", type=_flag(_tolerance, "tol_disc"), default=5e-3)
    sub.add_argument("--tol-ess", type=_flag(_tolerance, "tol_ess"), default=5e-3)

    sub = cmd("eigenfunction", _run_eigenfunction, help="orthonormal eigenfunctions at an eigenvalue")
    sub.add_argument("--lambda", dest="lam", type=_flag(_numeric, "lam0", real=True), required=True)
    return parser


def _require_valid(args):
    """The model, exiting 2 on the validation report the library gates on too."""
    from .model import load_model_file

    model = load_model_file(args.model)
    if not model._validation.ok:
        sys.stderr.write(f"{InvalidModel(model._validation)}\n")
        raise SystemExit(_INVALID_EXIT)
    return model


def _run_validate(args):
    from .model import load_model_file

    report = load_model_file(args.model)._validation
    code = 0 if report.ok else _INVALID_EXIT
    _emit(_json(report.as_dict()), args.out)
    return code


def _run_spectrum(args):
    from .spectrum import sigma_full

    return _emit(_json(sigma_full(_require_valid(args)).as_dict()), args.out)


def _run_discrete(args):
    from .spectrum import discrete_spectrum

    return _emit(_json([[lam, mult] for lam, mult in discrete_spectrum(_require_valid(args))]), args.out)


def _run_solve(args):
    from .expr import parse_expr2
    from .pie import residual, solve_pie

    model = _require_valid(args)
    rhs = parse_expr2(args.rhs)
    g = model.grid(rhs)
    f = solve_pie(model, args.tau, g)
    code = _emit_grid(model, ["value"], [f.values], args.out)
    res = residual(model, args.tau, f, g)
    payload = {"residual": float(res), "tau": args.tau}
    (sys.stdout if args.out else sys.stderr).write(_json(payload))  # not into the CSV
    return code


def _run_delta_trace(args):
    from .spectrum import delta_trace_rows

    model = _require_valid(args)
    if not args.lmin < args.lmax:  # spans two flags, so no flag type can check it
        sys.stderr.write(f"input error: need lmin < lmax, got {args.lmin!r} and {args.lmax!r}\n")
        return _USAGE_EXIT
    view = model if args.path == 1 else model.mirrored()
    rows = [(*row, args.path) for row in delta_trace_rows(view, args.lmin, args.lmax, args.samples)]
    return _emit(_csv_rows("lambda,re_delta,im_delta,path", rows), args.out)


def _run_oracle_check(args):
    from .oracle import compare_spectra, nystrom_matrix, oracle_eigs
    from .spectrum import sigma_full

    model = _require_valid(args)
    sysm = nystrom_matrix(model, args.nx, args.ny)
    eigs = oracle_eigs(sysm)
    report = sigma_full(model)
    cmp = compare_spectra(report, eigs, args.tol_disc, args.tol_ess)
    head = eigs[np.argsort(-np.abs(eigs), kind="stable")[:16]]  # ties keep their order
    payload = {
        "nystrom": {"Nx": sysm.nx, "Ny": sysm.ny},  # the grid built, which gives each panel a node
        "eigs_head": [float(e) for e in head],
        "mismatches": [dict(m) for m in cmp.mismatches],
        "ok": cmp.ok,
    }
    return _emit(_json(payload), args.out)


def _run_eigenfunction(args):
    from .spectrum import eigenfunctions_T

    model = _require_valid(args)
    family = eigenfunctions_T(model, args.lam)
    names = [f"f{i + 1}" for i in range(len(family))]
    return _emit_grid(model, names, [g.values.real for g in family], args.out)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
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
