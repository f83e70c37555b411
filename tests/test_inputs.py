"""One input rule for every entry point.

Every number a public callable takes goes through the numeric rule
(``errors._numeric``), every index or size through the whole rule
(``errors._whole``) and every tolerance through the tolerance rule
(``errors._tolerance``), once, at entry.  ``TABLE`` names, for each callable in
``pio.__all__``, the parameters that go through them, or says why there are
none; the refusal matrix feeds each parameter the same bad values, on both
paths, and requires the parameter's ``PioError`` subclass with the one message
of the rule, naming the parameter.  The expected texts are built from
``repr`` of the value where numpy's scalar reprs differ between versions.
"""

import inspect
import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import pio
import pio.cli
import pio.errors
import pio.model
import pio.operators
import pio.oracle
import pio.pie
import pio.quadrature
import pio.spectrum
from pio.cli import main
from pio.errors import BadBreakpoint, BadInterval, DomainError, IndexOutOfRange, ModelFormatError, PioError
from pio.model import SearchSettings, make_model, model_from_dict
from pio.operators import apply_partial, apply_S, apply_W, project, resolvent_channel, resolvent_T
from pio.oracle import compare_spectra, nystrom_matrix, oracle_eigs
from pio.pie import classify_tau, residual, solve_pie
from pio.quadrature import build_rule
from pio.spectrum import (
    atom_eigenfunction,
    delta,
    delta_batch,
    delta_trace_rows,
    eigenfunctions_T,
    essential_range,
    pi_matrix,
    sigma_channel,
    sigma_full,
)

from conftest import fixture_a_dict


def grid(model):
    return model.grid(lambda x, y: 1.0 + x * y)


def compare(model, **tols):
    tols = {"tol_disc": 1e-6, "tol_ess": 1e-6, **tols}
    return compare_spectra(sigma_full(model), oracle_eigs(nystrom_matrix(model, 4, 4)), **tols)


def document(section, key, value):
    """Fixture a's model document with ``value`` as ``section.key``, or as the second entry
    of the list that the key holds (the domain's ends and the extra breakpoints)."""
    doc = fixture_a_dict()
    if section == "domain":
        value = [0.0, value]
    elif key.startswith("extra_breakpoints"):
        value = [0.5, value]
    doc.setdefault(section, {})[key] = value
    return doc


_FIELDS = "an immutable record the library builds; its fields are not converted"
# Each public callable: its rows ``(parameter, name in the message, kind, error, call)``, where
# ``call(view, value)`` passes ``value`` as that parameter, or the reason it has none.  Kinds:
# ``number`` (real or complex), ``tau`` (a number whose reciprocal is taken), ``real``, ``whole``
# and ``array`` (a one-dimensional array of numbers); an interval or breakpoint list takes the
# value as one entry.
TABLE = {
    **{name: "an exception class: the library builds its message" for name in pio.errors.__all__},
    "Expression": "built by parse_expr from expression text",
    "parse_expr": "takes expression text, whose literals the grammar reads (tests/test_expr.py)",
    "parse_expr2": "takes expression text, whose literals the grammar reads (tests/test_expr.py)",
    "QuadRule1D": "built by build_rule, which converts its interval and order",
    "Grid2D": "grid samples, whose shape is checked against the rules (GridMismatch)",
    "build_rule": [
        ("interval", "interval", "real", BadInterval, lambda m, v: build_rule((0.0, v), 4)),
        ("order", "quadrature order", "whole", BadInterval, lambda m, v: build_rule((0.0, 1.0), v)),
        ("breakpoints", "breakpoint", "real", BadBreakpoint, lambda m, v: build_rule((0.0, 1.0), 4, [v])),
    ],
    "Channel": "a pair of expression tuples",
    "PIOModel": "the model record: make_model and model_from_dict convert its fields",
    "SearchSettings": [
        ("margin", "search.margin", "real", ModelFormatError, lambda m, v: SearchSettings(margin=v)),
        ("scan_points", "search.scan_points", "whole", ModelFormatError,
         lambda m, v: SearchSettings(scan_points=v)),
    ],
    "CheckResult": _FIELDS,
    "ValidationReport": _FIELDS,
    "make_model": [
        ("x_interval", "x_interval", "real", BadInterval,
         lambda m, v: make_model((0.0, v), (0, 1), ["1"], ["2"], ["1"], ["3"])),
        ("y_interval", "y_interval", "real", BadInterval,
         lambda m, v: make_model((0, 1), (0.0, v), ["1"], ["2"], ["1"], ["3"])),
        ("order", "quadrature order", "whole", BadInterval,
         lambda m, v: make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=v)),
        ("extra_breakpoints_x", "extra_breakpoints_x", "real", ModelFormatError,
         lambda m, v: make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], extra_breakpoints_x=[0.5, v])),
        ("extra_breakpoints_y", "extra_breakpoints_y", "real", ModelFormatError,
         lambda m, v: make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], extra_breakpoints_y=[0.5, v])),
    ],
    "model_from_dict": [
        ("data", "domain.x", "real", ModelFormatError, lambda m, v: model_from_dict(document("domain", "x", v))),
        ("data", "domain.y", "real", ModelFormatError, lambda m, v: model_from_dict(document("domain", "y", v))),
        ("data", "quadrature.order", "whole", ModelFormatError,
         lambda m, v: model_from_dict(document("quadrature", "order", v))),
        ("data", "quadrature.extra_breakpoints_x", "real", ModelFormatError,
         lambda m, v: model_from_dict(document("quadrature", "extra_breakpoints_x", v))),
        ("data", "quadrature.extra_breakpoints_y", "real", ModelFormatError,
         lambda m, v: model_from_dict(document("quadrature", "extra_breakpoints_y", v))),
        ("data", "search.margin", "real", ModelFormatError,
         lambda m, v: model_from_dict(document("search", "margin", v))),
        ("data", "search.scan_points", "whole", ModelFormatError,
         lambda m, v: model_from_dict(document("search", "scan_points", v))),
    ],
    "load_model_file": "reads a file into model_from_dict; see the model-file tests below",
    "validate_model": "takes a model only",
    "norm_bound": "takes a model only",
    "SpectralSet": "built by the library from a model's weights",
    "SpectrumReport": _FIELDS,
    "essential_range": [
        ("interval", "interval", "real", BadInterval,
         lambda m, v: essential_range(m.channel1.weights[0], (0.0, v))),
    ],
    "sigma_channel": [("channel", "channel", "whole", PioError, lambda m, v: sigma_channel(m, v))],
    "sigma_ess": "takes a model only",
    "pi_matrix": [("lam", "lambda", "number", DomainError, lambda m, v: pi_matrix(m, v))],
    "delta": [("lam", "lambda", "number", DomainError, lambda m, v: delta(m, v))],
    "delta_batch": [("lams", "lambda", "array", DomainError, lambda m, v: delta_batch(m, v))],
    "discrete_spectrum": "takes a model only",
    "sigma_full": "takes a model only",
    "eigenfunctions_T": [("lam0", "lam0", "real", DomainError, lambda m, v: eigenfunctions_T(m, v))],
    "atom_eigenfunction": [
        ("channel", "channel", "whole", PioError, lambda m, v: atom_eigenfunction(m, v, 1, 2.0)),
        ("j0", "member index", "whole", IndexOutOfRange, lambda m, v: atom_eigenfunction(m, 1, v, 2.0)),
        ("lam0", "lam0", "real", DomainError, lambda m, v: atom_eigenfunction(m, 1, 1, v)),
    ],
    "delta_trace_rows": [
        ("lmin", "lmin", "real", DomainError, lambda m, v: delta_trace_rows(m, v, 6.0, 3)),
        ("lmax", "lmax", "real", DomainError, lambda m, v: delta_trace_rows(m, 1.0, v, 3)),
        ("samples", "samples", "whole", DomainError, lambda m, v: delta_trace_rows(m, 1.0, 6.0, v)),
    ],
    "apply_partial": [("channel", "channel", "whole", PioError, lambda m, v: apply_partial(m, v, grid(m)))],
    "apply_T": "takes a model and a grid only",
    "project": [
        ("channel", "channel", "whole", PioError, lambda m, v: project(m, v, 1, grid(m))),
        ("k", "member index", "whole", IndexOutOfRange, lambda m, v: project(m, 1, v, grid(m))),
    ],
    "resolvent_channel": [
        ("channel", "channel", "whole", PioError, lambda m, v: resolvent_channel(m, v, 10.0, grid(m))),
        ("lam", "lambda", "number", DomainError, lambda m, v: resolvent_channel(m, 1, v, grid(m))),
    ],
    "apply_S": [
        ("channel", "channel", "whole", PioError, lambda m, v: apply_S(m, v, 0.1, grid(m))),
        ("tau", "tau", "tau", DomainError, lambda m, v: apply_S(m, 1, v, grid(m))),
    ],
    "apply_W": [("tau", "tau", "tau", DomainError, lambda m, v: apply_W(m, v, grid(m)))],
    "resolvent_T": [("lam", "lambda", "number", DomainError, lambda m, v: resolvent_T(m, v, grid(m)))],
    "TauClass": "an enumeration of the classes classify_tau returns",
    "classify_tau": [("tau", "tau", "tau", DomainError, lambda m, v: classify_tau(m, v))],
    "solve_pie": [("tau", "tau", "tau", DomainError, lambda m, v: solve_pie(m, v, grid(m)))],
    # residual takes no reciprocal, so a tau of 1e-310 is a number it computes with
    "residual": [("tau", "tau", "number", DomainError, lambda m, v: residual(m, v, grid(m), grid(m)))],
    "NystromSystem": "the grid and factors nystrom_matrix builds",
    "nystrom_matrix": [
        ("Nx", "Nx", "whole", PioError, lambda m, v: nystrom_matrix(m, v, 3)),
        ("Ny", "Ny", "whole", PioError, lambda m, v: nystrom_matrix(m, 3, v)),
    ],
    "oracle_eigs": "takes the NystromSystem that nystrom_matrix builds",
    "ComparisonReport": _FIELDS,
    "compare_spectra": [
        ("tol_disc", "tol_disc", "real", PioError, lambda m, v: compare(m, tol_disc=v)),
        ("tol_ess", "tol_ess", "real", PioError, lambda m, v: compare(m, tol_ess=v)),
    ],
}

NOT_A_NUMBER = {"str": "0.5", "None": None, "Decimal": Decimal("0.5"), "True": True, "np.True_": np.True_,
                "object array": np.array([Fraction(1, 2)], dtype=object), "ragged list": [0.5, [0.5, 0.5]]}
NOT_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}
BEYOND_DOUBLE = {"10**400": 10**400, "Fraction(10**400)": Fraction(10**400),
                 "longdouble 1e4000": np.longdouble("1e4000")}
VALUES = {**NOT_A_NUMBER, "2-d array": np.ones((2, 2)), "1-element array": np.array([0.5]), **NOT_FINITE,
          **BEYOND_DOUBLE, "complex": complex(0.5, 0.5), "2.5": 2.5, "1e-310": 1e-310}


def refusal(param, kind, name, key, value):
    """``(value as passed, message)`` of the rule for ``value`` given as the parameter ``param``
    of ``kind`` named ``name`` in its messages, or ``None`` where the value is not refused there."""
    if kind == "array" and isinstance(value, (float, np.floating)):  # a float in an array of them
        value = np.array([0.5, value])
    if key in NOT_A_NUMBER:
        if value is None and param == "margin":
            return None  # SearchSettings' default margin; a model file's null margin is refused
        return value, f"{name} must be a number, got {value!r}"
    if key == "2-d array":
        want = "a one-dimensional array" if kind == "array" else "one number"
        return value, f"{name} must be {want}, got shape (2, 2)"
    if key == "1-element array":
        return (value, f"{name} must be one number, got shape (1,)") if kind != "array" else None
    if key in NOT_FINITE:
        return value, f"{name} {NOT_FINITE[key]!r} is not finite"
    if key in BEYOND_DOUBLE:
        return value, f"{name} is beyond the range of a double"
    if key == "complex":
        return (value, f"{name} (0.5+0.5j) is not real") if kind in ("real", "whole") else None
    if key == "2.5":
        return (value, f"{name} must be a whole number, got 2.5") if kind == "whole" else None
    return (value, "tau 1e-310 is nonzero but 1/tau overflows") if kind == "tau" else None


ROWS = {f"{callable_name} {row[0]} {row[1]}": row
        for callable_name, rows in TABLE.items() if not isinstance(rows, str) for row in rows}


def test_every_public_callable_is_in_the_table():
    public = [name for name in pio.__all__ if callable(getattr(pio, name))]
    assert [name for name in public if name not in TABLE] == []
    assert [name for name in TABLE if name not in public] == []
    for name, rows in TABLE.items():
        if isinstance(rows, str):
            assert rows, name  # no parameters, and a reason
        else:
            assert {row[0] for row in rows} <= set(inspect.signature(getattr(pio, name)).parameters), name


@pytest.mark.parametrize("row", list(ROWS), ids=list(ROWS))
@pytest.mark.parametrize("path", [1, 2])
def test_refusal_matrix(fixture_a, row, path):
    # strings, None, booleans, 10**400 and arrays each escaped some of these as a raw
    # TypeError, ValueError or OverflowError, or were computed as another value
    param, name, kind, error, call = ROWS[row]
    view = fixture_a if path == 1 else fixture_a.mirrored()
    for key, value in VALUES.items():
        expected = refusal(param, kind, name, key, value)
        if expected is None:
            continue
        value, message = expected
        with pytest.raises(PioError) as err:
            call(view, value)
        assert (type(err.value), str(err.value)) == (error, message), key


@pytest.mark.parametrize("key", ["domain.y", "quadrature.order", "search.margin", "extra_breakpoints_x"])
def test_a_model_file_number_beyond_double_range_is_an_input_error(tmp_path, capsys, key):
    # a 400-digit integer in these keys made `pio validate` exit 1 with a raw traceback
    doc = fixture_a_dict()
    if key == "domain.y":
        doc["domain"]["y"] = [0, 10**400]
    elif key == "search.margin":
        doc["search"] = {"margin": 10**400}
    else:
        doc["quadrature"] = {"order": 10**400} if key == "quadrature.order" else {key: [10**400]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    where = f"quadrature.{key}" if key == "extra_breakpoints_x" else key
    assert (out, err) == ("", f"input error: {where} is beyond the range of a double\n")


@pytest.mark.parametrize("content", [b'{"domain": {"x": [0, 1' + b"0" * 5000 + b"]}}", b'{"domain": "\xff"}'],
                         ids=["5000-digit integer", "not UTF-8"])
def test_a_model_file_python_cannot_read_as_json_is_an_input_error(tmp_path, capsys, content):
    # Python's json raised a raw ValueError for an integer over its 4,300-digit limit,
    # and the file's decoding a raw UnicodeDecodeError
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main(["validate", "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: model file is not valid JSON: ")


def test_whole_valued_floats_are_whole_numbers(fixture_a):
    # every whole parameter takes a whole-valued float, as make_model's order did
    assert build_rule((0, 1), 3.0).nodes.tobytes() == build_rule((0, 1), 3).nodes.tobytes()
    assert make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=np.float64(3.0)).order == 3
    assert type(SearchSettings(scan_points=64.0).scan_points) is int
    assert delta_trace_rows(fixture_a, 1.0, 6.0, 3.0) == delta_trace_rows(fixture_a, 1.0, 6.0, 3)
    assert nystrom_matrix(fixture_a, 3.0, np.float32(4.0)).size == 12
    g = grid(fixture_a)
    assert apply_partial(fixture_a, 2.0, g).values.tobytes() == apply_partial(fixture_a, 2, g).values.tobytes()
    # a model file's order and scan_points were refused as "unexpected type float"
    doc = document("quadrature", "order", 3.0)
    doc["search"] = {"scan_points": 8.0}
    model = model_from_dict(doc)
    assert (model.order, model.search.scan_points) == (3, 8)
    assert type(model.order) is type(model.search.scan_points) is int


def test_a_constant_grid_is_one_number(fixture_a):
    # float(value) read "5" as 5.0 and True as 1.0, and raised a raw TypeError for 1+1j
    for value, message in (("5", "value must be a number, got '5'"), (True, "value must be a number, got True"),
                           (np.ones(2), "value must be one number, got shape (2,)"),
                           (float("nan"), "value nan is not finite")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            fixture_a.constant_grid(value)
    values = fixture_a.constant_grid(1 + 1j).values
    assert values.dtype == np.complex128 and values.shape == (32, 32) and (values == 1 + 1j).all()
    assert fixture_a.constant_grid(2).values.dtype == np.float64


def test_a_real_array_refuses_a_complex_one():
    # real was ignored for an array: a complex128 array came back
    with pytest.raises(DomainError, match=r"^x must be real, got a complex array$"):
        pio.errors._numeric(np.array([1 + 1j]), "x", real=True, ndim=1)
    assert pio.errors._numeric(np.array([1 + 1j]), "x", ndim=1).dtype == np.complex128


def test_the_tolerance_rule_is_the_numeric_rule_at_least_zero():
    # compare_spectra and the --tol-disc and --tol-ess flag types share it, so the command
    # line reads it from errors without loading the oracle
    assert pio.oracle._tolerance is pio.errors._tolerance is pio.cli._tolerance
    assert pio.errors._tolerance(Fraction(1, 4), "tol") == 0.25
    assert pio.errors._tolerance(0, "tol") == 0.0
    with pytest.raises(PioError, match=r"^tol must be finite and >= 0, got -0\.5$"):
        pio.errors._tolerance(-0.5, "tol")
    with pytest.raises(PioError, match=r"^tol must be a number, got '0\.5'$"):
        pio.errors._tolerance("0.5", "tol")


def test_interval_ends_and_search_settings_are_numbers():
    # "0" was read as 0.0 and None raised a raw TypeError; a Fraction is its nearest float
    with pytest.raises(BadInterval, match=r"^x_interval must be a number, got '0'$"):
        make_model(("0", 1), (0, 1), ["1"], ["2"], ["1"], ["3"])
    with pytest.raises(BadInterval, match=r"^interval must be a pair \(lo, hi\), got None$"):
        build_rule(None, 4)
    assert build_rule((np.float32(0.5), Fraction(3, 2)), 2).panel_edges == (0.5, 1.5)
    assert SearchSettings(margin=Fraction(1, 4)).margin == 0.25


def test_the_traced_calls_go_through_the_module_globals(fixture_a, monkeypatch):
    # the benchmark's tracer wraps pie.classify_tau and operators.apply_S in the modules
    # that hold them, so solve_pie and the resolvent must reach them by those names
    seen = []
    for module, name in ((pio.pie, "classify_tau"), (pio.operators, "apply_S")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: seen.append(_n) or _f(*args))
    g = grid(fixture_a)
    solve_pie(fixture_a, 0.1, g)
    assert seen == ["classify_tau", "apply_S", "apply_S"]
    seen.clear()
    resolvent_T(fixture_a, 10.0, g)
    assert seen == ["apply_S", "apply_S"]


# warm calls on fixture a and the numeric-rule conversions each makes: one per public entry point
# entered (solve_pie enters classify_tau and apply_S twice); the whole rule runs for the channel
# of each apply_S, on its fast path for an int
CONVERSIONS = {
    "solve_pie": (lambda m, g: solve_pie(m, 0.1, g), {"_numeric": 4, "_whole": 2}),
    "resolvent_T": (lambda m, g: resolvent_T(m, 10.0, g), {"_numeric": 3, "_whole": 2}),
    "eigenfunctions_T": (lambda m, g: eigenfunctions_T(m, 5.0), {"_numeric": 1}),
    "classify_tau": (lambda m, g: classify_tau(m, 0.1), {"_numeric": 1}),
}


@pytest.mark.parametrize("name", list(CONVERSIONS))
def test_one_conversion_per_public_entry_point(fixture_a, monkeypatch, name):
    call, expected = CONVERSIONS[name]
    g = grid(fixture_a)
    call(fixture_a, g)  # warm: the search has run
    counts = {}
    for module in (pio.spectrum, pio.operators, pio.pie, pio.model, pio.quadrature, pio.oracle):
        for rule in ("_numeric", "_whole"):
            if hasattr(module, rule):
                original = getattr(pio.errors, rule)
                monkeypatch.setattr(module, rule, lambda *args, _f=original, _r=rule, **kwargs:
                                    counts.__setitem__(_r, counts.get(_r, 0) + 1) or _f(*args, **kwargs))
    call(fixture_a, g)
    assert counts == expected
