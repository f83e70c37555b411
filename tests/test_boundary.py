"""What crosses the library boundary: refusal of models that fail validation
and of parameters that are not finite, plain Python numbers in results and
refusal messages, and which public names exist."""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import pio
import pio.model
from pio.cli import main
from pio.errors import (
    BadInterval,
    DomainError,
    EigenvalueHit,
    IndexOutOfRange,
    InvalidModel,
    ModelFormatError,
    NoAtom,
    NonUniqueSolution,
    OutsideTheory,
    PioError,
)
from pio.model import make_model, norm_bound, validate_model
from pio.operators import apply_partial, apply_S, apply_T, project, resolvent_channel, resolvent_T
from pio.oracle import ComparisonReport, NystromSystem, nystrom_matrix, oracle_eigs
from pio.pie import classify_tau, residual, solve_pie
from pio.quadrature import Grid2D
from pio.spectrum import (
    SpectralSet,
    atom_eigenfunction,
    delta,
    delta_batch,
    delta_trace_rows,
    discrete_spectrum,
    eigenfunctions_T,
    essential_range,
    pi_matrix,
    sigma_channel,
    sigma_ess,
    sigma_full,
)

from conftest import fixture_a_dict


def not_orthonormal():
    # fixture a with the channel-1 basis 2 instead of 1: Gram deviation 3
    return make_model((0, 1), (0, 1), ["2"], ["2"], ["1"], ["3"])


# (x interval, y interval, channel-1 basis and weights, channel-2 basis and weights)
ONE_OVER_T = {  # 1/t divides by zero on the dense sample, which includes t = 0
    1: ((0, 1), (0, 1), ["1"], ["1/t"], ["1"], ["3"]),
    2: ((0, 1), (0, 1), ["1"], ["2"], ["1"], ["1/t"]),
}

# the calls that take a channel, as (model, channel, grid)
ON_CHANNEL = {
    "apply_partial": apply_partial,
    "project": lambda m, c, g: project(m, c, 1, g),
    "resolvent_channel": lambda m, c, g: resolvent_channel(m, c, 7.0, g),
    "apply_S": lambda m, c, g: apply_S(m, c, 0.1, g),
    "atom_eigenfunction": lambda m, c, g: atom_eigenfunction(m, c, 1, 3.0),
    "sigma_channel": lambda m, c, g: sigma_channel(m, c),
}

# every entry point that reads the model's samples, so refuses a model that fails validation
ENTRY_POINTS = {
    "sigma_full": lambda model: sigma_full(model),
    "sigma_ess": lambda model: sigma_ess(model),
    "discrete_spectrum": lambda model: discrete_spectrum(model),
    "discrete_spectrum path 2": lambda model: discrete_spectrum(model.mirrored()),
    "pi_matrix": lambda model: pi_matrix(model, 7.0),
    "delta": lambda model: delta(model, 7.0),
    "delta_batch": lambda model: delta_batch(model, np.array([7.0, 8.0])),
    "delta_trace_rows": lambda model: delta_trace_rows(model, 4.0, 6.0, 3),
    "classify_tau": lambda model: classify_tau(model, 0.1),
    "classify_tau at 0": lambda model: classify_tau(model, 0.0),
    "classify_tau on the essential set": lambda model: classify_tau(model, 0.5),
    "solve_pie": lambda model: solve_pie(model, 0.1, model.constant_grid(1.0)),
    "solve_pie at 0": lambda model: solve_pie(model, 0.0, model.constant_grid(1.0)),
    "solve_pie path 2": lambda model: solve_pie(model.mirrored(), 0.1, model.constant_grid(1.0).transposed()),
    "residual": lambda model: residual(model, 0.1, model.constant_grid(1.0), model.constant_grid(1.0)),
    "apply_T": lambda model: apply_T(model, model.constant_grid(1.0)),
    "resolvent_T": lambda model: resolvent_T(model, 7.0, model.constant_grid(1.0)),
    "eigenfunctions_T": lambda model: eigenfunctions_T(model, 7.0),
    **{
        f"{name} {channel}": lambda model, call=call, channel=channel: call(
            model, channel, model.constant_grid(1.0))
        for name, call in ON_CHANNEL.items()
        for channel in (1, 2)
    },
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_refuse_a_model_that_fails_validation(call):
    # before the check, sigma_full reported the eigenvalue -2.4244 for this model
    model = not_orthonormal()
    with pytest.raises(InvalidModel) as err:
        call(model)
    assert str(err.value) == "model failed validation: channel1.basis orthonormal"
    assert err.value.report == validate_model(model)
    assert not err.value.report.ok


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_refuse_a_weight_that_cannot_be_evaluated(call):
    # the model has no norm bound; before the check this raised DomainError,
    # and channel-1 operators on the channel-2 model computed
    for channel, args in ONE_OVER_T.items():
        model = make_model(*args)
        with pytest.raises(InvalidModel) as err:
            call(model)
        assert str(err.value) == f"model failed validation: channel{channel}.weights evaluable"
        assert err.value.report == validate_model(model)


def test_the_oracle_sees_the_channel_spectrum_that_the_closed_forms_miss():
    # Channel 1 of not_orthonormal() integrates 2 * 2 * 2 f(s, y) ds = 8 P f, with
    # P the mean over x, and channel 2 is 3 Q, so T has the eigenvalues 0, 3, 8, 11.
    # The closed-form channel resolvent and spectrum assume an orthonormal basis:
    # they gave the points {0, 2} and a resolvent with relative residual 1.37.
    model = not_orthonormal()
    eigs = oracle_eigs(nystrom_matrix(model, 20, 20))
    assert np.abs(np.subtract.outer([0.0, 3.0, 8.0, 11.0], eigs)).min(axis=1).max() < 1e-9
    assert np.abs(eigs - 2.0).min() > 0.5
    for channel in (1, 2):
        with pytest.raises(InvalidModel):
            sigma_channel(model, channel)


def test_ungated_functions_accept_a_model_that_fails_validation():
    # validation, the norm bound, essential ranges, grids and the oracle
    # compute on a failing model; 1/t meets its own DomainError
    model = not_orthonormal()
    assert not validate_model(model).ok and norm_bound(model) == 5.0
    assert essential_range(model.channel1.weights[0], model.y_interval).atoms == ((2.0, 1.0),)
    assert essential_range(model.channel2.weights[0], model.x_interval).atoms == ((3.0, 1.0),)
    assert model.grid(lambda x, y: x * y).values.shape == model.constant_grid(2.0).values.shape
    for channel, args in ONE_OVER_T.items():
        model = make_model(*args)
        assert not validate_model(model).ok
        weight = getattr(model, f"channel{channel}").weights[0]
        with pytest.raises(DomainError):
            norm_bound(model)
        with pytest.raises(DomainError):
            essential_range(weight, (0.0, 1.0))
        assert np.isfinite(model.constant_grid(1.0).values).all()
        assert np.isfinite(oracle_eigs(nystrom_matrix(model, 12, 12))).all()


def by_hand_mirror(x_interval, y_interval, basis1, weights1, basis2, weights2):
    """The model with its channels and intervals swapped, built without ``mirrored()``."""
    return make_model(y_interval, x_interval, basis2, weights2, basis1, weights1)


def channel_outcome(call, model, channel, f, transpose):
    """The values of ``call`` (a grid's transposed if asked), or its error class."""
    try:
        result = call(model, channel, model.grid(f))
    except PioError as err:
        return type(err)
    if isinstance(result, Grid2D):
        return result.transposed().values if transpose else result.values
    return result


# channel-2 weight 1 sits at 3 on x in [0, 0.5]: an atom for atom_eigenfunction to find
ATOM_MODEL = ((0, 2), (0, 1), ["legendre(0)"], ["t"], ["legendre(0)", "legendre(1)"],
              ["piecewise([0,0.5]:3; [0.5,2]:t)", "t/2"])


@pytest.mark.parametrize("name", ON_CHANNEL)
@pytest.mark.parametrize("args", [ATOM_MODEL, *ONE_OVER_T.values()],
                         ids=["valid", "1/t ch1", "1/t ch2"])
def test_channel_2_is_channel_1_of_the_swapped_model(name, args):
    model, swapped = make_model(*args), by_hand_mirror(*args)
    got = channel_outcome(ON_CHANNEL[name], model, 2, lambda x, y: 1.0 + x * y * y + np.sin(x), True)
    ref = channel_outcome(ON_CHANNEL[name], swapped, 1, lambda x, y: 1.0 + y * x * x + np.sin(y), False)
    if isinstance(ref, np.ndarray):  # the same products on transposed memory: roundoff apart
        assert np.allclose(got, ref, rtol=1e-14, atol=1e-14)
    else:
        assert got == ref
    if args is not ATOM_MODEL:
        assert ref is InvalidModel


def test_validation_runs_once_per_model_and_mirror(monkeypatch):
    calls = []
    counted = pio.model.validate_model

    def counting(model):
        calls.append(model)
        return counted(model)

    monkeypatch.setattr(pio.model, "validate_model", counting)
    model = make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["t"])
    sigma_full(model)
    discrete_spectrum(model.mirrored())
    solve_pie(model.mirrored(), 0.3, model.constant_grid(1.0).transposed())
    eigenfunctions_T(model, discrete_spectrum(model)[0][0])
    assert calls == [model]
    assert model.mirrored()._validation is model._validation


def test_cli_keeps_its_own_validation_exit(tmp_path, capsys):
    doc = fixture_a_dict()
    doc["channel1"]["basis"] = ["2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in (["spectrum"], ["delta-trace", "--lmin", "4", "--lmax", "6", "--samples", "3"]):
        assert main([*command, "--model", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "model failed validation: channel1.basis orthonormal\n")


PLAIN = {
    "resolvent_T eigenvalue": (
        lambda m: resolvent_T(m, np.float64(5.0), m.constant_grid(1.0)),
        EigenvalueHit, "lambda 5.0 is a discrete eigenvalue",
    ),
    "solve_pie eigenvalue": (
        lambda m: solve_pie(m, np.float64(0.2), m.constant_grid(1.0)),
        NonUniqueSolution, "1/tau = 5.0 is a discrete eigenvalue",
    ),
    "solve_pie channel-singular": (
        lambda m: solve_pie(m, np.float64(0.5), m.constant_grid(1.0)),
        OutsideTheory, "parameter 0.5 is channel-singular",
    ),
    "atom_eigenfunction": (
        lambda m: atom_eigenfunction(m, 1, 1, np.float64(4.0)),
        NoAtom, "weight 1 of channel 1 has no level set at 4.0",
    ),
}


@pytest.mark.parametrize("call,error,message", PLAIN.values(), ids=PLAIN.keys())
def test_refusals_print_numpy_scalars_as_plain_numbers(fixture_a, call, error, message):
    with pytest.raises(error) as err:
        call(fixture_a)
    assert str(err.value) == message


def test_discrete_eigenvalues_are_python_floats(fixture_a):
    for disc in (sigma_full(fixture_a).discrete, discrete_spectrum(fixture_a.mirrored())):
        ((lam, mult),) = disc
        assert type(lam) is float and type(mult) is int
        assert abs(lam - 5.0) < 1e-8


NAN, INF = float("nan"), float("inf")
# (call, accepts complex parameters)
PARAMETER_CALLS = {
    "resolvent_T": (lambda m, v: resolvent_T(m, v, m.constant_grid(1.0)), True),
    "eigenfunctions_T": (lambda m, v: eigenfunctions_T(m, v), False),
    "pi_matrix": (lambda m, v: pi_matrix(m, v), True),
    "delta": (lambda m, v: delta(m, v), True),
    "delta_batch": (lambda m, v: delta_batch(m, np.array([1.5, v])), True),
    "resolvent_channel 2": (lambda m, v: resolvent_channel(m, 2, v, m.constant_grid(1.0)), True),
    "classify_tau": (lambda m, v: classify_tau(m, v), True),
    "solve_pie": (lambda m, v: solve_pie(m, v, m.constant_grid(1.0)), True),
    "residual": (lambda m, v: residual(m, v, m.constant_grid(1.0), m.constant_grid(1.0)), True),
    "apply_S": (lambda m, v: apply_S(m, 1, v, m.constant_grid(1.0)), True),
    "delta_trace_rows lmin": (lambda m, v: delta_trace_rows(m, v, 2.0, 4), False),
    "delta_trace_rows lmax": (lambda m, v: delta_trace_rows(m, 1.1, v, 4), False),
    "atom_eigenfunction": (lambda m, v: atom_eigenfunction(m, 1, 1, v), False),
}
NON_FINITE = [
    (name, value)
    for name, (_, complex_ok) in PARAMETER_CALLS.items()
    for value in (NAN, INF, -INF, *((complex(NAN, 0.5), complex(1.5, INF)) if complex_ok else ()))
]


@pytest.mark.parametrize("name,value", NON_FINITE, ids=[f"{n}-{v}" for n, v in NON_FINITE])
def test_non_finite_parameters_are_refused(fixture_b, name, value):
    # NaN used to pass the admission rule: a raw LinAlgError, or NaN results
    # with RuntimeWarnings; tau = inf was classified as 1/tau = 0
    with pytest.raises(DomainError, match="is not finite"):
        PARAMETER_CALLS[name][0](fixture_b, value)


# the parameter each call of PARAMETER_CALLS names where it is not lambda
PARAMETER_NAMES = {"classify_tau": "tau", "solve_pie": "tau", "residual": "tau", "apply_S": "tau",
                   "eigenfunctions_T": "lam0", "atom_eigenfunction": "lam0",
                   "delta_trace_rows lmin": "lmin", "delta_trace_rows lmax": "lmax"}
NOT_NUMBERS = {"str": "5", "None": None, "str array": np.array("0.2"), "Decimal": Decimal("0.2"),
               "True": True, "np.True_": np.True_, "bool array": np.array([True])}


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("name", list(PARAMETER_CALLS))
@pytest.mark.parametrize("path", [1, 2])
def test_a_parameter_that_is_not_a_number_is_refused(fixture_b, name, value, path):
    # strings, None and string arrays raised numpy's TypeError or UFuncTypeError, a
    # Decimal TypeError, and booleans were computed as 1.0
    view = fixture_b if path == 1 else fixture_b.mirrored()
    call = PARAMETER_CALLS[name][0]
    if name == "delta_batch":  # np.array([1.5, True]) is a float array
        call = lambda m, v: delta_batch(m, np.array([v]))  # noqa: E731
    with pytest.raises(DomainError, match=f"^{PARAMETER_NAMES.get(name, 'lambda')} must be a number, got "):
        call(view, value)


def outcome(call, *args):
    """What ``call(*args)`` returned, as bytes and plain values, or the type and message it raised."""
    try:
        out = call(*args)
    except PioError as err:
        return type(err), str(err)
    items = out if isinstance(out, list) else [out]
    return [item.values.tobytes() if isinstance(item, Grid2D) else
            item.tobytes() if isinstance(item, np.ndarray) else item for item in items]


@pytest.mark.parametrize("name", [name for name in PARAMETER_CALLS if name != "delta_batch"])
@pytest.mark.parametrize("path", [1, 2])
def test_a_fraction_is_computed_as_its_nearest_float(fixture_b, name, path):
    # Fraction(1, 5) worked in classify_tau and apply_S, and failed in resolvent_T
    # (UFuncTypeError) and delta (TypeError).  delta_batch takes an array, and
    # Fractions in one make an object array, which is refused as not a number
    view = fixture_b if path == 1 else fixture_b.mirrored()
    param = PARAMETER_NAMES.get(name, "lambda")
    value = {"tau": Fraction(2, 3), "lam0": Fraction(discrete_spectrum(view)[0][0])}.get(param, Fraction(3, 2))
    call = PARAMETER_CALLS[name][0]
    assert outcome(call, view, value) == outcome(call, view, float(value))
    with pytest.raises(DomainError, match=re.escape(f"lambda must be a number, got array([{value!r}]")):
        delta_batch(view, np.array([value]))


def test_spectral_set_distance_takes_numbers_only(fixture_a):
    # distance("5") was 4.0: complex() parses strings
    ess = sigma_ess(fixture_a)
    for value in NOT_NUMBERS.values():
        with pytest.raises(DomainError, match="^lambda must be a number, got "):
            ess.distance(value)
    assert ess.distance(Fraction(9, 2)) == ess.distance(4.5) == 1.5
    assert np.isnan(ess.distance(float("nan")))


TAU_CALLS = {
    "classify_tau": lambda m, t: classify_tau(m, t),
    "solve_pie": lambda m, t: solve_pie(m, t, m.constant_grid(1.0)),
    "apply_S 1": lambda m, t: apply_S(m, 1, t, m.constant_grid(1.0)),
    "apply_S 2": lambda m, t: apply_S(m, 2, t, m.constant_grid(1.0)),
}


@pytest.mark.parametrize("tau", [1e-310, -5e-324, np.float64(5e-324), complex(0.0, 1e-310)],
                         ids=["1e-310", "-5e-324", "np.float64(5e-324)", "1e-310j"])
@pytest.mark.parametrize("name", list(TAU_CALLS))
@pytest.mark.parametrize("path", [1, 2])
def test_a_tau_whose_reciprocal_overflows_is_refused(fixture_b, name, tau, path):
    # 1e-310 was refused as "lambda inf is not finite", a parameter never passed;
    # np.float64(5e-324) raised numpy's overflow RuntimeWarning first (an error
    # under this suite's filterwarnings); apply_S named "1/tau inf"
    view = fixture_b if path == 1 else fixture_b.mirrored()
    with pytest.raises(DomainError, match=r"^tau \S+ is nonzero but 1/tau overflows$"):
        TAU_CALLS[name](view, tau)


def test_atom_eigenfunction_refuses_an_infinite_level(fixture_c):
    # the level tolerance 1e-9 * (1 + |lam0|) was infinite, so both levels of
    # the step weight matched and a unit "eigenfunction" came back
    with pytest.raises(DomainError, match="lam0 inf is not finite"):
        atom_eigenfunction(fixture_c, 1, 1, INF)


BAD_WINDOWS = [
    ((1.1, 2.0, 2.5), "samples must be a whole number, got 2.5"),
    ((1.1, 2.0, -1), "samples must be >= 2, got -1"),
    ((1.1, 2.0, NAN), "samples nan is not finite"),
    ((1.1, 2.0, 1), "samples must be >= 2, got 1"),
    ((1.1, 2.0, INF), "samples inf is not finite"),
    ((2.0, 1.1, 4), "need lmin < lmax, got 2.0 and 1.1"),
    ((2.0, 2.0, 4), "need lmin < lmax, got 2.0 and 2.0"),
    ((1.1, 2.0, "3"), "samples must be a number, got '3'"),
    ((1.1, 2.0, None), "samples must be a number, got None"),
]


@pytest.mark.parametrize("window,message", BAD_WINDOWS, ids=[f"window{i}" for i in range(len(BAD_WINDOWS))])
def test_delta_trace_rows_refuses_a_bad_window(fixture_b, window, message):
    # 2.5 samples gave 2 rows with no flag; -1 and NaN raised numpy's ValueError,
    # "3" and None a TypeError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        delta_trace_rows(fixture_b, *window)
    for whole in (3.0, np.int64(3)):
        assert len(delta_trace_rows(fixture_b, 1.1, 2.0, whole)) == 3


BAD_ORDERS = {
    "2.5": (2.5, "quadrature order must be a whole number, got 2.5"),
    "0.5": (np.float64(0.5), "quadrature order must be a whole number, got 0.5"),
    "inf": (INF, "quadrature order inf is not finite"),
    "-inf": (-INF, "quadrature order -inf is not finite"),
    "nan": (NAN, "quadrature order nan is not finite"),
    "3": ("3", "quadrature order must be a number, got '3'"),
    "None": (None, "quadrature order must be a number, got None"),
}


@pytest.mark.parametrize("order,message", BAD_ORDERS.values(), ids=BAD_ORDERS)
def test_fractional_or_non_finite_order_is_refused(order, message):
    # 2.5 used to build order 2 silently; inf and nan raised a raw
    # OverflowError or ValueError; "3" built order 3 through int("3")
    with pytest.raises(BadInterval, match=f"^{re.escape(message)}$"):
        make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=order)
    for whole in (3, 3.0, np.int64(3)):
        assert make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=whole).order == 3


@pytest.mark.parametrize("points", [[NAN, INF, 0.5], [-INF], [0.25, NAN]])
def test_non_finite_extra_breakpoints_are_refused(tmp_path, capsys, points):
    # they used to be dropped with no flag, and `pio validate` reported ok
    bad = next(p for p in points if not math.isfinite(p))
    for axis in ("x", "y"):
        with pytest.raises(ModelFormatError, match=f"^extra_breakpoints_{axis} {bad!r} is not finite$"):
            make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"],
                       **{f"extra_breakpoints_{axis}": points})
        doc = fixture_a_dict()
        doc["quadrature"] = {f"extra_breakpoints_{axis}": points}
        path = tmp_path / "breakpoints.json"
        path.write_text(json.dumps(doc))  # Python's json writes NaN and Infinity
        assert main(["validate", "--model", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: quadrature.extra_breakpoints_{axis} {bad!r} is not finite\n"


def test_unused_public_names_are_gone():
    # no caller in the library, the benchmark, the CLI or the README table
    gone = {
        pio.expr: ("eval_expr", "format_expr", "constant_value"),
        pio.quadrature: ("gauss_legendre", "integrate_1d", "integrate_2d"),
        pio.model: ("eval_kernel",),
        pio.spectrum: ("PiMatrix", "EssRange"),
        pio.operators: ("_weight_set",),
        pio.oracle: ("_MATRIX_CAP",),
        Grid2D: ("integral",),
        SpectralSet: ("contains",),
        NystromSystem: ("matrix",),
        ComparisonReport: ("as_dict",),
    }
    for owner, names in gone.items():
        assert not [name for name in names if hasattr(owner, name) or hasattr(pio, name)]
        assert not set(names) & set(getattr(owner, "__all__", ()))
    # the parser compiles to an evaluator: no syntax tree and no tree walkers
    tree = ("Num", "Var", "PiConst", "Neg", "BinOp", "Call", "Segment", "Piecewise",
            "_eval", "_collect_breakpoints")
    assert not [name for name in tree if hasattr(pio.expr, name)]
    assert not hasattr(pio.expr.parse_expr("piecewise([0,1]:t)"), "ast")
    assert isinstance(pi_matrix(make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"]), 7.0),
                      np.ndarray)


def test_the_package_exports_exactly_the_module_lists():
    # every name a module declares public is exported by the package, and the
    # package exports nothing else; the CLI is the ``pio`` command, not an import
    modules = (pio.errors, pio.expr, pio.quadrature, pio.model, pio.spectrum, pio.operators,
               pio.pie, pio.oracle)
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert set(pio.__all__) - {"__version__"} == set(declared)
    assert all(hasattr(pio, name) for name in pio.__all__)


@pytest.mark.parametrize("channel", [1, 2])
def test_a_member_index_must_be_an_integer_in_range(channel):
    # 1.5 passed the range test: project raised numpy's IndexError and
    # atom_eigenfunction a TypeError.  A whole-valued float is a whole number,
    # as for an order or a grid size: 1.0 and np.float64(2.0) were refused
    model = make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["1", "3"],
                       ["legendre(0)", "legendre(1)", "legendre(2)"], ["2", "4", "5"])
    levels = [1.0, 3.0] if channel == 1 else [2.0, 4.0, 5.0]
    rank, level = len(levels), levels[-1]
    g = model.grid(lambda x, y: 1.0 + x * y)
    refused = {1.5: "must be a whole number, got 1.5", NAN: "nan is not finite", 0: "must be >= 1, got 0",
               rank + 1: f"must be <= {rank}, got {rank + 1}", "1": "must be a number, got '1'"}
    for k, message in refused.items():
        match = f"^{re.escape(f'member index {message}')}$"
        with pytest.raises(IndexOutOfRange, match=match):
            project(model, channel, k, g)
        with pytest.raises(IndexOutOfRange, match=match):
            atom_eigenfunction(model, channel, k, level)
    for k, same in ((rank, rank), (np.int64(rank), rank), (1.0, 1), (np.float64(2.0), 2)):
        assert project(model, channel, k, g).values.tobytes() == project(model, channel, same, g).values.tobytes()
        atom = atom_eigenfunction(model, channel, k, levels[same - 1])
        assert atom.values.tobytes() == atom_eigenfunction(model, channel, same, levels[same - 1]).values.tobytes()
        assert atom.norm() == pytest.approx(1.0)
    assert project(model, channel, 1.0, g).values.tobytes() != project(model, channel, 2, g).values.tobytes()


def test_eigenfunctions_T_refuses_a_complex_lam0():
    # float() kept the real part of np.complex128(lam + 1j), with a
    # ComplexWarning only, and a Python complex raised a raw TypeError
    model = make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["1", "3"], ["1"], ["2"])
    (lam, _), = discrete_spectrum(model)
    assert len(eigenfunctions_T(model, lam)) == 1
    for value in (np.complex128(lam + 1j), complex(lam, 1.0), np.complex128(lam), complex(lam)):
        with pytest.raises(DomainError, match="is not real"):
            eigenfunctions_T(model, value)


# (call on fixture a, a real value it serves): atom 2 is channel 1's weight, 3 channel 2's
REAL_PARAMETERS = {
    "atom_eigenfunction channel 1": (lambda m, v: atom_eigenfunction(m, 1, 1, v), 2.0),
    "atom_eigenfunction channel 2": (lambda m, v: atom_eigenfunction(m, 2, 1, v), 3.0),
    "delta_trace_rows lmin path 1": (lambda m, v: delta_trace_rows(m, v, 6.0, 3), 1.0),
    "delta_trace_rows lmin path 2": (lambda m, v: delta_trace_rows(m.mirrored(), v, 6.0, 3), 1.0),
    "delta_trace_rows lmax path 1": (lambda m, v: delta_trace_rows(m, 1.0, v, 3), 6.0),
    "delta_trace_rows lmax path 2": (lambda m, v: delta_trace_rows(m.mirrored(), 1.0, v, 3), 6.0),
}


@pytest.mark.parametrize("name", list(REAL_PARAMETERS))
def test_real_parameters_refuse_complex_values(fixture_a, name):
    # complex(1, 0) as lmin raised a raw TypeError, np.complex128(1+1j) gave rows
    # from 1.0 with a ComplexWarning only, and 2+1e-10j or 2+0j as lam0 returned
    # the unit eigenfunction of the real atom 2
    call, real = REAL_PARAMETERS[name]
    call(fixture_a, real)
    for value in (complex(real, 0.0), complex(real, 1e-10), np.complex128(real),
                  np.complex128(real + 1j)):
        with pytest.raises(DomainError, match="is not real"):
            call(fixture_a, value)


# the functions with a real parameter, called on fixture b
REAL_ON_B = {
    "eigenfunctions_T": lambda m, v: eigenfunctions_T(m, v),
    "atom_eigenfunction": lambda m, v: atom_eigenfunction(m, 1, 1, v),
    "delta_trace_rows lmin": lambda m, v: delta_trace_rows(m, v, 6.0, 3),
    "delta_trace_rows lmax": lambda m, v: delta_trace_rows(m, 4.0, v, 3),
}


@pytest.mark.parametrize("name", list(REAL_ON_B))
def test_real_parameters_refuse_complex_0d_arrays(fixture_b, name):
    # a complex 0-d array passed the check as no complex scalar, and float()
    # raised a raw TypeError (a comparison, in delta_trace_rows)
    for value in (np.array(5 + 0j), np.array(5 + 1j)):
        with pytest.raises(DomainError, match=re.escape(f"{value.item()} is not real")):
            REAL_ON_B[name](fixture_b, value)


@pytest.mark.parametrize("path", [1, 2])
def test_a_float32_parameter_is_computed_in_double(fixture_b, path):
    # 1/tau stayed float32: resolvent_T at np.float32(3.0) differed from 3.0 by
    # 5.3e-8 relative, and solve_pie at np.float32(0.1) from the same value as a
    # Python float by 6.6e-11
    view = fixture_b if path == 1 else fixture_b.mirrored()
    g = view.grid(lambda x, y: 1.0 + x * y)
    for call, value in ((lambda v: resolvent_T(view, v, g), 3.0),
                        (lambda v: solve_pie(view, v, g), 0.1),
                        (lambda v: apply_S(view, 1, v, g), 0.1)):
        single = np.float32(value)
        assert call(single).values.tobytes() == call(float(single)).values.tobytes()


@pytest.mark.parametrize("path", [1, 2])
def test_a_long_double_parameter_is_rounded_to_double(fixture_b, path):
    # .item() kept np.longdouble: resolvent_T and solve_pie raised numpy's TypeError
    # ("array type float128 is unsupported in linalg"), and apply_S and
    # resolvent_channel returned float128 grids
    view = fixture_b if path == 1 else fixture_b.mirrored()
    g = view.grid(lambda x, y: 1.0 + x * y)
    for call, value in ((lambda v: resolvent_T(view, v, g), 3.0),
                        (lambda v: solve_pie(view, v, g), 0.1),
                        (lambda v: apply_S(view, 1, v, g), 0.1),
                        (lambda v: resolvent_channel(view, 1, v, g), 3.0)):
        assert call(np.longdouble(value)).values.tobytes() == call(value).values.tobytes()
    wide = np.clongdouble(complex(3.0, 0.5))
    assert resolvent_T(view, wide, g).values.tobytes() == resolvent_T(view, 3.0 + 0.5j, g).values.tobytes()


# (call on fixture b, the refusal): a one-lambda call takes one number, delta_batch a 1-D array
WRONG_SHAPES = {
    "delta_batch 4.0": (lambda m: delta_batch(m, 4.0), "a one-dimensional array, got shape ()"),
    "delta_batch 2-D": (lambda m: delta_batch(m, np.array([[4.0, 5.0]])),
                        "a one-dimensional array, got shape (1, 2)"),
    "delta array": (lambda m: delta(m, np.array([4.0, 5.0])), "one number, got shape (2,)"),
    "delta list": (lambda m: delta(m, [4.0]), "one number, got shape (1,)"),
    "pi_matrix array": (lambda m: pi_matrix(m, np.array([4.0])), "one number, got shape (1,)"),
    "pi_matrix 2-D": (lambda m: pi_matrix(m, np.full((2, 2), 4.0)), "one number, got shape (2, 2)"),
}


@pytest.mark.parametrize("name", list(WRONG_SHAPES))
@pytest.mark.parametrize("path", [1, 2])
def test_a_parameter_of_the_wrong_shape_is_refused(fixture_b, name, path):
    # delta_batch(model, 4.0) raised numpy's IndexError, and the rest numpy's
    # broadcast ValueError
    call, message = WRONG_SHAPES[name]
    view = fixture_b if path == 1 else fixture_b.mirrored()
    with pytest.raises(DomainError, match=re.escape(f"lambda must be {message}")):
        call(view)
    for lam in (np.float64(4.0), np.array(4.0), 4):
        assert delta(view, lam) == delta(view, 4.0) == delta_batch(view, [4.0])[0]
        assert np.array_equal(pi_matrix(view, lam), pi_matrix(view, 4.0))


def test_booleans_are_refused_where_the_library_counts():
    # True passed as the integer 1: project and atom_eigenfunction acted on
    # member 1, nystrom_matrix built Nx = 1 and make_model order 1
    model = make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["1", "3"], ["1"], ["2"])
    g = model.constant_grid(1.0)
    for flag in (True, False, np.True_):
        def refusal(name):
            return f"^{re.escape(f'{name} must be a number, got {flag!r}')}$"

        for channel in (1, 2):
            with pytest.raises(IndexOutOfRange, match=refusal("member index")):
                project(model, channel, flag, g)
            with pytest.raises(IndexOutOfRange, match=refusal("member index")):
                atom_eigenfunction(model, channel, flag, 1.0 if channel == 1 else 2.0)
        for name, sizes in (("Nx", (flag, 3)), ("Ny", (3, flag))):
            with pytest.raises(PioError, match=refusal(name)):
                nystrom_matrix(model, *sizes)
        with pytest.raises(BadInterval, match=refusal("quadrature order")):
            make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=flag)
    assert project(model, 1, 1, g).values.shape == g.values.shape
    assert nystrom_matrix(model, 1, 3).a.shape == (2, 1)
    assert make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=1).order == 1


# (call on a view of fixture a, the parameter's name, a number it takes): one number each
ONE_NUMBER = {
    "resolvent_T": (lambda m, v, g: resolvent_T(m, v, g), "lambda", 10.0),
    "resolvent_channel": (lambda m, v, g: resolvent_channel(m, 2, v, g), "lambda", 10.0),
    "classify_tau": (lambda m, v, g: classify_tau(m, v), "tau", 0.1),
    "solve_pie": (lambda m, v, g: solve_pie(m, v, g), "tau", 0.1),
    "apply_S": (lambda m, v, g: apply_S(m, 1, v, g), "tau", 0.1),
    "eigenfunctions_T": (lambda m, v, g: eigenfunctions_T(m, v), "lam0", 5.0),
}


@pytest.mark.parametrize("name", list(ONE_NUMBER))
@pytest.mark.parametrize("path", [1, 2])
def test_one_number_entry_points_refuse_an_array(fixture_a, name, path):
    # an array raised numpy's ValueError (truth value or broadcast) or TypeError (only
    # 0-dimensional arrays convert to scalars)
    call, param, value = ONE_NUMBER[name]
    view = fixture_a if path == 1 else fixture_a.mirrored()
    g = view.grid(lambda x, y: 1.0 + x * y)
    for bad in (np.array([value, value + 1.0]), np.array([value]), [value], np.full((1, 1), value)):
        with pytest.raises(DomainError, match=re.escape(f"{param} must be one number, got shape {np.shape(bad)}")):
            call(view, bad, g)

    def plain(out):
        return [f.values for f in out] if isinstance(out, list) else getattr(out, "values", out)

    for one in (np.float64(value), np.array(value)):  # numpy scalars and 0-d arrays are one number
        np.testing.assert_array_equal(plain(call(view, one, g)), plain(call(view, value, g)))
