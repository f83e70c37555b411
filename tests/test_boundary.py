"""What crosses the library boundary: refusal of models that fail validation
and of parameters that are not finite, plain Python numbers in results and
refusal messages, and which public names exist."""

import json

import numpy as np
import pytest

import pio
import pio.model
from pio.cli import main
from pio.errors import (
    DomainError,
    EigenvalueHit,
    InvalidModel,
    ModelFormatError,
    NoAtom,
    NonUniqueSolution,
    OutsideTheory,
    PioError,
)
from pio.model import make_model, validate_model
from pio.operators import apply_S, resolvent_channel, resolvent_T
from pio.oracle import ComparisonReport, NystromSystem
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
    pi_matrix,
    sigma_channel,
    sigma_full,
)

from conftest import fixture_a_dict


def not_orthonormal():
    # fixture a with the channel-1 basis 2 instead of 1: Gram deviation 3
    return make_model((0, 1), (0, 1), ["2"], ["2"], ["1"], ["3"])


ENTRY_POINTS = {
    "sigma_full": lambda model: sigma_full(model),
    "discrete_spectrum": lambda model: discrete_spectrum(model),
    "discrete_spectrum path 2": lambda model: discrete_spectrum(model, path=2),
    "delta": lambda model: delta(model, 7.0),
    "classify_tau": lambda model: classify_tau(model, 0.1),
    "classify_tau at 0": lambda model: classify_tau(model, 0.0),
    "classify_tau on the essential set": lambda model: classify_tau(model, 0.5),
    "solve_pie": lambda model: solve_pie(model, 0.1, model.constant_grid(1.0)),
    "solve_pie at 0": lambda model: solve_pie(model, 0.0, model.constant_grid(1.0)),
    "solve_pie path 2": lambda model: solve_pie(model, 0.1, model.constant_grid(1.0), path=2),
    "resolvent_T": lambda model: resolvent_T(model, 7.0, model.constant_grid(1.0)),
    "eigenfunctions_T": lambda model: eigenfunctions_T(model, 7.0),
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
    # 1/t divides by zero on the dense sample, which includes t = 0, so the
    # model has no norm bound; before the check this raised DomainError
    for channel, model in (
        (1, make_model((0, 1), (0, 1), ["1"], ["1/t"], ["1"], ["3"])),
        (2, make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["1/t"])),
    ):
        with pytest.raises(InvalidModel) as err:
            call(model)
        assert str(err.value) == f"model failed validation: channel{channel}.weights evaluable"
        assert err.value.report == validate_model(model)


CHANNEL_CALLS = {
    "resolvent_channel 1": lambda model: resolvent_channel(model, 1, 7.0, model.constant_grid(1.0)),
    "resolvent_channel 2": lambda model: resolvent_channel(model, 2, 7.0, model.constant_grid(1.0)),
    "sigma_channel 1": lambda model: sigma_channel(model, 1),
    "sigma_channel 2": lambda model: sigma_channel(model, 2),
}


@pytest.mark.parametrize("call", CHANNEL_CALLS.values(), ids=CHANNEL_CALLS.keys())
def test_channel_operators_refuse_a_weight_that_cannot_be_evaluated(call):
    # the weight ranges are read before any other gate; this raised DomainError
    for channel, model in (
        (1, make_model((0, 1), (0, 1), ["1"], ["1/t"], ["1"], ["3"])),
        (2, make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["1/t"])),
    ):
        with pytest.raises(InvalidModel) as err:
            call(model)
        assert str(err.value) == f"model failed validation: channel{channel}.weights evaluable"
        assert err.value.report == validate_model(model)


def test_channel_operators_serve_a_model_that_is_only_not_orthonormal():
    # the channel formulas need evaluable weights, not orthonormal bases
    model = not_orthonormal()
    g = model.constant_grid(1.0)
    # -(1/lam) (g - w/(w - lam) <phi, g> phi): phi = 2, w = 2 in channel 1; phi = 1, w = 3 in channel 2
    for channel, w, proj in ((1, 2.0, 4.0), (2, 3.0, 1.0)):
        expected = -(1.0 / 7.0) * (1.0 - w / (w - 7.0) * proj)
        assert np.allclose(resolvent_channel(model, channel, 7.0, g).values, expected, rtol=1e-13)
        assert sigma_channel(model, channel).points == (0.0, w)


def test_validation_runs_once_per_model_and_mirror(monkeypatch):
    calls = []
    counted = pio.model.validate_model

    def counting(model):
        calls.append(model)
        return counted(model)

    monkeypatch.setattr(pio.model, "validate_model", counting)
    model = make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["t"])
    sigma_full(model)
    discrete_spectrum(model, path=2)
    solve_pie(model, 0.3, model.constant_grid(1.0), path=2)
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
    for disc in (sigma_full(fixture_a).discrete, discrete_spectrum(fixture_a, path=2)):
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


@pytest.mark.parametrize("order", [2.5, np.float64(0.5), INF, -INF, NAN])
def test_fractional_or_non_finite_order_is_refused(order):
    # 2.5 used to build order 2 silently; inf and nan raised a raw
    # OverflowError or ValueError
    with pytest.raises(PioError, match="quadrature order must be a whole number"):
        make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=order)
    for whole in (3.0, np.int64(3)):
        assert make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=whole).order == 3


@pytest.mark.parametrize("points", [[NAN, INF, 0.5], [-INF], [0.25, NAN]])
def test_non_finite_extra_breakpoints_are_refused(tmp_path, capsys, points):
    # they used to be dropped with no flag, and `pio validate` reported ok
    for axis in ("x", "y"):
        with pytest.raises(ModelFormatError, match="extra breakpoints must be finite"):
            make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"],
                       **{f"extra_breakpoints_{axis}": points})
        doc = fixture_a_dict()
        doc["quadrature"] = {f"extra_breakpoints_{axis}": points}
        path = tmp_path / "breakpoints.json"
        path.write_text(json.dumps(doc))  # Python's json writes NaN and Infinity
        assert main(["validate", "--model", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: quadrature: extra breakpoints must be finite")


def test_unused_public_names_are_gone():
    # no caller in the library, the benchmark, the CLI or the README table
    gone = {
        pio.expr: ("eval_expr", "format_expr"),
        pio.quadrature: ("gauss_legendre", "integrate_1d", "integrate_2d"),
        pio.model: ("eval_kernel",),
        pio.spectrum: ("PiMatrix",),
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
