"""Model construction, validation, norm bound, shorthand generators."""

import collections
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pio.model
from pio.errors import BadBreakpoint, BadInterval, DomainError, ModelFormatError
from pio.expr import _MAX_DEGREE, Expression, parse_expr
from pio.model import (
    SearchSettings,
    load_model_file,
    make_model,
    model_from_dict,
    norm_bound,
    trig_source,
    validate_model,
)
from pio.spectrum import atom_eigenfunction, sigma_ess, sigma_full
from conftest import fixture_a_dict

GOLDEN_MODEL = Path(__file__).resolve().parent / "golden" / "legendre_trig_model.json"
EPS = np.finfo(float).eps


def test_reference_models_validate(fixture_a, fixture_b, fixture_c):
    for model in (fixture_a, fixture_b, fixture_c):
        report = validate_model(model)
        assert report.ok, [c for c in report.checks if not c.passed]


def test_duplicated_basis_fails_orthonormality():
    model = make_model((0, 1), (0, 1), ["1", "1"], ["1", "2"], ["1"], ["0"])
    report = validate_model(model)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.passed}
    assert "channel1.basis orthonormal" in failing
    dev = next(c.deviation for c in report.checks if c.name == "channel1.basis orthonormal")
    assert dev == pytest.approx(1.0, abs=1e-12)


def test_unbounded_weight_fails_evaluability():
    model = make_model((0, 1), (0, 1), ["1"], ["1/t"], ["1"], ["0"])
    report = validate_model(model)
    assert not report.ok
    assert any(c.name == "channel1.weights evaluable" and not c.passed for c in report.checks)


def test_unnormalized_basis_fails():
    model = make_model((0, 1), (0, 1), ["2"], ["1"], ["1"], ["0"])
    report = validate_model(model)
    assert not report.ok


def test_norm_bound_values(fixture_a, fixture_b):
    assert norm_bound(fixture_a) == pytest.approx(5.0, abs=1e-14)
    assert norm_bound(fixture_b) == pytest.approx(2.0, abs=1e-14)


def test_norm_bound_zero_weights():
    model = make_model((0, 1), (0, 1), ["1"], ["0"], ["1"], ["0"])
    assert norm_bound(model) == 0.0


def test_legendre_generator_is_orthonormal():
    model = make_model(
        (-1.0, 2.0), (0.0, 1.0),
        [f"legendre({k})" for k in range(4)], ["1", "t", "2", "0"],
        ["trig(0)", "trig(1)", "trig(2)"], ["1", "0", "t"],
    )
    report = validate_model(model)
    assert report.ok, [c for c in report.checks if not c.passed]
    # degrees 0..K-1 on rules exact for their products: written in powers of t, 14 members of
    # K = 16 on [0, 1] missed by 4.5e-8; evaluated by Horner on power coefficients in the
    # centred variable, K = 32 missed by 2.6e-7
    for count, order in ((16, 32), (32, 32), (64, 64)):
        basis = [f"legendre({k})" for k in range(count)]
        for interval in ((0.0, 1.0), (-2.0, 5.0)):
            model = make_model(interval, interval, basis, ["1"] * count, basis, ["t"] * count, order=order)
            report = validate_model(model)
            assert report.ok, [c for c in report.checks if not c.passed]


def test_legendre_source_degree_one():
    e = pio.model._legendre(1, (0.0, 1.0))
    ts = np.linspace(0, 1, 7)
    np.testing.assert_allclose(e(ts), np.sqrt(3.0) * (2.0 * ts - 1.0), atol=1e-12)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0), (-2.5, 0.7), (1e-3, 3.25)])
def test_legendre_source_matches_numpy_leg2poly(interval):
    # the coefficients in the centred variable that place a weight's critical points, to
    # 2 (k + 1) eps of each: neither recurrence cancels (a power's two terms have one sign),
    # so each coefficient carries a few roundings per degree; exact zeros stay exact
    lo, hi = interval
    for k in range(_MAX_DEGREE + 1):
        (_, _, got, scale, shift), = pio.model._legendre(k, interval).polynomials
        want = np.polynomial.legendre.leg2poly([0.0] * k + [np.sqrt((2.0 * k + 1.0) / (hi - lo))])
        assert (scale, shift) == (2.0 / (hi - lo), (lo + hi) / (hi - lo))
        assert len(got) == k + 1 and np.all(np.abs(got - want) <= 2.0 * (k + 1) * EPS * np.abs(want)), k
    assert pio.model._legendre(_MAX_DEGREE + 1, interval).polynomials == ()


# a fresh interpreter: ``legendre(k)`` bases and weights of degree at most 2 are evaluated and
# ranged without ``numpy.polynomial``, which ``import numpy`` loads before numpy 2 (a degree-3
# weight's critical points load it)
_POLYNOMIAL_LOADED = """
import sys
import numpy
before = "numpy.polynomial" in sys.modules
from pio.model import make_model, validate_model
from pio.spectrum import sigma_full
basis = [f"legendre({k})" for k in range(8)]
model = make_model((0, 1), (0, 1), basis, [f"{k + 1}*t" for k in range(8)],
                   basis, [f"{k + 1}*t^2" for k in range(8)])
assert validate_model(model).ok
sigma_full(model)
print(before, "numpy.polynomial" in sys.modules)
"""


def test_legendre_shorthand_does_not_load_numpy_polynomial():
    proc = subprocess.run([sys.executable, "-c", _POLYNOMIAL_LOADED], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


@pytest.mark.parametrize("kind", ["legendre", "trig"])
@pytest.mark.parametrize("digits", [400, 5001])
def test_a_huge_shorthand_degree_is_a_model_format_error(kind, digits):
    # it escaped as a raw OverflowError (400 digits) or ValueError (5,001, past int()'s limit)
    source = f"{kind}(1{'0' * (digits - 1)})"
    message = f"{kind} degree is beyond the range of a double"
    with pytest.raises(ModelFormatError, match=message):
        make_model((0, 1), (0, 1), [source], ["1"], ["1"], ["1"])
    doc = fixture_a_dict()
    doc["channel2"]["basis"] = [source]
    with pytest.raises(ModelFormatError, match=message):
        model_from_dict(doc)


def test_an_overflowing_gram_fails_validation_without_a_warning():
    # the matmul's overflow warning is an error under the suite's filterwarnings
    report = validate_model(make_model((0, 1), (0, 1), ["1e200"], ["2"], ["1"], ["3"]))
    check = next(c for c in report.checks if c.name == "channel1.basis orthonormal")
    assert not report.ok and not check.passed and check.deviation == np.inf


def test_shared_sources_are_parsed_once_per_interval(monkeypatch):
    # counts expression builds: ``legendre(k)`` is built by its recurrence, not parsed
    built = []
    build = pio.model._build

    def counting(text, interval):
        built.append(text)
        return build(text, interval)

    monkeypatch.setattr(pio.model, "_build", counting)
    basis = ["legendre(0)", "legendre(1)"]
    model = make_model((0, 1), (0, 1), basis, ["t", "1"], basis, ["t^2", "1"])
    assert len(built) == 5  # two bases, t, 1 and t^2
    assert model.channel1.basis[1] is model.channel2.basis[1]
    built.clear()
    model = make_model((0, 1), (0, 2), basis, ["t", "1"], basis, ["t^2", "1"])
    assert len(built) == 8  # a source is keyed by its interval, and the intervals differ


def test_sigma_full_evaluates_each_expression_once(monkeypatch):
    calls = collections.Counter()
    call = Expression.__call__

    def counting(expr, *values):
        calls[expr.source] += 1
        return call(expr, *values)

    monkeypatch.setattr(Expression, "__call__", counting)
    for model in (load_model_file(str(GOLDEN_MODEL)),
                  make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["t", "2*t"],
                             ["legendre(0)", "legendre(1)"], ["t^2", "2*t^2"])):
        calls.clear()
        report = sigma_full(model)
        assert report.discrete
        slots = [*model.channel1.basis, *model.channel1.weights,
                 *model.channel2.basis, *model.channel2.weights]
        assert calls == collections.Counter(e.source for e in slots)
        calls.clear()
        assert norm_bound(model) == model.bound
        assert validate_model(model) == model._validation
        assert not calls


def test_weight_that_fails_only_on_range_samples():
    # 1/(t - 0.25) misses the nodes and the dense sample but not the range
    # samples: it validates, and its essential range and its atoms are refused
    model = make_model((0, 1), (0, 1), ["1"], ["1/(t - 0.25)"], ["1"], ["t"])
    report = validate_model(model)
    assert report.ok
    assert "sup 4092" in report.checks[1].detail
    with pytest.raises(DomainError, match="division by zero"):
        sigma_ess(model)
    with pytest.raises(DomainError, match="division by zero"):
        sigma_full(model)
    with pytest.raises(DomainError, match="division by zero"):
        atom_eigenfunction(model, 1, 1, 2.0)


def test_trig_source_normalization():
    e = parse_expr(trig_source(2, (0.0, 2.0)))
    ts = np.linspace(0, 2, 9)
    np.testing.assert_allclose(e(ts), np.cos(np.pi * ts), atol=1e-12)


def test_model_from_dict_roundtrip():
    model = model_from_dict(fixture_a_dict())
    assert model.n == model.m == 1
    assert norm_bound(model) == 5.0


def test_model_from_dict_with_options():
    data = fixture_a_dict()
    data["quadrature"] = {"order": 16, "extra_breakpoints_y": [0.25]}
    data["search"] = {"margin": 0.01, "scan_points": 128}
    model = model_from_dict(data)
    assert model.order == 16
    assert 0.25 in model.rule_y.panel_edges
    assert model.search.margin == 0.01
    assert model.search.scan_points == 128


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("domain"),
        lambda d: d.pop("channel1"),
        lambda d: d.__setitem__("extra", 1),
        lambda d: d["domain"].__setitem__("x", [0.0]),
        lambda d: d["domain"].__setitem__("x", [1.0, "a"]),
        lambda d: d["channel1"].__setitem__("basis", []),
        lambda d: d["channel1"].__setitem__("weights", ["1", "2"]),
        lambda d: d["channel2"].__setitem__("basis", ["sin(w)"]),
        lambda d: d.__setitem__("quadrature", {"order": 0}),
        lambda d: d.__setitem__("quadrature", {"order": "high"}),
        lambda d: d.__setitem__("search", {"scan_points": 1}),
        lambda d: d.__setitem__("search", {"margin": -1.0}),
        lambda d: d.__setitem__("search", {"rank_tol": 0}),  # an unknown key: the rank rule is fixed
        lambda d: d.__setitem__("search", {"root_tol": 1e-10}),  # an unknown key: the root width is fixed
        lambda d: d.__setitem__("quadrature", {"extra_breakpoints_x": ["0.5"]}),  # float() would take it
    ],
)
def test_model_from_dict_rejects_malformed(mutate):
    data = fixture_a_dict()
    mutate(data)
    with pytest.raises(ModelFormatError):
        model_from_dict(data)


def test_model_document_must_be_an_object():
    # a list has no keys, so without its own check it was refused as missing 'domain'
    with pytest.raises(ModelFormatError, match="^model document must be a JSON object$"):
        model_from_dict([])


@pytest.mark.parametrize("basis,weights", [(["1"], ["2", "3"]), (["1", "t"], ["2"]), ([], [])])
@pytest.mark.parametrize("channel", [1, 2])
def test_make_model_refuses_unequal_or_empty_channel_lists(basis, weights, channel):
    lists = [basis, weights, ["1"], ["3"]] if channel == 1 else [["1"], ["3"], basis, weights]
    with pytest.raises(ModelFormatError, match="equally many basis functions and weights"):
        make_model((0, 1), (0, 1), *lists)


@pytest.mark.parametrize("order", [0, -3])
def test_make_model_refuses_an_order_below_one(order):
    with pytest.raises(BadInterval, match=f"^quadrature order must be >= 1, got {order}$"):
        make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=order)


@pytest.mark.parametrize("channel", [1, 2])
def test_an_unevaluable_basis_skips_its_orthonormality_check(channel):
    # log(t - 0.5) is NaN on half the nodes: no Gram matrix is formed
    lists = [["log(t-0.5)"], ["1"], ["1"], ["0"]] if channel == 1 else [["1"], ["0"], ["log(t-0.5)"], ["1"]]
    checks = {c.name: c for c in validate_model(make_model((0, 1), (0, 1), *lists)).checks}
    name = f"channel{channel}.basis"
    assert not checks[f"{name} evaluable"].passed
    skipped = checks[f"{name} orthonormal"]
    assert (skipped.passed, skipped.deviation, skipped.detail) == (False, None, "skipped: basis not evaluable")


@pytest.mark.parametrize(
    "bad",
    [dict(margin=0.0), dict(margin=-1.0), dict(margin=float("nan")),
     dict(margin=float("inf")), dict(scan_points=0), dict(scan_points=1)],
)
def test_search_settings_refuse_bad_values(bad):
    with pytest.raises(ModelFormatError):
        SearchSettings(**bad)


@pytest.mark.parametrize("key", ["margin"])
def test_search_block_refuses_infinity(tmp_path, key):
    # Python's json writes and reads the literal Infinity
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({**fixture_a_dict(), "search": {key: float("inf")}}))
    assert "Infinity" in path.read_text()
    with pytest.raises(ModelFormatError, match=rf"^search\.{key} inf is not finite$"):
        load_model_file(str(path))


def test_rules_split_at_weight_breakpoints(fixture_c):
    assert 0.5 in fixture_c.rule_y.panel_edges
    assert fixture_c.rule_x.panel_edges == (0.0, 1.0)


@pytest.mark.parametrize("axis,point", [("x", 0.0), ("x", 1.0), ("x", 5.0), ("x", -0.5),
                                        ("y", -1.0), ("y", 2.0), ("y", 2.5), ("y", -3.0)])
def test_make_model_refuses_an_extra_breakpoint_not_inside_its_interval(axis, point):
    # it was dropped before build_rule saw it, so the model built without a word
    interval = "[0.0, 1.0]" if axis == "x" else "[-1.0, 2.0]"
    with pytest.raises(BadBreakpoint, match=f"^breakpoint {re.escape(repr(point))} is not interior to "
                                            f"{re.escape(interval)}$"):
        make_model((0, 1), (-1, 2), ["1"], ["2"], ["1"], ["3"], **{f"extra_breakpoints_{axis}": [0.5, point]})


def test_an_extra_breakpoint_on_a_weight_breakpoint_is_one_panel_edge():
    model = make_model((0, 1), (0, 1), ["1"], ["piecewise([0,0.5]:2; [0.5,1]:4)"], ["1"], ["0"],
                       extra_breakpoints_x=[0.25], extra_breakpoints_y=[0.5])
    assert model.rule_y.panel_edges == (0.0, 0.5, 1.0)
    assert model.rule_x.panel_edges == (0.0, 0.25, 1.0)
    mirror = model.mirrored()
    assert (mirror.extra_breakpoints_x, mirror.extra_breakpoints_y) == ((0.5,), (0.25,))
    assert mirror.rule_x.panel_edges == (0.0, 0.5, 1.0)


def test_a_piecewise_tiling_past_the_interval_splits_only_inside_it():
    # an expression's breakpoint outside the interval is no refusal: the tiling may reach past it
    model = make_model((0, 1), (0, 1), ["1"], ["piecewise([-1,-0.5]:2; [-0.5,0.5]:3; [0.5,2]:4)"], ["1"], ["0"])
    assert model.rule_y.panel_edges == (0.0, 0.5, 1.0)


def test_grid_helper(fixture_a):
    g = fixture_a.grid(lambda x, y: x * y)
    assert g.values.shape == (len(fixture_a.rule_x), len(fixture_a.rule_y))
    assert fixture_a.constant_grid(1.0).inner(g) == pytest.approx(0.25, rel=1e-14)
