"""Polynomial pieces in closed form: exact weight ranges, Horner ``legendre(k)`` values and the
coefficient tracker's guards, checked against closed forms, numpy and the parsed closures."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import pio.model
from pio.errors import DomainError
from pio.expr import parse_expr
from pio.model import load_model_file, make_model, validate_model
from pio.pie import TauClass, classify_tau
from pio.spectrum import essential_range, operator_margin, sigma_channel
from conftest import legendre_source

ROOT = Path(__file__).resolve().parent.parent
EPS = np.finfo(float).eps
PEAK = 0.71234567  # an interior maximum that no range sample of [0.5, 1] hits
CUBIC_MAX = 2.0 / (3.0 * math.sqrt(3.0))

# weight, its interval, its true range (intervals) and the edge that the sampled range missed
RANGES = {
    "t - t^3": ((0.0, 1.0), [(0.0, CUBIC_MAX)], CUBIC_MAX),
    "t^4 - t^2": ((-1.0, 1.0), [(-0.25, 0.0)], -0.25),
    f"piecewise([0,0.5]: 2 + t; [0.5,1]: 1 - 100*(t - {PEAK!r})^2)": (
        (0.0, 1.0), [(1.0 - 100.0 * (1.0 - PEAK) ** 2, 1.0), (2.0, 2.5)], 1.0),
}


def _weight_models(weight, interval):
    """The weight on channel 1 with ``0.25`` on channel 2, the same with the channels swapped,
    and each one's mirror, as ``(view, channel of the weight)``."""
    basis = "1" if interval[1] - interval[0] == 1.0 else "legendre(0)"
    model = make_model((0, 1), interval, ["1"], [weight], [basis], ["0.25"])
    swapped = make_model(interval, (0, 1), [basis], ["0.25"], ["1"], [weight])
    return [(model, 1), (model.mirrored(), 2), (swapped, 2), (swapped.mirrored(), 1)]


@pytest.mark.parametrize("weight", sorted(RANGES))
def test_polynomial_range_is_exact_and_refused_at_its_edge(weight):
    interval, truth, edge = RANGES[weight]
    for view, channel in _weight_models(weight, interval):
        om = operator_margin(view)
        got = sigma_channel(view, channel)
        assert len(got.intervals) == len(truth)
        for (lo, hi), (want_lo, want_hi) in zip(got.intervals, truth):
            assert abs(lo - want_lo) <= om and abs(hi - want_hi) <= om, (lo, hi)
        # inside the true range or within om of it, where the 4,097 samples missed it by more
        assert classify_tau(view, 1.0 / (edge - 0.5 * om)) is TauClass.CHANNEL_SINGULAR


def test_exact_polynomial_is_an_atom_of_its_exact_value():
    for view, channel in _weight_models("(t+1)^2 - t^2 - 2*t", (0.0, 1.0)):
        om = operator_margin(view)
        assert sigma_channel(view, channel).atoms == ((1.0, 1.0),)
        assert classify_tau(view, 1.0 / (1.0 - 0.5 * om)) is TauClass.CHANNEL_SINGULAR


def test_rounded_zero_polynomial_keeps_its_atom_at_the_mean_of_its_extrema():
    # coefficients (0, 5.55e-17): no critical point, so the extrema are the values at the
    # ends, 0 and 0.1 + 0.2 - 0.3; the sample mean was 1.51e-17
    (level, measure), = essential_range(parse_expr("0.1*t + 0.2*t - 0.3*t"), (0.0, 1.0)).atoms
    assert (level, measure) == ((0.1 + 0.2 - 0.3) / 2, 1.0)


def test_quartic_extrema_are_the_critical_values():
    # the values at t = +-1/sqrt(2) and 0, exact to the rounding of t^4 - t^2 there
    (low, high), = essential_range(parse_expr("t^4 - t^2"), (-1.0, 1.0)).intervals
    assert abs(low + 0.25) <= 2 * EPS and high == 0.0


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)])
def test_horner_legendre_matches_its_text_and_numpy(interval):
    # both within 2 (k + 1) eps sum_i |c_i| |u|^i: Horner's rounding bound (Higham, Accuracy
    # and Stability of Numerical Algorithms, 5.1) with as much again for the reference
    lo, hi = interval
    ts = np.linspace(lo, hi, 1001)
    u = 2.0 / (hi - lo) * ts - (lo + hi) / (hi - lo)
    for k in range(21):
        top = math.sqrt((2.0 * k + 1.0) / (hi - lo))
        got = pio.model._legendre(k, interval)(ts)
        size = np.polynomial.polynomial.polyval(np.abs(u), np.abs(pio.model._leg2poly(k, top)))
        bound = 2.0 * (k + 1) * EPS * size
        for ref in (parse_expr(legendre_source(k, interval))(ts),
                    np.polynomial.legendre.legval(u, [0.0] * k + [top])):
            assert np.all(np.abs(got - ref) <= bound), k


@pytest.mark.parametrize("path", [*sorted((ROOT / "models").glob("*.json")),
                                  ROOT / "tests" / "golden" / "legendre_trig_model.json"],
                         ids=lambda p: p.name)
def test_node_rows_of_parsed_expressions_are_the_closures_values(path):
    model = load_model_file(str(path))
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    slots = [("channel1", "basis", model.phi_x, model.rule_x), ("channel1", "weights", model.h_y, model.rule_y),
             ("channel2", "basis", model.psi_y, model.rule_y), ("channel2", "weights", model.p_x, model.rule_x)]
    for channel, key, rows, rule in slots:
        for src, expr, row in zip(data[channel][key], getattr(model, channel).__dict__[key], rows):
            if not src.startswith("legendre"):
                assert np.array_equal(row, expr(rule.nodes)), src
                assert np.array_equal(row, parse_expr(expr.source)(rule.nodes)), src


def test_division_by_zero_is_still_refused():
    for src in ("t/0", "t/(1-1)"):
        assert parse_expr(src).polynomials == ()
        with pytest.raises(DomainError, match="division by zero"):
            essential_range(parse_expr(src), (0.0, 1.0))
        report = validate_model(make_model((0, 1), (0, 1), ["1"], [src], ["1"], ["0"]))
        assert not report.ok and "division by zero" in report.checks[1].detail


@pytest.mark.parametrize("src", ["t^0.5", "t^-1", "2^t", "sin(t)^2 + cos(t)^2", "t^33", "(t^2)^17"])
def test_non_polynomials_keep_the_sampled_route(src, monkeypatch):
    # no coefficients, so the range is read off 4,097 samples as before: the extrema of the
    # samples, or the atom at their mean where they agree to 1e-12 (1 + max|value|)
    expr = parse_expr(src)
    assert expr.polynomials == ()
    vals = expr(np.linspace(0.5, 1.0, pio.model._RANGE_SAMPLES + 1))
    evaluated = []
    call = type(expr).__call__

    def recording(e, ts):
        evaluated.append(len(ts))
        return call(e, ts)

    monkeypatch.setattr(type(expr), "__call__", recording)
    got = essential_range(expr, (0.5, 1.0))
    assert evaluated == [pio.model._RANGE_SAMPLES + 1]
    low, high = float(vals.min()), float(vals.max())
    if high - low < 1e-12 * (1.0 + max(-low, high)):
        assert (got.intervals, got.atoms) == ((), ((float(vals.mean()), 0.5),))
    else:
        assert (got.intervals, got.atoms) == (((low, high),), ())


def test_coefficients_past_the_degree_cap_are_dropped():
    assert parse_expr("t^32").polynomials[0][2] == (0.0,) * 32 + (1.0,)
    assert parse_expr("t^33").polynomials == ()
    assert parse_expr("t^16 * t^17").polynomials == ()


def test_a_derivative_that_overflows_keeps_the_sampled_route():
    # the derivative's coefficients 4e308 and 5e308 overflow, so the companion matrix has no
    # eigenvalues: the piece is sampled, and its values there are an atom at 0
    expr = parse_expr("1e308*t^5 + 1e308*t^4")
    assert expr.polynomials[0][2][-2:] == (1e308, 1e308)
    assert pio.model._critical_points(*expr.polynomials[0][2:], 0.0, 1e-100) is None
    assert essential_range(expr, (0.0, 1e-100)).atoms == ((0.0, 1e-100),)


def test_a_derivative_past_the_doubles_is_sampled():
    # 2e308 and 4e308 overflow in the derivatives, so neither gives roots and both pieces are
    # sampled; the 4,097 samples hit t = 1/2 and come within f''(t*) h^2/8 = 1.2e300
    # (h = 2/4096) of the quartic's minima at t* = +-sqrt(0.05)
    square = parse_expr("1e308*t^2 - 1e308*t")
    assert pio.model._critical_points(*square.polynomials[0][2:], 0.0, 1.0) is None
    assert essential_range(square, (0.0, 1.0)).intervals == ((-2.5e307, 0.0),)
    quartic = parse_expr("1e308*t^4 - 1e307*t^2")
    assert pio.model._critical_points(*quartic.polynomials[0][2:], -1.0, 1.0) is None
    (low, high), = essential_range(quartic, (-1.0, 1.0)).intervals
    assert abs(low + 2.5e305) <= 1.2e300 and high == 9e307


def test_large_coefficients_keep_their_companion_roots():
    # the roots +-1 of 3e200 (t^2 - 1) come from the companion matrix without overflow
    cubic = parse_expr("1e200*t^3 - 3e200*t")
    assert pio.model._critical_points(*cubic.polynomials[0][2:], -1.5, 1.5) == pytest.approx([-1.0, 1.0])
    assert essential_range(cubic, (-1.5, 1.5)).intervals == ((-2e200, 2e200),)


def test_overflowing_polynomial_still_fails_validation():
    report = validate_model(make_model((0, 1e100), (0, 1), ["1e-50"], ["1"], ["1"], ["1e200*t^2"]))
    assert not report.ok
    assert "produced a non-finite value" in report.checks[3].detail


def test_legendre_members_on_two_intervals_differ():
    a, b = pio.model._legendre(2, (0.0, 1.0)), pio.model._legendre(2, (0.0, 2.0))
    assert a != b and (a.source, b.source) == ("legendre(2) on [0.0, 1.0]", "legendre(2) on [0.0, 2.0]")
    assert a == pio.model._legendre(2, (0, 1))


def test_a_piecewise_operand_combines_segment_by_segment():
    inf = math.inf
    assert parse_expr("2*piecewise([0,1]: t; [1,2]: sin(t)) + 1").polynomials == ((0.0, 1.0, (1.0, 2.0), 1.0, 0.0),)
    assert parse_expr("piecewise([0,1]: t; [1,2]: 2*t)^2").polynomials == (
        (0.0, 1.0, (0.0, 0.0, 1.0), 1.0, 0.0), (1.0, 2.0, (0.0, 0.0, 4.0), 1.0, 0.0))
    # two piecewise operands, or one inside a function, leave no coefficients
    assert parse_expr("piecewise([0,1]: t) * piecewise([0,1]: t)").polynomials == ()
    assert parse_expr("exp(piecewise([0,1]: t))").polynomials == ()
    assert parse_expr("-t^2").polynomials == ((-inf, inf, (0.0, 0.0, 1.0), 1.0, 0.0),)
    # the range of the polynomial segment is exact, the other one's is sampled
    expr = parse_expr("piecewise([0,0.5]: 2 + sin(t); [0.5,1]: t - t^3)")
    (low, high), (sin_low, sin_high) = essential_range(expr, (0.0, 1.0)).intervals
    assert low == 0.0 and abs(high - CUBIC_MAX) <= EPS
    ts = np.linspace(0.0, 0.5, pio.model._RANGE_SAMPLES + 1)
    ts[-1] = np.nextafter(0.5, 0.0)
    assert (sin_low, sin_high) == (2.0, float(expr(ts).max()))
