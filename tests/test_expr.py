"""Expression language: parsing, evaluation, breakpoints."""

import re

import numpy as np
import pytest

from pio.errors import (
    DomainError,
    EmptyPiecewise,
    ExprSyntaxError,
    UnknownIdentifier,
)
from pio.expr import _literal_value, _tokenize, parse_expr, parse_expr2
from pio.spectrum import essential_range


def eval_expr(e, *values):
    """The expression's value at one point, as a float."""
    return float(e(*values))


def test_basic_arithmetic():
    e = parse_expr("2*t + 1")
    assert eval_expr(e, 0.25) == 1.5


def test_power_is_right_associative():
    assert eval_expr(parse_expr("2^3^2"), 0.0) == 512.0


def test_unary_minus_binds_tighter_than_power():
    assert eval_expr(parse_expr("-2^2"), 0.0) == 4.0
    assert eval_expr(parse_expr("-(2^2)"), 0.0) == -4.0


def test_power_beats_product():
    assert eval_expr(parse_expr("2 + 3*4^2"), 0.0) == 50.0


def test_negative_exponent():
    assert eval_expr(parse_expr("2^-2"), 0.0) == 0.25


def test_pi_and_functions():
    e = parse_expr("sin(pi*t) + cos(0)")
    assert eval_expr(e, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert eval_expr(parse_expr("sqrt(abs(-4))"), 0.0) == 2.0
    assert eval_expr(parse_expr("log(exp(2))"), 0.0) == pytest.approx(2.0, rel=1e-15)


def test_piecewise_boundary_belongs_to_right_segment():
    e = parse_expr("piecewise([0,0.5]:2; [0.5,1]:4)")
    assert eval_expr(e, 0.5) == 4.0
    assert eval_expr(e, 0.49) == 2.0
    assert eval_expr(e, 1.0) == 4.0  # the final upper bound is closed
    assert eval_expr(e, 0.0) == 2.0


def test_piecewise_array_evaluation_matches_scalar():
    e = parse_expr("piecewise([0,0.5]:t; [0.5,1]:1-t)")
    ts = np.linspace(0.0, 1.0, 41)
    vals = e(ts)
    for t, v in zip(ts, vals):
        assert v == eval_expr(e, t)


def test_breakpoints_are_interior_boundaries():
    e = parse_expr("piecewise([0,0.5]:1; [0.5,1]:t)")
    assert e.breakpoints == (0.5,)


def test_nested_piecewise_breakpoints():
    e = parse_expr("piecewise([0,0.5]:piecewise([0,0.25]:1; [0.25,0.5]:2); [0.5,1]:t)")
    assert e.breakpoints == (0.25, 0.5)


def test_negative_segment_bounds():
    e = parse_expr("piecewise([-1,0]:1; [0,1]:t)")
    assert e.breakpoints == (0.0,)
    assert eval_expr(e, -0.5) == 1.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("2*t+")
    assert err.value.offset == 4


@pytest.mark.parametrize("text,message,offset", [("2*t\u00e9", "non-ASCII character", 3),
                                                 ("1e999*t", "numeric literal overflows", 0)])
def test_a_character_or_literal_the_parser_cannot_take(text, message, offset):
    # without their own checks, the non-ASCII character was an "unexpected
    # character" and 1e999 parsed as an infinite constant
    with pytest.raises(ExprSyntaxError, match=message) as err:
        parse_expr(text)
    assert err.value.offset == offset


def test_an_expression_takes_one_array_per_variable():
    arrays = (np.zeros(2), np.zeros(2))
    with pytest.raises(DomainError, match=re.escape("expression over ('t',) called with 2 arguments")):
        parse_expr("t")(*arrays)
    assert parse_expr2("x*y")(*arrays).shape == (2,)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse_expr("sin(w)")
    assert err.value.name == "w"


def test_empty_piecewise():
    with pytest.raises(EmptyPiecewise):
        parse_expr("piecewise()")


def test_non_contiguous_segments_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("piecewise([0,0.4]:1; [0.5,1]:2)")


def test_decreasing_segment_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("piecewise([0.5,0.2]:1)")


def test_division_by_zero():
    with pytest.raises(DomainError):
        eval_expr(parse_expr("1/t"), 0.0)


def test_log_and_sqrt_domains():
    with pytest.raises(DomainError):
        eval_expr(parse_expr("log(t - 1)"), 0.5)
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(-t)"), 0.5)


def test_fractional_power_of_negative_base():
    with pytest.raises(DomainError):
        eval_expr(parse_expr("(-2)^0.5"), 0.0)


def test_zero_to_negative_power():
    with pytest.raises(DomainError):
        eval_expr(parse_expr("t^-1"), 0.0)


@pytest.mark.parametrize("base", ["t", "t - 0.5", "-t", "(t - 1)*t", "2"])
@pytest.mark.parametrize("exponent", ["2", "3", "-1", "-2", "0.5", "-0.5", "0", "1e300", "(2)", "-(3)"])
def test_literal_exponent_agrees_with_the_general_power(base, exponent):
    # a literal exponent's tests are decided at parse; "+ 0" keeps the same
    # exponent on the general path, which decides them per call
    literal = parse_expr(f"({base})^{exponent}")
    general = parse_expr(f"({base})^({exponent} + 0)")
    for ts in (np.linspace(-2, 2, 41), np.linspace(0.1, 2, 7), np.array(0.0), np.array(-1.5)):
        try:
            want = general(ts)
        except DomainError as err:
            message = str(err).replace(general.source, literal.source)
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                literal(ts)
            continue
        got = literal(ts)
        np.testing.assert_array_equal(got, want)
        assert got.shape == want.shape
        # and Python's own power, sign of odd powers of negative bases included
        bases = np.broadcast_to(parse_expr(base)(ts), got.shape).ravel()
        (_, _, (power,), _, _), = parse_expr(exponent).polynomials
        np.testing.assert_allclose(got.ravel(), [b ** power for b in bases.tolist()], rtol=1e-14)


def test_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        eval_expr(parse_expr("exp(1000*t)"), 1.0)


def test_outside_piecewise_coverage():
    e = parse_expr("piecewise([0,1]:t)")
    with pytest.raises(DomainError):
        eval_expr(e, 1.5)


def test_two_variable_expressions():
    e = parse_expr2("x*y + 1")
    assert eval_expr(e, 0.5, 2.0) == 2.0
    grid = e(np.array([0.0, 1.0])[:, None], np.array([1.0, 2.0, 3.0])[None, :])
    assert grid.shape == (2, 3)
    assert grid[1, 2] == 4.0


def test_piecewise_rejected_in_two_variables():
    with pytest.raises(ExprSyntaxError):
        parse_expr2("piecewise([0,1]:x)")


def test_t_rejected_in_two_variables():
    with pytest.raises(UnknownIdentifier):
        parse_expr2("t + x")


def test_deterministic_reparse():
    a = parse_expr("piecewise([0,0.5]:sin(t); [0.5,1]:2*t^2)")
    b = parse_expr("piecewise([0,0.5]:sin(t); [0.5,1]:2*t^2)")
    assert (a.source, a.breakpoints, a.polynomials) == (b.source, b.breakpoints, b.polynomials)
    assert a == b and hash(a) == hash(b)
    ts = np.linspace(0.0, 1.0, 41)
    assert np.array_equal(a(ts), b(ts))


def test_constant_detection():
    def atoms(src):
        return essential_range(parse_expr(src), (0.0, 1.0)).atoms

    assert atoms("2") == ((2.0, 1.0),)
    assert atoms("-3.5") == ((-3.5, 1.0),)
    def literal(src):  # the rule that decides a literal exponent
        kinds, texts = _tokenize(src)
        return _literal_value(kinds, texts, 0, len(kinds) - 1)

    assert [literal(src) for src in ("(2)", "-(0.1)", "(-(0.1))", "- 3")] == [2.0, -0.1, -0.1, -3.0]
    assert [literal(src) for src in ("-(-3)", "2*1", "t", "pi")] == [None] * 4
    (value, measure), = atoms("cos(0)*2")
    assert value == pytest.approx(2.0) and measure == 1.0
    assert atoms("t") == ()
    assert atoms("piecewise([0,0.5]:2; [0.5,1]:4)") == ((2.0, 0.5), (4.0, 0.5))


# --- property-style checks ---------------------------------------------------


def _random_ast_source(rng, depth=0):
    """Source text of a random grammar expression (parser-reachable shapes)."""
    roll = rng.random()
    if depth >= 4 or roll < 0.25:
        choice = rng.integers(0, 3)
        if choice == 0:
            return repr(float(round(rng.uniform(0.0, 9.0), 3)))
        if choice == 1:
            return "t"
        return "pi"
    if roll < 0.45:
        return f"{_random_ast_source(rng, depth + 1)} {rng.choice(['+', '-', '*'])} {_random_ast_source(rng, depth + 1)}"
    if roll < 0.55:
        return f"{_random_ast_source(rng, depth + 1)} / ({repr(float(round(rng.uniform(1.0, 5.0), 3)))} + abs(t))"
    if roll < 0.70:
        fn = rng.choice(["sin", "cos", "abs"])
        return f"{fn}({_random_ast_source(rng, depth + 1)})"
    if roll < 0.80:
        return f"t^{rng.integers(0, 4)}"
    if roll < 0.90:
        return f"-({_random_ast_source(rng, depth + 1)})"
    cuts = sorted(rng.uniform(0.1, 0.9, size=int(rng.integers(1, 3))))
    bounds = [0.0, *[round(float(c), 3) for c in cuts], 1.0]
    segs = "; ".join(
        f"[{bounds[i]!r},{bounds[i + 1]!r}]:{_random_ast_source(rng, depth + 1)}"
        for i in range(len(bounds) - 1)
    )
    return f"piecewise({segs})"


def test_matches_python_evaluation_of_the_same_text():
    """Reference oracle: Python's own arithmetic on the source text."""
    rng = np.random.default_rng(1504)
    ts = np.linspace(0.0, 1.0, 33)
    env = {"t": ts, "pi": np.pi, "sin": np.sin, "cos": np.cos, "abs": np.abs}
    checked = 0
    for _ in range(300):
        src = _random_ast_source(rng)
        if "piecewise" in src:
            continue
        want = np.broadcast_to(eval(src.replace("^", "**"), {"__builtins__": {}}, env), ts.shape)
        np.testing.assert_allclose(parse_expr(src)(ts), want, rtol=1e-12, atol=0.0, err_msg=src)
        checked += 1
    assert checked >= 150


def test_parser_totality_on_fuzz_input():
    rng = np.random.default_rng(7)
    alphabet = list("0123456789.+-*/^()[]:;, tpisncoqrabwxyz_e")
    for _ in range(600):
        n = int(rng.integers(1, 30))
        text = "".join(rng.choice(alphabet) for _ in range(n))
        try:
            parse_expr(text)
        except (ExprSyntaxError, UnknownIdentifier, EmptyPiecewise):
            pass


def test_parser_totality_on_mutated_valid_input():
    rng = np.random.default_rng(11)
    base = "piecewise([0,0.5]:sin(2*pi*t); [0.5,1]:t^2 - 1/(t + 2))"
    for _ in range(400):
        chars = list(base)
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(0, len(chars)))
            if rng.random() < 0.5:
                chars[k] = chr(int(rng.integers(32, 127)))
            else:
                del chars[k]
                if not chars:
                    chars = ["1"]
        try:
            parse_expr("".join(chars))
        except (ExprSyntaxError, UnknownIdentifier, EmptyPiecewise):
            pass


def test_continuity_between_breakpoints():
    rng = np.random.default_rng(2024)
    eps = 1e-13
    for _ in range(60):
        src = _random_ast_source(rng)
        e = parse_expr(src)
        cuts = [0.0, *e.breakpoints, 1.0]
        probes = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            probes.extend([mid, lo + 0.31 * (hi - lo), lo + 0.77 * (hi - lo)])
        for t in probes:
            try:
                left = eval_expr(e, t - eps)
                right = eval_expr(e, t + eps)
            except DomainError:
                continue
            assert abs(right - left) < 1e-9 * (1.0 + abs(left)), (src, t)
