"""Quadrature rules: node placement, exactness, composite panels, 2D grids."""

import math

import numpy as np
import pytest

from pio.errors import BadBreakpoint, BadInterval, GridMismatch
from pio.quadrature import Grid2D, _gauss_reference, build_rule


def integrate_1d(f, rule):
    """The rule's sum for ``f``, which maps arrays to arrays."""
    return float(rule.weights @ f(rule.nodes))


def integrate_2d(f, rule_x, rule_y):
    """The tensor rule's sum for ``f``, a function of two array arguments."""
    values = f(rule_x.nodes[:, None], rule_y.nodes[None, :])
    return float(rule_x.weights @ values @ rule_y.weights)


def test_order_two_nodes_on_unit_interval():
    rule = build_rule((0.0, 1.0), 2)
    d = 1.0 / (2.0 * math.sqrt(3.0))
    np.testing.assert_allclose(rule.nodes, [0.5 - d, 0.5 + d], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)


def test_order_one_is_midpoint():
    rule = build_rule((0.0, 2.0), 1)
    np.testing.assert_allclose(rule.nodes, [1.0])
    np.testing.assert_allclose(rule.weights, [2.0])


def test_weights_sum_to_length():
    for order in (1, 2, 5, 32, 64):
        rule = build_rule((-1.5, 2.5), order, [0.0, 1.0])
        assert abs(np.sum(rule.weights) - 4.0) < 1e-12 * (1 + len(rule))


def test_nodes_strictly_inside_panels():
    rule = build_rule((0.0, 1.0), 8, [0.25, 0.5])
    edges = np.asarray(rule.panel_edges)
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
    for e in edges:
        assert np.all(rule.nodes != e)


def test_polynomial_exactness_up_to_degree():
    # an order-q panel rule is exact through degree 2q - 1
    for order in (2, 3, 8):
        rule = build_rule((0.0, 1.0), order)
        for deg in range(2 * order):
            got = integrate_1d(lambda t, d=deg: t**d, rule)
            assert got == pytest.approx(1.0 / (deg + 1), rel=1e-13)


def test_monomial_square_example():
    rule = build_rule((0.0, 1.0), 2)
    assert integrate_1d(lambda t: t * t, rule) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_rational_integrand_order_32():
    # closed form: integral of t/(2-t) over [0,1] is 2 ln 2 - 1
    rule = build_rule((0.0, 1.0), 32)
    expected = 2.0 * math.log(2.0) - 1.0
    assert integrate_1d(lambda t: t / (2.0 - t), rule) == pytest.approx(expected, abs=1e-12)


def test_breakpoints_make_panels():
    rule = build_rule((0.0, 1.0), 2, [0.5])
    assert len(rule) == 4
    assert abs(np.sum(rule.weights) - 1.0) < 1e-12
    assert rule.panel_edges == (0.0, 0.5, 1.0)


def test_panel_refinement_converges_for_kinked_integrand():
    f = lambda t: np.abs(t - 0.5)  # noqa: E731 - kink at 0.5
    plain = build_rule((0.0, 1.0), 6)
    split = build_rule((0.0, 1.0), 6, [0.5])
    exact = 0.25
    assert abs(integrate_1d(f, split) - exact) < 1e-14
    assert abs(integrate_1d(f, split) - exact) < abs(integrate_1d(f, plain) - exact)


def test_bad_interval():
    with pytest.raises(BadInterval):
        build_rule((1.0, 1.0), 4)
    with pytest.raises(BadInterval):
        build_rule((2.0, -1.0), 4)


def test_bad_breakpoint():
    with pytest.raises(BadBreakpoint):
        build_rule((0.0, 1.0), 4, [1.5])
    with pytest.raises(BadBreakpoint):
        build_rule((0.0, 1.0), 4, [0.0])


def test_newton_nodes_match_numpy_reference():
    # independent check against the library eigen-solver based rule
    for order in (3, 16, 48, 96, 200):
        x, w = _gauss_reference(order)
        xr, wr = np.polynomial.legendre.leggauss(order)
        np.testing.assert_allclose(x, xr, atol=5e-15)
        np.testing.assert_allclose(w, wr, atol=5e-15)


def test_integrate_2d_separable():
    rx = build_rule((0.0, 1.0), 4)
    ry = build_rule((0.0, 1.0), 4)
    assert integrate_2d(lambda x, y: x * y, rx, ry) == pytest.approx(0.25, abs=1e-15)


def test_integrate_2d_rectangle():
    rx = build_rule((0.0, 2.0), 8)
    ry = build_rule((-1.0, 1.0), 8)
    got = integrate_2d(lambda x, y: x * y * y + 1.0, rx, ry)
    assert got == pytest.approx(2.0 * 2.0 / 3.0 + 4.0, rel=1e-14)


def test_grid_norm_and_inner():
    rx = build_rule((0.0, 1.0), 16)
    ry = build_rule((0.0, 1.0), 16)
    f = Grid2D.from_function(rx, ry, lambda x, y: x + 0.0 * y)
    g = Grid2D.from_function(rx, ry, lambda x, y: 0.0 * x + y)
    assert f.norm() == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
    assert f.inner(g) == pytest.approx(0.25, rel=1e-14)


def test_grid_mismatch_detected():
    rx = build_rule((0.0, 1.0), 4)
    ry = build_rule((0.0, 1.0), 4)
    other = build_rule((0.0, 1.0), 5)
    f = Grid2D.from_function(rx, ry, lambda x, y: x * y)
    g = Grid2D.from_function(other, ry, lambda x, y: x * y)
    with pytest.raises(GridMismatch):
        f.inner(g)


def test_grid_shape_checked():
    rx = build_rule((0.0, 1.0), 4)
    ry = build_rule((0.0, 1.0), 5)
    with pytest.raises(GridMismatch):
        Grid2D(rx, ry, np.zeros((3, 3)))


def gauss_reference_two_recurrences(n):
    """The node and weight computation as first written, with the Legendre
    recurrence spelt out once in the Newton loop and once for the weights."""
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev = np.ones_like(x)
        p = x.copy()
        for deg in range(2, n + 1):
            p, p_prev = ((2 * deg - 1) * x * p - (deg - 1) * p_prev) / deg, p
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p_prev = np.ones_like(x)
    p = x.copy()
    for deg in range(2, n + 1):
        p, p_prev = ((2 * deg - 1) * x * p - (deg - 1) * p_prev) / deg, p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order_idx = np.argsort(x)
    return x[order_idx], w[order_idx]


def test_gauss_nodes_and_weights_are_those_of_the_two_recurrence_version():
    for order in range(1, 201):
        x, w = _gauss_reference(order)
        ref_x, ref_w = gauss_reference_two_recurrences(order)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes(), order
