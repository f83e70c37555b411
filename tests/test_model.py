"""Model construction, validation, kernels, norm bound, shorthand generators."""

import numpy as np
import pytest

from pio.errors import ModelFormatError
from pio.expr import parse_expr
from pio.model import (
    SearchSettings,
    eval_kernel,
    legendre_source,
    make_model,
    model_from_dict,
    norm_bound,
    trig_source,
    validate_model,
)
from conftest import fixture_a_dict


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


def test_eval_kernel_constant_channel(fixture_a):
    assert eval_kernel(fixture_a, 1, 0.3, 0.7, 0.9) == pytest.approx(2.0, abs=1e-15)
    assert eval_kernel(fixture_a, 2, 0.3, 0.7, 0.9) == pytest.approx(3.0, abs=1e-15)


def test_eval_kernel_channel2_depends_on_x(fixture_b):
    for t, y in [(0.1, 0.9), (0.5, 0.5), (0.99, 0.01)]:
        assert eval_kernel(fixture_b, 2, 0.3, t, y) == pytest.approx(0.3, abs=1e-15)


def test_eval_kernel_step_weight(fixture_c):
    assert eval_kernel(fixture_c, 1, 0.2, 0.8, 0.25) == 2.0
    assert eval_kernel(fixture_c, 1, 0.2, 0.8, 0.75) == 4.0


def test_kernel_symmetry_random_points():
    model = make_model(
        (0, 1), (0, 1),
        ["legendre(0)", "legendre(1)"], ["t", "1 - t"],
        ["trig(0)", "trig(1)"], ["t^2", "0.5"],
    )
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, s, y = rng.uniform(0, 1, size=3)
        assert eval_kernel(model, 1, x, s, y) == pytest.approx(
            eval_kernel(model, 1, s, x, y), abs=1e-13
        )
        assert eval_kernel(model, 2, x, s, y) == pytest.approx(
            eval_kernel(model, 2, x, y, s), abs=1e-13
        )


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


def test_legendre_source_degree_one():
    e = parse_expr(legendre_source(1, (0.0, 1.0)))
    ts = np.linspace(0, 1, 7)
    np.testing.assert_allclose(e(ts), np.sqrt(3.0) * (2.0 * ts - 1.0), atol=1e-12)


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
    assert model.search.root_tol == 1e-10


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
        lambda d: d.__setitem__("search", {"rank_tol": 0}),
    ],
)
def test_model_from_dict_rejects_malformed(mutate):
    data = fixture_a_dict()
    mutate(data)
    with pytest.raises(ModelFormatError):
        model_from_dict(data)


@pytest.mark.parametrize(
    "bad",
    [dict(margin=0.0), dict(margin=-1.0), dict(root_tol=0.0), dict(root_tol=-1.0),
     dict(root_tol=float("nan")), dict(rank_tol=0.0), dict(scan_points=1)],
)
def test_search_settings_refuse_bad_values(bad):
    with pytest.raises(ModelFormatError):
        SearchSettings(**bad)


def test_rules_split_at_weight_breakpoints(fixture_c):
    assert 0.5 in fixture_c.rule_y.panel_edges
    assert fixture_c.rule_x.panel_edges == (0.0, 1.0)


def test_grid_helper(fixture_a):
    g = fixture_a.grid(lambda x, y: x * y)
    assert g.values.shape == (len(fixture_a.rule_x), len(fixture_a.rule_y))
    assert g.integral() == pytest.approx(0.25, rel=1e-14)
