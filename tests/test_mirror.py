"""The mirrored model, and channel 2 computed through it.

Every reference below is written from the model's own sampled arrays
(``psi_y``, ``p_x`` and the quadrature weights) or its expressions, never
through ``mirrored()``.
"""

import numpy as np
import pytest

import pio.spectrum
from pio.errors import PioError
from pio.model import eval_kernel, make_model
from pio.operators import apply_partial, apply_S, project, resolvent_channel
from pio.pie import solve_pie
from pio.spectrum import atom_eigenfunction, discrete_spectrum, sigma_ess


def rich_model():
    # nonconstant weights in both channels, rank 1 and 2
    return make_model((0, 1), (0, 1), ["1"], ["t+2"],
                      ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])


def rectangle_model():
    # unequal intervals and node counts, so a missed transpose cannot pass
    return make_model((0, 2), (-1, 1), ["legendre(0)", "legendre(1)"], ["t", "t^2"],
                      ["trig(0)", "trig(1)"], ["t+1", "2-t"], order=16,
                      extra_breakpoints_x=[0.5], extra_breakpoints_y=[0.25])


def models(fixture_b):
    return [rich_model(), fixture_b, rectangle_model()]


def random_grid(model, seed):
    c = np.random.default_rng(seed).uniform(-1, 1, size=5)
    return model.grid(lambda x, y: c[0] + c[1] * x + c[2] * y * y + c[3] * x * y
                      + c[4] * np.sin(3 * x))


def channel2_coefficients(model, f):
    """coeff[k, x] = integral of psi_k(t) f(x, t) dt."""
    return (model.psi_y * model.rule_y.weights) @ f.values.T


def channel2_weighted(model, f, factors):
    """sum_k factors[k](x) * psi_k(y) * coeff_k(x)."""
    return (factors * channel2_coefficients(model, f)).T @ model.psi_y


def test_mirrored_swaps_intervals_channels_and_breakpoints():
    model = rectangle_model()
    mirror = model.mirrored()
    assert (mirror.x_interval, mirror.y_interval) == ((-1.0, 1.0), (0.0, 2.0))
    assert mirror.channel1 is model.channel2 and mirror.channel2 is model.channel1
    assert mirror.extra_breakpoints_x == (0.25,) and mirror.extra_breakpoints_y == (0.5,)
    assert (mirror.order, mirror.search) == (model.order, model.search)
    assert (mirror.n, mirror.m) == (model.m, model.n)


def test_mirror_shares_rules_samples_bound_and_essential_set():
    model = rectangle_model()
    mirror = model.mirrored()
    assert mirror.rule_x.same_rule(model.rule_y) and mirror.rule_y.same_rule(model.rule_x)
    assert mirror.phi_x is model.psi_y and mirror.h_y is model.p_x
    assert mirror.psi_y is model.phi_x and mirror.p_x is model.h_y
    assert mirror.bound == model.bound
    assert sigma_ess(mirror) is sigma_ess(model)


def test_mirrored_is_memoised():
    model = rich_model()
    assert model.mirrored() is model.mirrored()
    assert model.mirrored().mirrored() is model


def test_channel_and_path_must_be_one_or_two(fixture_a):
    one = fixture_a.constant_grid(1.0)
    for bad in (0, 3, "2"):
        with pytest.raises(PioError):
            apply_partial(fixture_a, bad, one)
        with pytest.raises(PioError):
            discrete_spectrum(fixture_a, path=bad)
        with pytest.raises(PioError):
            eval_kernel(fixture_a, bad, 0.1, 0.2, 0.3)


def test_channel2_apply_partial_and_project(fixture_b):
    for model in models(fixture_b):
        f = random_grid(model, 4)
        got = apply_partial(model, 2, f)
        assert got.rule_x is f.rule_x and got.rule_y is f.rule_y
        assert np.allclose(got.values, channel2_weighted(model, f, model.p_x), atol=1e-13)
        coeffs = channel2_coefficients(model, f)
        for k in range(1, model.m + 1):
            ref = np.outer(coeffs[k - 1], model.psi_y[k - 1])
            assert np.allclose(project(model, 2, k, f).values, ref, atol=1e-13)


def test_channel2_resolvent_and_S(fixture_b):
    for model in models(fixture_b):
        g = random_grid(model, 6)
        lam, tau = -0.75, 0.125
        P = model.p_x
        ref = -(g.values - channel2_weighted(model, g, P / (P - lam))) / lam
        assert np.allclose(resolvent_channel(model, 2, lam, g).values, ref, atol=1e-12)
        ref = channel2_weighted(model, g, P / (1.0 - tau * P))
        assert np.allclose(apply_S(model, 2, tau, g).values, ref, atol=1e-12)


def test_channel2_kernel_matches_expressions():
    model = rectangle_model()
    for x, s, y in ((0.3, 0.7, -0.2), (1.9, -0.5, 0.4)):
        ref = sum(float(w(np.float64(x))) * float(f(np.float64(y))) * float(f(np.float64(s)))
                  for f, w in zip(model.channel2.basis, model.channel2.weights))
        assert eval_kernel(model, 2, x, s, y) == pytest.approx(ref, abs=1e-14)


def test_channel2_atom_eigenfunction():
    # channel-2 weight 1 sits at 3 on x in [0, 0.5], a set of measure 0.5
    model = make_model((0, 2), (0, 1), ["legendre(0)"], ["t"],
                       ["legendre(0)", "legendre(1)"],
                       ["piecewise([0,0.5]:3; [0.5,2]:t)", "t/2"])
    got = atom_eigenfunction(model, 2, 1, 3.0)
    x = model.rule_x.nodes
    ref = np.outer((x <= 0.5) / np.sqrt(0.5), model.psi_y[0])
    assert got.rule_x is model.rule_x and got.rule_y is model.rule_y
    assert np.array_equal(got.values, ref)
    assert (apply_partial(model, 2, got) - 3.0 * got).norm() < 1e-12


def test_solve_pie_assembles_pi_once(monkeypatch):
    calls = []
    assemble = pio.spectrum._ReductionPlan.assemble

    def counting(plan, lams):
        calls.append(len(lams))
        return assemble(plan, lams)

    monkeypatch.setattr(pio.spectrum._ReductionPlan, "assemble", counting)
    model = rich_model()
    g = random_grid(model, 9)
    for path in (1, 2):
        calls.clear()
        solve_pie(model, -0.25, g, path=path)
        assert calls == [1]


def test_weight_ranges_are_sampled_once_per_model(monkeypatch):
    calls = []
    essential_range = pio.spectrum.essential_range

    def counting(expr, interval):
        calls.append(interval)
        return essential_range(expr, interval)

    monkeypatch.setattr(pio.spectrum, "essential_range", counting)
    model = rich_model()
    g = random_grid(model, 10)
    solve_pie(model, -0.25, g)
    assert len(calls) == model.n + model.m
    calls.clear()
    solve_pie(model, -0.25, g)
    for channel in (1, 2):
        resolvent_channel(model, channel, -0.5, g)
        apply_S(model, channel, 0.1, g)
    assert calls == []
