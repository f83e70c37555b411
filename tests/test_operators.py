"""Operator actions, channel resolvents, and the factorized full resolvent."""

import numpy as np
import pytest

from pio.errors import EigenvalueHit, GridMismatch, IndexOutOfRange, SpectrumHit
from pio.model import make_model
from pio.operators import (
    apply_partial,
    apply_S,
    apply_T,
    apply_W,
    project,
    resolvent_channel,
    resolvent_T,
)
from pio.pie import residual, solve_pie

from test_spectrum import fb_reference


def rich_model():
    # nonconstant weights in both channels, rank 1 and 2
    return make_model((0, 1), (0, 1), ["1"], ["t+2"],
                      ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])


def random_grid(model, rng):
    c = rng.uniform(-1, 1, size=6)
    return model.grid(
        lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * y
        + c[4] * np.sin(3 * x) + c[5] * y * y
    )


def test_apply_partial_fixture_a(fixture_a):
    one = fixture_a.constant_grid(1.0)
    assert np.allclose(apply_partial(fixture_a, 1, one).values, 2.0)
    assert np.allclose(apply_partial(fixture_a, 2, one).values, 3.0)
    assert np.allclose(apply_T(fixture_a, one).values, 5.0)


def test_apply_partial_matches_kernel_integration(fixture_b):
    # brute-force the channel-1 action through its kernel
    rng = np.random.default_rng(3)
    f = random_grid(fixture_b, rng)
    got = apply_partial(fixture_b, 1, f)
    rx, ry = fixture_b.rule_x, fixture_b.rule_y
    for i in (0, len(rx.nodes) // 2):
        for j in (1, len(ry.nodes) - 1):
            y = ry.nodes[j]
            integrand = f.values[:, j]  # f(s, y) on the x nodes
            ref = y * np.sum(rx.weights * integrand)  # phi = 1, h(y) = y
            assert abs(got.values[i, j] - ref) < 1e-12


def test_apply_partial_channel_one_ignores_x_shape(fixture_b):
    # channel 1 of model B sends f(x, y) to y * mean_x f; x dependence dies
    f = fixture_b.grid(lambda x, y: np.sin(5 * x) + y)
    out = apply_partial(fixture_b, 1, f)
    assert np.allclose(out.values, out.values[0][None, :], atol=1e-12)


def test_projector_idempotent_and_orthogonal():
    m = make_model((0, 1), (0, 1),
                   ["legendre(0)", "legendre(1)"], ["1", "2"],
                   ["1"], ["3"])
    rng = np.random.default_rng(11)
    f = random_grid(m, rng)
    p1 = project(m, 1, 1, f)
    p2 = project(m, 1, 2, f)
    assert (project(m, 1, 1, p1) - p1).norm() < 1e-12
    assert project(m, 1, 2, p1).norm() < 1e-12
    assert abs(p1.inner(p2)) < 1e-12
    assert p1.norm() <= f.norm() + 1e-12


def test_projector_index_validation(fixture_a):
    with pytest.raises(IndexOutOfRange):
        project(fixture_a, 1, 2, fixture_a.constant_grid(1.0))
    with pytest.raises(IndexOutOfRange):
        project(fixture_a, 2, 0, fixture_a.constant_grid(1.0))


def test_grid_mismatch_detected(fixture_a, fixture_b):
    other = make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=8)
    with pytest.raises(GridMismatch):
        apply_T(fixture_a, other.constant_grid(1.0))
    split = make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["t"],
                       extra_breakpoints_x=[0.3])
    with pytest.raises(GridMismatch):
        apply_partial(fixture_b, 1, split.constant_grid(1.0))
    # same interval, order and panels means the grids are interchangeable
    assert apply_T(fixture_b, fixture_a.constant_grid(1.0)).norm() > 0


def test_self_adjoint_on_grid(fixture_a, fixture_b):
    rng = np.random.default_rng(5)
    for model in (fixture_a, fixture_b, rich_model()):
        f = random_grid(model, rng)
        g = random_grid(model, rng)
        lhs = apply_T(model, f).inner(g)
        rhs = f.inner(apply_T(model, g))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def channel1_kernel(model, x, s, y):
    """``sum_k phi_k(x) phi_k(s) h_k(y)`` from the model's expressions."""
    return sum(float(f(x)) * float(f(s)) * float(w(y))
               for f, w in zip(model.channel1.basis, model.channel1.weights))


def test_kernel_values_integrate_to_operator_action(fixture_b):
    rng = np.random.default_rng(8)
    f = random_grid(fixture_b, rng)
    xs, ws = fixture_b.rule_x.nodes, fixture_b.rule_x.weights
    x0 = xs[4]
    got = apply_partial(fixture_b, 1, f).values[4]
    for j in (0, 11, 30):
        y = fixture_b.rule_y.nodes[j]
        ref = sum(
            w * channel1_kernel(fixture_b, x0, s, y) * f.values[i, j]
            for i, (s, w) in enumerate(zip(xs, ws))
        )
        assert abs(got[j] - ref) < 1e-12


def test_resolvent_channel_closed_form(fixture_a):
    one = fixture_a.constant_grid(1.0)
    out = resolvent_channel(fixture_a, 1, 4.0, one)
    assert np.allclose(out.values, -0.5)
    out2 = resolvent_channel(fixture_a, 2, 4.0, one)
    # -(1/4)(1 - 3/(3-4)) = -1
    assert np.allclose(out2.values, -1.0)


def test_resolvent_channel_identity(fixture_a, fixture_b):
    rng = np.random.default_rng(17)
    for model in (fixture_a, fixture_b):
        for channel in (1, 2):
            for lam in (-1.0, 10.0):
                f = random_grid(model, rng)
                r = resolvent_channel(model, channel, lam, f)
                back = apply_partial(model, channel, r) - lam * r
                assert (back - f).norm() < 1e-10 * f.norm()


def test_resolvent_channel_refusals(fixture_a, fixture_b):
    one_a = fixture_a.constant_grid(1.0)
    with pytest.raises(SpectrumHit):
        resolvent_channel(fixture_a, 1, 2.0, one_a)
    with pytest.raises(SpectrumHit):
        resolvent_channel(fixture_a, 1, 0.0, one_a)
    with pytest.raises(SpectrumHit):
        resolvent_channel(fixture_b, 2, 0.5, fixture_b.constant_grid(1.0))


def test_apply_S_values_and_inverse(fixture_a):
    one = fixture_a.constant_grid(1.0)
    s = apply_S(fixture_a, 1, 0.1, one)
    assert np.allclose(s.values, 2.5)  # 2 / (1 - 0.1*2)
    # identity + tau * S(tau) inverts identity - tau * channel
    rng = np.random.default_rng(23)
    g = random_grid(fixture_a, rng)
    u = g + 0.1 * apply_S(fixture_a, 1, 0.1, g)
    back = u - 0.1 * apply_partial(fixture_a, 1, u)
    assert (back - g).norm() < 1e-12


def test_apply_S_zero_parameter_is_plain_channel(fixture_b):
    rng = np.random.default_rng(29)
    f = random_grid(fixture_b, rng)
    s = apply_S(fixture_b, 2, 0.0, f)
    assert (s - apply_partial(fixture_b, 2, f)).norm() < 1e-13


def test_apply_S_refuses_weight_range_hit(fixture_b):
    # 1/tau = 0.5 lies inside the range of the weight t
    with pytest.raises(SpectrumHit):
        apply_S(fixture_b, 1, 2.0, fixture_b.constant_grid(1.0))


def test_apply_S_huge_tau_is_fine_for_banded_weights(fixture_a):
    # 1/tau near zero only matters when the weights get near zero
    out = apply_S(fixture_a, 1, 1e9, fixture_a.constant_grid(1.0))
    assert np.all(np.isfinite(out.values))


def test_apply_W_worked_value(fixture_a):
    one = fixture_a.constant_grid(1.0)
    w = apply_W(fixture_a, 0.1, one)
    assert np.allclose(w.values, 75.0 / 7.0, atol=1e-12)


def test_apply_W_zero_parameter_composes_channels(fixture_a):
    rng = np.random.default_rng(31)
    f = random_grid(fixture_a, rng)
    w0 = apply_W(fixture_a, 0.0, f)
    ref = apply_partial(fixture_a, 1, apply_partial(fixture_a, 2, f))
    assert (w0 - ref).norm() < 1e-12


def test_apply_W_matches_separable_kernel():
    model = rich_model()
    rng = np.random.default_rng(37)
    f = random_grid(model, rng)
    tau = 0.11
    wf = apply_W(model, tau, f)
    lam = 1.0 / tau
    F, B = fb_reference(model, lam, 1)
    wx, wy = model.rule_x.weights, model.rule_y.weights
    moments = np.einsum("wxy,x,y,xy->w", B, wx, wy, f.values)
    ref = lam * np.einsum("w,wxy->xy", moments, F)
    assert np.max(np.abs(wf.values - ref)) < 1e-11


def test_resolvent_T_worked_value(fixture_a):
    out = resolvent_T(fixture_a, 10.0, fixture_a.constant_grid(1.0))
    assert np.allclose(out.values, -0.2)


def test_resolvent_T_identity(fixture_a, fixture_b):
    rng = np.random.default_rng(41)
    for model in (fixture_a, fixture_b):
        for lam in (-1.0, 10.0):
            g = random_grid(model, rng)
            r = resolvent_T(model, lam, g)
            back = apply_T(model, r) - lam * r
            assert (back - g).norm() < 1e-10 * g.norm()


@pytest.mark.parametrize("lam", [0.5 + 0.5j, 2.5 - 0.1j, -1.0 + 2.0j])
def test_resolvent_and_solve_at_complex_parameters(lam, fixture_a, fixture_b, fixture_c):
    rng = np.random.default_rng(53)
    for model in (fixture_a, fixture_b, fixture_c, rich_model()):
        g = random_grid(model, rng)
        for path in (1, 2):
            # path 2 is path 1 of the mirror, on the transposed grid
            view, gv = (model, g) if path == 1 else (model.mirrored(), g.transposed())
            r = resolvent_T(view, lam, gv)
            assert (apply_T(view, r) - lam * r - gv).norm() <= 1e-13 * g.norm()
            f = solve_pie(view, 1.0 / lam, gv)
            assert residual(view, 1.0 / lam, f, gv) <= 1e-13 * g.norm()


def test_resolvent_T_first_resolvent_identity(fixture_a):
    rng = np.random.default_rng(43)
    g = random_grid(fixture_a, rng)
    lam, mu = 10.0, -7.0
    lhs = resolvent_T(fixture_a, lam, g) - resolvent_T(fixture_a, mu, g)
    rhs = (lam - mu) * resolvent_T(fixture_a, lam, resolvent_T(fixture_a, mu, g))
    assert (lhs - rhs).norm() < 1e-12


def test_resolvent_T_symmetric(fixture_b):
    rng = np.random.default_rng(47)
    f = random_grid(fixture_b, rng)
    g = random_grid(fixture_b, rng)
    lhs = resolvent_T(fixture_b, 10.0, f).inner(g)
    rhs = f.inner(resolvent_T(fixture_b, 10.0, g))
    assert abs(lhs - rhs) < 1e-12


def test_resolvent_T_refusals(fixture_a, fixture_b):
    one = fixture_a.constant_grid(1.0)
    with pytest.raises(EigenvalueHit):
        resolvent_T(fixture_a, 5.0, one)
    with pytest.raises(SpectrumHit):
        resolvent_T(fixture_a, 3.0, one)
    with pytest.raises(SpectrumHit):
        resolvent_T(fixture_b, 0.5, fixture_b.constant_grid(1.0))
    with pytest.raises(SpectrumHit):
        resolvent_T(fixture_a, 0.0, one)


def test_zero_eigenvalue_witness_family(fixture_a):
    """Functions orthogonal to the channel-1 basis in x are annihilated by
    channel 1, whatever they do in y; ten of them, orthonormal.

    Built by the three-term recurrence (not from expanded monomial
    coefficients, which lose digits to cancellation at degree 10).
    """
    members = []
    for k in range(1, 11):
        coeff = np.zeros(k + 1)
        coeff[k] = np.sqrt(2.0 * k + 1.0)
        members.append(
            fixture_a.grid(
                lambda x, y, c=coeff: np.polynomial.legendre.legval(2.0 * x - 1.0, c)
                * np.ones_like(y)
            )
        )
    for i, f in enumerate(members):
        assert apply_partial(fixture_a, 1, f).norm() < 1e-12
        assert abs(f.norm() - 1.0) < 1e-12
        for g in members[i + 1:]:
            assert abs(f.inner(g)) < 1e-12


def test_near_band_quasi_mode():
    """A narrow indicator bump in y concentrated where the weight passes
    through 0.5 is an almost-eigenfunction of channel 1."""
    lo1, lo2 = 0.5 - 1.0 / 64.0, 0.5 - 1.0 / 65.0
    hi1, hi2 = 0.5 + 1.0 / 65.0, 0.5 + 1.0 / 64.0
    model = make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["t"],
                       extra_breakpoints_y=[lo1, lo2, hi1, hi2])
    ys = model.rule_y.nodes
    mask = ((ys > lo1) & (ys < lo2)) | ((ys > hi1) & (ys < hi2))
    measure = 2.0 * (1.0 / 64.0 - 1.0 / 65.0)
    values = np.broadcast_to(mask / np.sqrt(measure), (len(model.rule_x.nodes), len(ys)))
    f = model.grid(lambda x, y: np.zeros(np.broadcast(x, y).shape)).with_values(values.copy())
    assert abs(f.norm() - 1.0) < 1e-10
    drift = (apply_partial(model, 1, f) - 0.5 * f).norm()
    assert drift < 0.02
    # and it is genuinely close to the band edge scale, not accidentally tiny
    assert drift > 1e-3
