"""Spectral machinery: essential ranges, determinant, roots, eigenfunctions.

Closed forms used for the fixed models (derived by hand from the channel
data, independently of the implementation):

  model A (bases 1, weights 2 and 3):
      reduction matrix  6*lam / ((lam-2)(lam-3)),
      determinant       lam^2 (5-lam) / ((lam-2)(lam-3)).
  model B (bases 1, weights t and t), L = log(lam/(lam-1)):
      reduction matrix  lam (lam L - 1)^2,
      determinant       lam^2 L (lam L - 2);
      the only root solves lam * L = 2.
"""

import gc
import weakref

import numpy as np
import pytest

import pio.spectrum
from pio.errors import IndexOutOfRange, NoAtom, NotAnEigenvalue, SpectrumHit
from pio.expr import parse_expr
from pio.model import make_model
from pio.operators import apply_T
from pio.spectrum import (
    _assemble_pi,
    _reduction_plan,
    atom_eigenfunction,
    build_F,
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


def delta_a(lam):
    return lam**2 * (5.0 - lam) / ((lam - 2.0) * (lam - 3.0))


def delta_b(lam):
    L = np.log(lam / (lam - 1.0))
    return lam**2 * L * (lam * L - 2.0)


def bisect_scalar(fn, lo, hi, tol=1e-13):
    flo = fn(lo)
    assert flo * fn(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, fn(mid)
    return 0.5 * (lo + hi)


# reference root of lam * log(lam/(lam-1)) = 2, independent of the package
ROOT_B = bisect_scalar(lambda lam: lam * np.log(lam / (lam - 1.0)) - 2.0, 1.2, 1.3)


# --- essential part ---


def test_essential_range_identity_map():
    er = essential_range(parse_expr("t"), (0.0, 1.0))
    assert er.intervals == ((0.0, 1.0),)
    assert er.atoms == ()


def test_essential_range_constant_is_atom():
    er = essential_range(parse_expr("2"), (0.0, 1.0))
    assert er.intervals == ()
    assert er.atoms == ((2.0, 1.0),)


def test_essential_range_step_function():
    er = essential_range(parse_expr("piecewise([0,0.5]:2; [0.5,1]:4)"), (0.0, 1.0))
    assert er.atoms == ((2.0, 0.5), (4.0, 0.5))


def test_essential_range_mixed_pieces():
    # constant piece at level 1 next to a ramp through [0, 2]
    er = essential_range(parse_expr("piecewise([0,0.25]:1; [0.25,1]:t*8/3-2/3)"), (0.0, 1.0))
    assert er.atoms == ((1.0, 0.25),)
    (lo, hi), = er.intervals
    assert abs(lo - 0.0) < 1e-9 and abs(hi - 2.0) < 1e-9


def test_essential_range_same_level_pieces_merge_measure():
    er = essential_range(
        parse_expr("piecewise([0,0.25]:3; [0.25,0.5]:t; [0.5,1]:3)"), (0.0, 1.0)
    )
    assert any(abs(v - 3.0) < 1e-12 and abs(m - 0.75) < 1e-12 for v, m in er.atoms)


def test_sigma_channel_fixture_a(fixture_a):
    s1 = sigma_channel(fixture_a, 1)
    assert s1.points == (0.0, 2.0)
    assert s1.atoms == ((2.0, 1.0),)
    s2 = sigma_channel(fixture_a, 2)
    assert s2.points == (0.0, 3.0)


def test_sigma_ess_fixtures(fixture_a, fixture_b, fixture_c):
    assert sigma_ess(fixture_a).points == (0.0, 2.0, 3.0)
    sb = sigma_ess(fixture_b)
    assert sb.intervals == ((0.0, 1.0),)
    assert sb.points == ()
    sc = sigma_ess(fixture_c)
    assert sc.points == (0.0, 2.0, 4.0)
    assert (2.0, 0.5) in sc.atoms and (4.0, 0.5) in sc.atoms


def test_spectral_set_distance_real_and_complex(fixture_b):
    sb = sigma_ess(fixture_b)
    assert sb.distance(0.5) == 0.0
    assert abs(sb.distance(1.5) - 0.5) < 1e-15
    assert abs(sb.distance(2.5 + 0.5j) - np.hypot(1.5, 0.5)) < 1e-15
    assert sb.contains(0.3) and not sb.contains(1.2)


def test_isolated_point_swallowed_by_interval():
    # channel-2 atom at 0.5 sits inside channel-1's band [0, 1]
    m = make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["0.5"])
    s = sigma_ess(m)
    assert s.intervals == ((0.0, 1.0),)
    assert s.points == ()  # 0 and 0.5 are both inside the band
    assert s.atoms == ((0.5, 1.0),)


# --- reduction matrix and determinant ---


def test_pi_matrix_fixture_a(fixture_a):
    pm = pi_matrix(fixture_a, 4.0)
    assert pm.entries.shape == (1, 1)
    assert abs(pm.entries[0, 0] - 12.0) < 1e-10
    assert pm.index_map == ((1, 1),)
    assert abs(pi_matrix(fixture_a, 10.0).entries[0, 0] - 60.0 / 56.0) < 1e-12


def test_pi_matrix_fixture_b(fixture_b):
    val = pi_matrix(fixture_b, 2.0).entries[0, 0]
    # lam (lam L - 1)^2 at lam = 2 is 2 (2 log 2 - 1)^2
    assert abs(val - 2.0 * (2.0 * np.log(2.0) - 1.0) ** 2) < 1e-12


def test_delta_closed_form_fixture_a(fixture_a):
    for lam in (-1.0, 1.5, 4.0, 7.0):
        assert abs(delta(fixture_a, lam) - delta_a(lam)) < 1e-10
    assert abs(delta(fixture_a, 4.0) - 8.0) < 1e-10
    assert abs(delta(fixture_a, 1.0) - 2.0) < 1e-10


def test_delta_closed_form_fixture_b(fixture_b):
    for lam in (1.1, 1.5, 2.0, -0.7):
        assert abs(delta(fixture_b, lam) - delta_b(lam)) < 1e-9


def test_delta_zero_coupling_is_minus_lambda(fixture_c):
    # channel 2 weight vanishes, so the reduction matrix is zero
    assert abs(delta(fixture_c, 1.0) + 1.0) < 1e-14
    assert abs(delta(fixture_c, -3.0) - 3.0) < 1e-14
    assert np.allclose(pi_matrix(fixture_c, 1.0).entries, 0.0)


def test_delta_dtype_follows_input(fixture_b):
    assert isinstance(delta(fixture_b, 1.5), float) or np.isrealobj(
        delta(fixture_b, 1.5)
    )
    val = delta(fixture_b, 2.5 + 0.5j)
    assert np.iscomplexobj(val)
    ref = delta_b(2.5 + 0.5j)
    assert abs(val - ref) < 1e-9


def test_delta_batch_matches_scalar(fixture_a):
    lams = np.array([-1.0, 1.5, 4.0, 7.0])
    batch = delta_batch(fixture_a, lams)
    singles = [delta(fixture_a, lam) for lam in lams]
    assert np.allclose(batch, singles, atol=1e-12)


def test_delta_refuses_essential_neighborhood(fixture_a):
    with pytest.raises(SpectrumHit):
        delta(fixture_a, 2.0)
    with pytest.raises(SpectrumHit):
        delta(fixture_a, 3.0 + 1e-12)
    with pytest.raises(SpectrumHit):
        pi_matrix(fixture_a, 0.0)


def test_delta_holomorphic_off_the_real_axis(fixture_b):
    # central difference Cauchy-Riemann residual at a comfortable distance
    lam, h = 2.5 + 0.5j, 1e-4
    dx = (delta(fixture_b, lam + h) - delta(fixture_b, lam - h)) / (2 * h)
    dy = (delta(fixture_b, lam + 1j * h) - delta(fixture_b, lam - 1j * h)) / (2j * h)
    assert abs(dx - dy) / abs(dx) < 1e-6


def test_index_map_asymmetric_model():
    m = make_model((0, 1), (0, 1), ["1"], ["t+2"],
                   ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])
    assert pi_matrix(m, 9.0).index_map == ((1, 1), (2, 1))
    assert pi_matrix(m, 9.0, path=2).index_map == ((1, 1), (1, 2))
    assert pi_matrix(m, 9.0).entries.shape == (2, 2)


def ramp_model(n, m):
    """Legendre bases, weights (k+1)*t in channel 1 and (k+1)*t^2 in channel 2."""
    return make_model((0, 1), (0, 1),
                      [f"legendre({k})" for k in range(n)], [f"{k + 1}*t" for k in range(n)],
                      [f"legendre({k})" for k in range(m)], [f"{k + 1}*t^2" for k in range(m)])


def pi_reference(model, lams, path):
    """``Pi(lam)`` contracted term by term from the cross-integral definition.

    Written independently of the library's reduction plan: each factor of
    ``<F_(k,j), B_(q,p)>`` is its own einsum over the quadrature nodes.
    """
    if path == 1:
        Phi, H, Psi, P = model.phi_x, model.h_y, model.psi_y, model.p_x
        wx, wy = model.rule_x.weights, model.rule_y.weights
    else:
        Phi, H, Psi, P = model.psi_y, model.p_x, model.phi_x, model.h_y
        wx, wy = model.rule_y.weights, model.rule_x.weights
    lcol = np.asarray(lams)[:, None, None]
    HF = H[None] / (lcol - H[None])
    PF = P[None] / (lcol - P[None])
    Y1 = np.einsum("y,ky,ljy,iy->lkji", wy, Psi, HF, Psi)
    X1 = np.einsum("x,jx,qx,px->jqp", wx, Phi, P, Phi)
    X2 = np.einsum("x,jx,lix,qx,px->lijqp", wx, Phi, PF, P, Phi)
    G2 = np.einsum("y,iy,qy->iq", wy, Psi, Psi)
    t1 = np.einsum("lkjq,jqp->lkjqp", Y1, X1)
    t2 = np.einsum("lkji,iq,lijqp->lkjqp", Y1, G2, X2)
    size = Phi.shape[0] * Psi.shape[0]
    return (t1 + t2).reshape(len(lcol), size, size)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 4), (8, 8), (2, 3), (3, 1)])
@pytest.mark.parametrize("path", [1, 2])
def test_reduction_plan_matches_reference(n, m, path):
    model = ramp_model(n, m)
    top = model.bound
    # essential set is [0, max(n, m)]: real points either side, complex ones over the band
    for lams in (
        np.array([top + 0.5]),
        np.array([-0.7, top + 0.5, top + 2.0]),
        np.array([0.5 * top + 0.3j, 0.2 - 0.4j, top + 1.0 + 0.0j]),
    ):
        got = _assemble_pi(model, lams, path)
        ref = pi_reference(model, lams, path)
        assert got.shape == ref.shape == (len(lams), n * m, n * m)
        assert got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_reduction_plan_built_once_per_model_and_path():
    model = ramp_model(2, 3)
    _assemble_pi(model, np.array([5.0]))
    plan = _reduction_plan(model, 1)
    _assemble_pi(model, np.array([6.0, 7.0]))
    delta(model, 5.5)
    assert _reduction_plan(model, 1) is plan
    assert _reduction_plan(model, 2) is not plan
    assert _reduction_plan(ramp_model(2, 3), 1) is not plan


def test_per_model_caches_do_not_pin_the_model():
    model = ramp_model(2, 2)
    sigma_full(model)
    assert sigma_ess(model) is sigma_ess(model)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_spectral_set_distances_match_scalar(fixture_a, fixture_b):
    lams = np.array([-1.0, 0.0, 0.5, 1.5, 2.0, 2.4, 3.0, 7.0])
    for ess in (sigma_ess(fixture_a), sigma_ess(fixture_b)):
        for values in (lams, lams + 0.25j, lams - 3.0j):
            got = ess.distances(values)
            assert got.shape == values.shape
            assert list(got) == [ess.distance(v) for v in values]


# --- left factor functions ---


def test_factor_function_fixture_a(fixture_a):
    F = build_F(fixture_a, 1, 1, 4.0)
    assert abs(F(0.3, 0.7) - 4.0) < 1e-12
    xs = np.linspace(0, 1, 7)
    assert np.allclose(F(xs, xs), 4.0, atol=1e-12)


def test_factor_function_fixture_b(fixture_b):
    # F(x, y; 2) = y/(2-y) + x/(2-x) * (2 log 2 - 1)
    F = build_F(fixture_b, 1, 1, 2.0)
    c = 2.0 * np.log(2.0) - 1.0
    for x, y in ((0.2, 0.9), (0.5, 0.5), (0.75, 0.1)):
        ref = y / (2.0 - y) + x / (2.0 - x) * c
        assert abs(F(x, y) - ref) < 1e-9


def test_factor_function_index_validation(fixture_a):
    with pytest.raises(IndexOutOfRange):
        build_F(fixture_a, 2, 1, 4.0)
    with pytest.raises(IndexOutOfRange):
        build_F(fixture_a, 1, 0, 4.0)


# --- discrete spectrum ---


def test_discrete_fixture_a(fixture_a):
    disc = discrete_spectrum(fixture_a)
    assert len(disc) == 1
    lam, mult = disc[0]
    assert abs(lam - 5.0) < 1e-8
    assert mult == 1


def test_discrete_fixture_b_transcendental_root(fixture_b):
    disc = discrete_spectrum(fixture_b)
    assert len(disc) == 1
    assert abs(disc[0][0] - ROOT_B) < 1e-7
    assert disc[0][1] == 1


def test_discrete_fixture_c_empty(fixture_c):
    assert discrete_spectrum(fixture_c) == ()


def test_discrete_zero_model_empty():
    m = make_model((0, 1), (0, 1), ["1"], ["0"], ["1"], ["0"])
    assert discrete_spectrum(m) == ()


def test_discrete_double_root_multiplicity():
    # constant weights 1,3 and 2.2,0.2: sums 3.2 coincide from two pairs
    m = make_model((0, 1), (0, 1),
                   ["legendre(0)", "legendre(1)"], ["1", "3"],
                   ["legendre(0)", "legendre(1)"], ["2.2", "0.2"])
    disc = discrete_spectrum(m)
    got = {round(lam, 6): mult for lam, mult in disc}
    assert got == {1.2: 1, 3.2: 2, 5.2: 1}


def test_discrete_paths_agree(fixture_a, fixture_b):
    m = make_model((0, 1), (0, 1), ["1"], ["t+2"],
                   ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])
    for model in (fixture_a, fixture_b, m):
        d1 = discrete_spectrum(model, path=1)
        d2 = discrete_spectrum(model, path=2)
        assert len(d1) == len(d2)
        for (l1, m1), (l2, m2) in zip(d1, d2):
            assert abs(l1 - l2) < 1e-7
            assert m1 == m2


def test_discrete_respects_operator_norm_bound(fixture_a, fixture_b):
    for model in (fixture_a, fixture_b):
        for lam, _ in discrete_spectrum(model):
            assert abs(lam) <= model.bound + 1e-6


def test_discrete_scaling_coherence():
    base = make_model((0, 1), (0, 1),
                      ["legendre(0)", "legendre(1)"], ["0.7", "1.9"],
                      ["1"], ["1.1"])
    doubled = make_model((0, 1), (0, 1),
                         ["legendre(0)", "legendre(1)"], ["1.4", "3.8"],
                         ["1"], ["2.2"])
    d1 = discrete_spectrum(base)
    d2 = discrete_spectrum(doubled)
    assert len(d1) == len(d2) > 0
    for (l1, _), (l2, _) in zip(d1, d2):
        assert abs(2.0 * l1 - l2) < 1e-7


def test_random_constant_weight_models_match_sum_rule():
    """Constant weights: eigenvalue sums of the two channels, minus anything
    swallowed by the essential part."""
    rng = np.random.default_rng(7)
    basis = ["legendre(0)", "legendre(1)", "legendre(2)"]
    for trial in range(6):
        while True:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            a = np.round(rng.uniform(-4, 4, size=n), 3)
            b = np.round(rng.uniform(-4, 4, size=m), 3)
            excluded = set(np.concatenate([[0.0], a, b]).tolist())
            sums = sorted({round(float(ai + bj), 12) for ai in a for bj in b})
            expected = [s for s in sums if all(abs(s - e) > 0.08 for e in excluded)]
            flat = sorted(excluded) + sums
            ok = all(
                abs(u - v) > 0.08 or u == v
                for i, u in enumerate(flat)
                for v in flat[i + 1:]
            )
            if ok and expected:
                break
        model = make_model(
            (0, 1), (0, 1),
            basis[:n], [repr(float(v)) for v in a],
            basis[:m], [repr(float(v)) for v in b],
        )
        disc = discrete_spectrum(model)
        got = [lam for lam, _ in disc]
        assert len(got) == len(expected), (trial, got, expected)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-7


def test_root_search_batches_the_bisection(monkeypatch):
    calls = []
    counted = pio.spectrum.delta_batch

    def counting(model, lams, *args, **kwargs):
        calls.append(len(lams))
        return counted(model, lams, *args, **kwargs)

    monkeypatch.setattr(pio.spectrum, "delta_batch", counting)

    # oracle eigenvalues of this model at N = 100 (bench/refs.json)
    disc = sigma_full(ramp_model(4, 4)).discrete
    assert len(calls) <= 40
    assert np.allclose([lam for lam, _ in disc], [4.21049925, 4.55933721, 5.77136126], atol=1e-7)

    calls.clear()
    a = [1.5, -2.25, 3.125, -0.625]
    b = [2.75, -1.125, 0.875, -3.5]
    basis = [f"legendre({k})" for k in range(4)]
    model = make_model((0, 1), (0, 1), basis, [repr(v) for v in a], basis, [repr(v) for v in b])
    disc = sigma_full(model).discrete
    assert len(calls) <= 200
    expected = sorted(ai + bj for ai in a for bj in b)  # 16 distinct sums, none excluded
    assert [mult for _, mult in disc] == [1] * len(expected)
    assert max(abs(lam - e) for (lam, _), e in zip(disc, expected)) < 1e-8


# --- full report ---


def test_sigma_full_fixture_a(fixture_a):
    rep = sigma_full(fixture_a)
    assert rep.essential.points == (0.0, 2.0, 3.0)
    assert len(rep.discrete) == 1
    assert abs(rep.discrete[0][0] - 5.0) < 1e-8
    assert rep.bound == 5.0
    assert rep.settings["scan_points"] == 512
    # guard bands around 0, 2, 3 are reported, not silently skipped
    assert len(rep.unresolved) == 3
    assert any(lo < 2.0 < hi for lo, hi in rep.unresolved)


def test_sigma_full_settings_override(fixture_a):
    rep = sigma_full(fixture_a, scan_points=64, margin=0.5)
    assert rep.settings["scan_points"] == 64
    assert rep.settings["margin"] == 0.5
    assert any(lo < 2.0 and hi > 3.0 for lo, hi in rep.unresolved)


def test_sigma_full_as_dict_roundtrips(fixture_b):
    d = sigma_full(fixture_b).as_dict()
    assert d["essential"]["intervals"] == [[0.0, 1.0]]
    assert len(d["discrete"]) == 1
    assert set(d["settings"]) == {"margin", "scan_points", "root_tol", "rank_tol", "order"}


# --- eigenfunctions ---


def test_eigenfunction_fixture_a_constant(fixture_a):
    fam = eigenfunctions_T(fixture_a, 5.0)
    assert len(fam) == 1
    f = fam[0]
    assert abs(f.norm() - 1.0) < 1e-12
    assert np.allclose(f.values, 1.0, atol=1e-9)


def test_eigenfunction_residual_fixture_b(fixture_b):
    lam = discrete_spectrum(fixture_b)[0][0]
    fam = eigenfunctions_T(fixture_b, lam)
    assert len(fam) == 1
    f = fam[0]
    err = (apply_T(fixture_b, f) - lam * f).norm()
    assert err < 1e-8


def test_eigenfunction_family_orthonormal_double_root():
    m = make_model((0, 1), (0, 1),
                   ["legendre(0)", "legendre(1)"], ["1", "3"],
                   ["legendre(0)", "legendre(1)"], ["2.2", "0.2"])
    lam = 3.2
    fam = eigenfunctions_T(m, lam)
    assert len(fam) == 2
    for i, f in enumerate(fam):
        assert (apply_T(m, f) - lam * f).norm() < 1e-7
        for g in fam[i + 1:]:
            assert abs(f.inner(g)) < 1e-10
        assert abs(f.norm() - 1.0) < 1e-12


def test_eigenfunction_rejections(fixture_a):
    with pytest.raises(NotAnEigenvalue):
        eigenfunctions_T(fixture_a, 4.2)
    with pytest.raises(SpectrumHit):
        eigenfunctions_T(fixture_a, 2.0)


def test_atom_eigenfunction_fixture_c(fixture_c):
    f = atom_eigenfunction(fixture_c, 1, 1, 2.0)
    assert abs(f.norm() - 1.0) < 1e-12
    ys = fixture_c.rule_y.nodes
    expected = np.where(ys < 0.5, np.sqrt(2.0), 0.0)
    assert np.allclose(f.values, np.broadcast_to(expected, f.values.shape))
    err = (apply_T(fixture_c, f) - 2.0 * f).norm()
    assert err < 1e-12


def test_atom_eigenfunction_whole_interval(fixture_a):
    f = atom_eigenfunction(fixture_a, 1, 1, 2.0)
    assert np.allclose(f.values, 1.0)
    g = atom_eigenfunction(fixture_a, 2, 1, 3.0)
    assert np.allclose(g.values, 1.0)


def test_atom_eigenfunction_rejections(fixture_b, fixture_c):
    with pytest.raises(NoAtom):
        atom_eigenfunction(fixture_b, 1, 1, 0.5)
    with pytest.raises(IndexOutOfRange):
        atom_eigenfunction(fixture_c, 1, 2, 2.0)


# --- determinant trace ---


def test_delta_trace_golden_row(fixture_a):
    rows = delta_trace_rows(fixture_a, 3.5, 6.0, 6)
    assert len(rows) == 6
    lam, re, im, path = rows[1]
    assert lam == 4.0 and abs(re - 8.0) < 1e-9 and im == 0.0 and path == 1


def test_delta_trace_masks_guard_bands(fixture_a):
    rows = delta_trace_rows(fixture_a, 1.9, 2.1, 41)
    mid = [r for r in rows if abs(r[0] - 2.0) < 1e-12]
    assert mid and np.isnan(mid[0][1]) and np.isnan(mid[0][2])
    outer = [r for r in rows if abs(r[0] - 2.0) > 0.05]
    assert outer and all(np.isfinite(r[1]) for r in outer)


def test_delta_trace_path_column(fixture_b):
    rows = delta_trace_rows(fixture_b, 1.5, 2.0, 3, path=2)
    assert all(r[3] == 2 for r in rows)
