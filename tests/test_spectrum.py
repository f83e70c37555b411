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
import inspect
import re
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pio.spectrum
from pio.errors import (
    BadInterval,
    DomainError,
    IndexOutOfRange,
    NoAtom,
    NonUniqueSolution,
    NotAnEigenvalue,
    SpectrumHit,
    _numeric,
)
from pio.expr import parse_expr
from pio.model import SearchSettings, load_model_file, make_model, validate_model
from pio.operators import apply_partial, apply_T
from pio.pie import TauClass, classify_tau, residual, solve_pie
from pio.oracle import nystrom_matrix, oracle_eigs
from pio.spectrum import (
    _ROOT_TOL,
    _SPLIT,
    _SUBSCAN_POINTS,
    _count,
    _reduction_plan,
    _refine_roots,
    _search_region,
    _small_system,
    atom_eigenfunction,
    delta,
    delta_batch,
    delta_trace_rows,
    discrete_spectrum,
    eigenfunctions_T,
    essential_range,
    operator_margin,
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


GOLDEN_MODEL = Path(__file__).resolve().parent / "golden" / "legendre_trig_model.json"

# reference root of lam * log(lam/(lam-1)) = 2, independent of the package
ROOT_B = bisect_scalar(lambda lam: lam * np.log(lam / (lam - 1.0)) - 2.0, 1.2, 1.3)


# --- essential part ---


def test_essential_range_identity_map():
    er = essential_range(parse_expr("t"), (0.0, 1.0))
    assert er.intervals == ((0.0, 1.0),)
    assert er.atoms == ()
    # a bump of width about 3e-4 at 128/257, which a constancy check on a coarser
    # grid can miss; the 4,097 range samples reach to within 6e-4 of its top
    er = essential_range(parse_expr("2 + exp(-1e7*(t - 128/257)^2)"), (0.0, 1.0))
    assert er.atoms == ()
    (lo, hi), = er.intervals
    assert lo == 2.0 and 2.999 < hi < 3.0


def test_essential_range_constant_is_atom():
    er = essential_range(parse_expr("2"), (0.0, 1.0))
    assert er.intervals == ()
    assert er.atoms == ((2.0, 1.0),)
    # constant in value though not as a literal
    er = essential_range(parse_expr("sin(t)^2 + cos(t)^2"), (0.0, 1.0))
    assert er.intervals == ()
    assert er.atoms == ((1.0, 1.0),)
    # constant inside the piece but undefined at its end: the range samples hold
    # the end points, so the end's DomainError is raised, as a model's is
    with pytest.raises(DomainError):
        essential_range(parse_expr("t/t"), (0.0, 1.0))


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


@pytest.mark.parametrize("interval", [(1.0, 0.0), (0.5, 0.5), (0.0, np.nan), (0.0, np.inf)])
@pytest.mark.parametrize("source", ["2", "t"])
def test_essential_range_refuses_a_bad_interval(interval, source):
    # (1, 0) gave the atom (2.0, -1.0) and (0.5, 0.5) a zero-measure atom; as in build_rule
    lo, hi = (float(v) for v in interval)
    message = f"need finite lo < hi, got [{lo!r}, {hi!r}]" if np.isfinite(hi) else f"interval {hi!r} is not finite"
    with pytest.raises(BadInterval, match=f"^{re.escape(message)}$"):
        essential_range(parse_expr(source), interval)


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
    assert sb.distance(0.3) == 0.0 and sb.distance(1.2) > 0.0


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
    assert pm.shape == (1, 1)
    assert abs(pm[0, 0] - 12.0) < 1e-10
    assert abs(pi_matrix(fixture_a, 10.0)[0, 0] - 60.0 / 56.0) < 1e-12


def test_pi_matrix_fixture_b(fixture_b):
    val = pi_matrix(fixture_b, 2.0)[0, 0]
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
    assert np.allclose(pi_matrix(fixture_c, 1.0), 0.0)


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
    # an empty batch is an empty result (it raised ValueError from a reshape)
    assert delta_batch(fixture_a, np.empty(0)).shape == (0,)


def sumrule_model(a, b):
    """Legendre bases, constant weights: the eigenvalues are the sums ``a_i + b_j``."""
    basis = [f"legendre({k})" for k in range(max(len(a), len(b)))]
    return make_model((0, 1), (0, 1), basis[:len(a)], [repr(v) for v in a],
                      basis[:len(b)], [repr(v) for v in b])


SUMRULE_4 = ([1.5, -2.25, 3.125, -0.625], [2.75, -1.125, 0.875, -3.5])


@pytest.mark.parametrize("name", ["ramp-8", "sumrule-4", "ramp-3x1", "ramp-1x3"])
@pytest.mark.parametrize("path", [1, 2])
def test_delta_batch_is_the_determinant_of_pi_minus_lambda(name, path):
    # delta_batch evaluates lam^(mn) det(K N - I); the definition is det(Pi - lam I)
    model = {
        "ramp-8": lambda: ramp_model(8, 8),
        "sumrule-4": lambda: sumrule_model(*SUMRULE_4),
        "ramp-3x1": lambda: ramp_model(3, 1),
        "ramp-1x3": lambda: ramp_model(1, 3),
    }[name]()
    view = model if path == 1 else model.mirrored()
    top = model.bound
    for lams in (np.array([-top - 0.9, -0.7, top + 0.5]), np.array([0.5 * top + 0.3j, 0.2 - 0.4j])):
        got = delta_batch(view, lams)
        assert got.dtype == lams.dtype
        for lam, value in zip(lams, got):
            entries = pi_matrix(view, lam)
            ref = np.linalg.det(entries - lam * np.eye(len(entries)))
            assert abs(value - ref) <= 1e-12 * abs(ref)


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
    # pairs flatten row-major on each path: (k, j) -> k*n + j on path 1 and
    # (j, k) -> j*m + k on path 2 (0-based), where Pi_2[(j,k), (p,q)] = Pi_1[(q,p), (k,j)]
    m = make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["t+2", "t"],
                   ["legendre(0)", "legendre(1)", "legendre(2)"], ["t+4", "t/2", "2*t"])
    one, two = pi_matrix(m, 9.0), pi_matrix(m.mirrored(), 9.0)
    assert one.shape == two.shape == (6, 6)
    swap = [k * m.n + j for j in range(m.n) for k in range(m.m)]
    assert np.abs(two - one[np.ix_(swap, swap)].T).max() <= 1e-14 * np.abs(one).max()


def ramp_model(n, m):
    """Legendre bases, weights (k+1)*t in channel 1 and (k+1)*t^2 in channel 2."""
    return make_model((0, 1), (0, 1),
                      [f"legendre({k})" for k in range(n)], [f"{k + 1}*t" for k in range(n)],
                      [f"legendre({k})" for k in range(m)], [f"{k + 1}*t^2" for k in range(m)])


def path_arrays(model, path):
    """``Phi, H, Psi, P, wx, wy`` of one path, axes in that path's order."""
    if path == 1:
        return (model.phi_x, model.h_y, model.psi_y, model.p_x,
                model.rule_x.weights, model.rule_y.weights)
    return (model.psi_y, model.p_x, model.phi_x, model.h_y,
            model.rule_y.weights, model.rule_x.weights)


def pi_reference(model, lams, path):
    """``Pi(lam)`` contracted term by term from the cross-integral definition.

    Written independently of the library's reduction plan: each factor of
    ``<F_(k,j), B_(q,p)>`` is its own einsum over the quadrature nodes.
    """
    Phi, H, Psi, P, wx, wy = path_arrays(model, path)
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


def fb_reference(model, lam, path):
    """``F_w`` and ``B_w`` sampled on the grid, shape (m*n, Nx, Ny).

    The dense formula of the factor functions in the ``spectrum`` module
    docstring, one einsum per term; the grid axes follow the path.
    """
    Phi, H, Psi, P, _, wy = path_arrays(model, path)
    HF = H / (lam - H)
    PF = P / (lam - P)
    Y1 = np.einsum("y,ky,jy,iy->kji", wy, Psi, HF, Psi)
    term1 = np.einsum("jx,ky,jy->kjxy", Phi, Psi, HF)
    term2 = np.einsum("jx,ix,iy,kji->kjxy", Phi, PF, Psi, Y1)
    size = Phi.shape[0] * Psi.shape[0]
    F = (term1 + term2).reshape(size, Phi.shape[1], Psi.shape[1])
    B = np.einsum("kx,jx,ky->kjxy", P, Phi, Psi).reshape(F.shape)
    return F, B


PLAN_SHAPES = [(1, 1), (2, 2), (4, 4), (8, 8), (2, 3), (3, 1)]


@pytest.mark.parametrize("n,m", PLAN_SHAPES)
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
        view = model if path == 1 else model.mirrored()
        got = np.stack([pi_matrix(view, lam) for lam in lams])
        ref = pi_reference(model, lams, path)
        assert got.shape == ref.shape == (len(lams), n * m, n * m)
        assert got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # the small system at tau = 1/lam: I - tau Pi^T
        got = np.stack([_small_system(view, lam)[1] for lam in lams])
        ref = np.eye(n * m) - ref.transpose(0, 2, 1) / lams[:, None, None]
        assert got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n,m", PLAN_SHAPES)
@pytest.mark.parametrize("path", [1, 2])
def test_moments_and_synthesis_match_reference(n, m, path):
    model = ramp_model(n, m)
    view = model if path == 1 else model.mirrored()
    plan = _reduction_plan(view)
    _, _, _, _, wx, wy = path_arrays(model, path)
    rng = np.random.default_rng(10 * n + m)
    top = model.bound
    for lam in (top + 0.5, -0.7, top + 2.0, 0.5 * top + 0.3j, 0.2 - 0.4j):
        F, B = fb_reference(model, lam, path)
        u = rng.standard_normal(F.shape[1:])
        c = rng.standard_normal(n * m)
        if np.iscomplexobj(lam):
            u = u + 1j * rng.standard_normal(u.shape)
            c = c + 1j * rng.standard_normal(c.shape)
        for got, ref in (
            (plan.moments(u), np.einsum("wxy,x,y,xy->w", B, wx, wy, u)),
            (plan.synthesize(plan.families(np.array([lam])), c), np.einsum("w,wxy->xy", c, F)),
        ):
            assert got.shape == ref.shape
            assert got.dtype == ref.dtype
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_reduction_plan_built_once_per_model_and_path():
    model = ramp_model(2, 3)
    pi_matrix(model, 5.0)
    plan = _reduction_plan(model)
    pi_matrix(model, 6.0)
    delta(model, 5.5)
    discrete_spectrum(model.mirrored())
    assert _reduction_plan(model) is plan
    assert _reduction_plan(model.mirrored()) is not plan
    assert _reduction_plan(ramp_model(2, 3)) is not plan


def test_per_model_caches_do_not_pin_the_model():
    model = ramp_model(2, 2)
    sigma_full(model)
    discrete_spectrum(model.mirrored())
    solve_pie(model, -0.5, model.constant_grid(1.0))
    assert sigma_ess(model) is sigma_ess(model)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def atom_in_interval_model():
    # channel-1 weights t and 0.5: the atom 0.5 lies inside the range [0, 1] of t
    return make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["t", "0.5"], ["1"], ["0"])


def test_every_atom_value_is_a_point_or_in_an_interval(fixture_a, fixture_b, fixture_c):
    # so a set's distances read its points and intervals alone, and _members lists each value once
    models = (fixture_a, fixture_b, fixture_c, load_model_file(str(GOLDEN_MODEL)),
              sumrule_model(*SUMRULE_4), atom_in_interval_model())
    for model in models:
        ranges = [essential_range(w, model.y_interval) for w in model.channel1.weights]
        ranges += [essential_range(w, model.x_interval) for w in model.channel2.weights]
        for spectral_set in (sigma_ess(model), sigma_channel(model, 1), sigma_channel(model, 2), *ranges):
            for value, _ in spectral_set.atoms:
                assert value in spectral_set.points or any(
                    lo <= value <= hi for lo, hi in spectral_set.intervals), (spectral_set, value)
            rows = spectral_set._members.tolist()
            assert len(rows) == len({tuple(row) for row in rows}), spectral_set
    ess = sigma_ess(models[-1])
    assert (0.5, 1.0) in ess.atoms and ess.intervals == ((0.0, 1.0),) and ess.points == ()


def test_spectral_set_distances_match_scalar(fixture_a, fixture_b, fixture_c):
    # fixture c's atoms 2 and 4 are also its points; sumrule-4 has eight atoms; the last
    # model's atom 0.5 lies inside its interval [0, 1]
    lams = np.array([-1.0, 0.0, 0.5, 1.5, 2.0, 2.4, 3.0, 7.0, np.nan])
    sets = (fixture_a, fixture_b, fixture_c, sumrule_model(*SUMRULE_4), atom_in_interval_model())
    for ess in map(sigma_ess, sets):
        for values in (lams, lams + 0.25j, lams - 3.0j):
            got = ess.distances(values)
            assert got.shape == values.shape
            assert np.isnan(got[-1])
            np.testing.assert_array_equal(got, [ess.distance(v) for v in values])


# --- left factor functions ---
# (the synthesis of a unit coefficient vector is the factor function itself)


def test_factor_function_fixture_a(fixture_a):
    plan = _reduction_plan(fixture_a)
    F = plan.synthesize(plan.families(np.array([4.0])), np.array([1.0]))
    assert F.shape == (len(fixture_a.rule_x), len(fixture_a.rule_y))
    assert np.allclose(F, 4.0, atol=1e-12)


def test_factor_function_fixture_b(fixture_b):
    # F(x, y; 2) = y/(2-y) + x/(2-x) * (2 log 2 - 1), at the grid nodes
    plan = _reduction_plan(fixture_b)
    F = plan.synthesize(plan.families(np.array([2.0])), np.array([1.0]))
    x = fixture_b.rule_x.nodes[:, None]
    y = fixture_b.rule_y.nodes[None, :]
    c = 2.0 * np.log(2.0) - 1.0
    assert np.abs(F - (y / (2.0 - y) + x / (2.0 - x) * c)).max() < 1e-9


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
        d1 = discrete_spectrum(model)
        d2 = discrete_spectrum(model.mirrored())
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


def fresh_fixture_a():
    """The session's ``fixture_a`` built anew, with no root search kept on it yet."""
    return make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"])


@pytest.fixture
def delta_batch_calls(monkeypatch):
    """The number of parameters of each ``delta_batch`` call the search makes."""
    calls = []
    counted = pio.spectrum.delta_batch

    def counting(model, lams, *args, **kwargs):
        calls.append(len(lams))
        return counted(model, lams, *args, **kwargs)

    monkeypatch.setattr(pio.spectrum, "delta_batch", counting)
    return calls


def test_root_search_batches_the_bisection(delta_batch_calls):
    calls = delta_batch_calls

    # oracle eigenvalues of this model at N = 100 (bench/refs.json)
    disc = sigma_full(ramp_model(4, 4)).discrete
    assert len(calls) <= 40
    assert np.allclose([lam for lam, _ in disc], [4.21049925, 4.55933721, 5.77136126], atol=1e-7)

    calls.clear()
    a, b = SUMRULE_4
    disc = sigma_full(sumrule_model(a, b)).discrete
    assert len(calls) <= 200
    expected = sorted(ai + bj for ai in a for bj in b)  # 16 distinct sums, none excluded
    assert [mult for _, mult in disc] == [1] * len(expected)
    assert max(abs(lam - e) for (lam, _), e in zip(disc, expected)) < 1e-8


def test_root_search_call_budget(delta_batch_calls):
    # delta_batch calls per sigma_full: one for the sub-scan of the pieces at a
    # gap end, then one per refinement step of det X; bisection took 30, 29 and
    # 151 here, and refining lam^(mn) det X took 6, 6 and 32 (on sumrule-4,
    # lam^16 varies 7.3x across the bracket (0.4497, 0.5094), and ITP ended in
    # bisection).  Fresh models: the search is kept on the model, and a kept one
    # makes no call at all
    for model, budget in ((fresh_fixture_a(), 7), (ramp_model(4, 4), 8), (sumrule_model(*SUMRULE_4), 14)):
        delta_batch_calls.clear()
        sigma_full(model)
        assert 0 < len(delta_batch_calls) <= budget


def test_root_search_parameter_budget(delta_batch_calls):
    # determinant parameters per sigma_full on fresh models: only the pieces with
    # an end at a gap end are sub-scanned (8 points), the ones between split
    # points are refined from their count values at once; sub-scanning every
    # piece took 82 on ramp-8 and 230 on sumrule-4
    for model, budget in ((ramp_model(8, 8), 55), (sumrule_model(*SUMRULE_4), 200)):
        delta_batch_calls.clear()
        sigma_full(model)
        assert 0 < sum(delta_batch_calls) <= budget


def legendre_model(weights1, weights2):
    """Legendre bases on the unit square, with the given weights in each channel."""
    return make_model((0, 1), (0, 1), [f"legendre({k})" for k in range(len(weights1))], weights1,
                      [f"legendre({k})" for k in range(len(weights2))], weights2)


# weights of models with negative roots and odd mn, where lam^(mn) < 0 on every gap
# below 0, and the reference roots: closed forms, or None for the oracle on the search's
# own order-32 grid (which matches the search's roots to about 2.5e-11)
ODD_NEGATIVE = {
    "fixture a negated": (["-2"], ["-3"], [-5.0]),
    "sum rule 1x3": (["1.5"], ["-2.25", "0.875", "-3.5"], [-2.0, -0.75, 2.375]),
    "ramp 3x3 negated": ([f"-{k}*t" for k in (1, 2, 3)], [f"-{k}*t^2" for k in (1, 2, 3)], None),
}


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("path", [1, 2])
@pytest.mark.parametrize("name", list(ODD_NEGATIVE))
def test_negative_roots_of_an_odd_rank_product(name, path, swap):
    # the search refines det X = delta / lam^(mn); for odd mn, lam^(mn) is negative
    # below 0, which flips the sign at both ends of a bracket alike: the brackets
    # stay, on both paths and with the channels swapped
    weights1, weights2, expected = ODD_NEGATIVE[name]
    model = legendre_model(*((weights2, weights1) if swap else (weights1, weights2)))
    assert model.n * model.m % 2 == 1
    view = model if path == 1 else model.mirrored()
    if expected is None:
        eigs = oracle_eigs(nystrom_matrix(view, 32, 32))
        expected = sorted(e for e in eigs.tolist() if any(lo < e < hi for lo, hi in search_gaps(view)))
    assert min(expected) < 0
    disc = sigma_full(view).discrete
    assert [mult for _, mult in disc] == [1] * len(expected)
    assert max(abs(lam - e) for (lam, _), e in zip(disc, expected)) < 1e-9


# --- the slicing count ---


def double_root_model():
    """Constant weights 1, 3 and 2.2, 0.2: the sum 3.2 comes from two pairs."""
    return make_model((0, 1), (0, 1),
                      ["legendre(0)", "legendre(1)"], ["1", "3"],
                      ["legendre(0)", "legendre(1)"], ["2.2", "0.2"])


def search_gaps(model):
    _, gaps, _ = _search_region(model)
    return gaps


def gap_counts(model):
    """``|nu(b) - nu(a)|`` on each search gap ``(a, b)`` of the model."""
    gaps = search_gaps(model)
    nu, _ = _count(model, gaps.ravel())
    return gaps, np.abs(nu.reshape(-1, 2) @ [-1, 1]).tolist()


@pytest.mark.parametrize("name", ["fixture-b", "ramp-4"])
def test_gap_counts_equal_the_oracle_counts(name, fixture_b):
    model = fixture_b if name == "fixture-b" else ramp_model(4, 4)
    eigs = oracle_eigs(nystrom_matrix(model, 100, 100))
    gaps, counts = gap_counts(model)
    assert counts == [int(np.sum((eigs > a) & (eigs < b))) for a, b in gaps]
    assert sum(counts) == (1 if name == "fixture-b" else 3)


def test_gap_counts_equal_the_sum_rule():
    # weights on a 0.25 grid, so sums coincide (a multiple eigenvalue counts
    # once per pair) and a sum is either an essential point or 0.25 from it
    rng = np.random.default_rng(11)
    models = [double_root_model(), sumrule_model(*SUMRULE_4)]
    for _ in range(12):
        a = rng.integers(-12, 13, size=rng.integers(1, 5)) / 4.0
        b = rng.integers(-12, 13, size=rng.integers(1, 5)) / 4.0
        models.append(sumrule_model(a.tolist(), b.tolist()))
    coincident = 0
    for model in models:
        a = [float(w.source) for w in model.channel1.weights]
        b = [float(w.source) for w in model.channel2.weights]
        sums = [ai + bj for ai in a for bj in b]
        coincident += len(sums) - len(set(sums))
        gaps, counts = gap_counts(model)
        assert counts == [sum(lo < s < hi for s in sums) for lo, hi in gaps], (a, b)
    assert coincident >= 5


@pytest.mark.parametrize("name", ["fixture-a", "fixture-b", "ramp-2", "ramp-4", "sumrule-4",
                                  "double root"])
def test_slicing_count_is_monotone_across_every_gap(name, fixture_a, fixture_b):
    # nu rises across eigenvalues lam > 0 and falls across lam < 0
    model = {
        "fixture-a": lambda: fixture_a,
        "fixture-b": lambda: fixture_b,
        "ramp-2": lambda: ramp_model(2, 2),
        "ramp-4": lambda: ramp_model(4, 4),
        "sumrule-4": lambda: sumrule_model(*SUMRULE_4),
        "double root": double_root_model,
    }[name]()
    for lo, hi in search_gaps(model):
        nu, _ = _count(model, np.linspace(lo, hi, 400))
        steps = np.diff(nu) if lo > 0 else -np.diff(nu)
        assert steps.min() >= 0, (lo, hi)


@pytest.mark.parametrize("scan_points", [2, 8, 512])
def test_scan_points_do_not_change_what_is_found(scan_points):
    # ramp-4 with scan_points=8 lost 4.2105 and 4.5593 to the scan it had;
    # the reference is the oracle at N = 100 (bench/refs.json)
    model = ramp_model(4, 4)
    report = sigma_full(replace(model, search=replace(model.search, scan_points=scan_points)))
    assert report.settings["scan_points"] == scan_points
    assert [mult for _, mult in report.discrete] == [1, 1, 1]
    assert np.allclose([lam for lam, _ in report.discrete], [4.21049925, 4.55933721, 5.77136126],
                       atol=1e-7)


def test_multiple_eigenvalue_at_a_gap_midpoint_keeps_its_multiplicity():
    # 0.5 = -1.25 + 1.75 twice is the midpoint of the gap (0, 1): a split
    # there gave its count half to each side, and so 0.5 twice as simple
    model = sumrule_model([-0.375, -1.25], [1.75, 1.75, 1.0])
    got = {round(lam, 9): mult for lam, mult in discrete_spectrum(model)}
    assert got == {-0.25: 1, 0.5: 2, 0.625: 1, 1.375: 2}


@pytest.fixture
def pivots(monkeypatch):
    """The routes ``pio.spectrum._count`` took, one ``{"N": a, "X": b}`` per call
    (the search's calls too), read from the ``eigvalsh`` calls it made: ``a``
    parameters counted on the Schur complement of ``N~`` (size ``mn``) and ``b``
    on the full slicing matrix ``X`` (size ``2mn``)."""
    routes, shapes = [], []
    counted, eigvalsh = pio.spectrum._count, np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def counting(model, lams):
        shapes.clear()
        result = counted(model, lams)
        mn = len(model.phi_x) * len(model.psi_y)
        taken = {"N": 0, "X": 0}
        for *batch, size, _ in shapes:
            taken[{mn: "N", 2 * mn: "X"}[size]] += int(np.prod(batch))
        routes.append(taken)
        return result

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(pio.spectrum, "_count", counting)
    return routes


@pytest.mark.parametrize("path", [1, 2])
def test_a_zero_channel_counts_on_the_full_slicing_matrix(path, fixture_c, pivots):
    # fixture c switches channel 2 off, so N~ = 0 and path 1 counts on the full
    # X; the mirror's N~ is path 1's K~, which pivots.  Closed form: X = [[K~, 1],
    # [1, 0]] has det -1 and one negative eigenvalue at every parameter, so nu = 1
    # and no gap holds an eigenvalue
    view = fixture_c if path == 1 else fixture_c.mirrored()
    lams = search_gaps(view).ravel()
    nu, vals = pio.spectrum._count(view, lams)
    assert pivots == [{"N": 0, "X": len(lams)} if path == 1 else {"N": len(lams), "X": 0}]
    assert nu.tolist() == [1] * len(lams)
    assert np.allclose(vals, -1.0, rtol=1e-12, atol=0.0)
    assert gap_counts(view)[1] == [0] * len(search_gaps(view))


@pytest.mark.parametrize("path", [1, 2])
def test_the_zero_model_counts_on_the_full_slicing_matrix(path, pivots):
    # both families vanish, so neither pivots.  Closed form: X = [[0, I], [I, 0]]
    # has the eigenvalues +-1, mn of each, so nu = mn = 4 and det X = 1
    model = make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["0", "0"],
                       ["legendre(0)", "legendre(1)"], ["0", "0"])
    view = model if path == 1 else model.mirrored()
    lams = search_gaps(view).ravel()
    nu, vals = pio.spectrum._count(view, lams)
    assert pivots == [{"N": 0, "X": len(lams)}]
    assert nu.tolist() == [4] * len(lams)
    assert np.allclose(vals, 1.0, rtol=1e-12, atol=0.0)
    assert discrete_spectrum(view) == ()


@pytest.mark.parametrize("path", [1, 2])
def test_a_zero_weight_searches_on_the_full_slicing_matrix(path, pivots):
    # ramp-4 with channel-2 member 1's weight 0: N_1 = 0, so every count of the
    # path-1 search takes the full X with K~ != 0; the mirror's N~ is path 1's
    # K~, which pivots.  The reference is the oracle at N = 100
    model = make_model((0, 1), (0, 1),
                       [f"legendre({k})" for k in range(4)], [f"{k + 1}*t" for k in range(4)],
                       [f"legendre({k})" for k in range(4)], ["0", "2*t^2", "3*t^2", "4*t^2"])
    view = model if path == 1 else model.mirrored()
    eigs = oracle_eigs(nystrom_matrix(model, 100, 100))
    gaps, counts = gap_counts(view)
    assert counts == [int(np.sum((eigs > a) & (eigs < b))) for a, b in gaps] == [0, 3]
    pivots.clear()
    got = discrete_spectrum(view)
    assert pivots and all(call["N" if path == 1 else "X"] == 0 for call in pivots)
    expected = sorted(e for e in eigs.tolist() if any(lo < e < hi for lo, hi in gaps))
    assert [mult for _, mult in got] == [1] * len(expected)
    assert max(abs(lam - e) for (lam, _), e in zip(got, expected)) < 1e-8


def sign_change_model():
    """Channel-2 weights ``t - 0.3`` and ``2t - 0.5`` change sign, and an
    eigenvalue of ``N_2`` crosses zero near 2.26, between the eigenvalues
    2.2167 and 2.5676 of the gap (2, 5.5)."""
    basis = ["legendre(0)", "legendre(1)"]
    return make_model((0, 1), (0, 1), basis, ["2", "-3"], basis, ["t - 0.3", "2*t - 0.5"])


@pytest.mark.parametrize("path", [1, 2])
def test_a_singular_pivot_block_counts_on_the_full_slicing_matrix(path, pivots):
    model = sign_change_model()
    view = model if path == 1 else model.mirrored()
    plan = _reduction_plan(model)

    def nearest_zero(lam):  # the eigenvalue of the blocks N_q nearest zero
        d = np.linalg.eigvalsh(plan.families(np.array([lam]))[3]).ravel()
        return d[np.argmin(np.abs(d))]

    lo, hi = 2.2, 2.3
    assert nearest_zero(lo) * nearest_zero(hi) < 0
    for _ in range(60):  # bisection to the crossing, where N~ is singular to roundoff
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if nearest_zero(mid) * nearest_zero(lo) > 0 else (lo, mid)
    crossing = 0.5 * (lo + hi)
    eigs = oracle_eigs(nystrom_matrix(model, 100, 100))
    gaps, counts = gap_counts(view)
    assert counts == [int(np.sum((eigs > a) & (eigs < b))) for a, b in gaps]
    (start, _), = [(a, b) for a, b in gaps if a < crossing < b]
    pivots.clear()
    nu = [pio.spectrum._count(view, np.array([lam]))[0][0] for lam in (start, crossing)]
    assert pivots == [{"N": 1, "X": 0}, {"N": 0, "X": 1} if path == 1 else {"N": 1, "X": 0}]
    assert abs(nu[1] - nu[0]) == np.sum((eigs > start) & (eigs < crossing)) == 1


@pytest.mark.parametrize("path", [1, 2])
def test_the_sum_rule_at_rank_12_keeps_every_multiplicity(path):
    # a_k = 1 + k/4, b_k = -0.97 - k/4: the eigenvalue 0.03 + k/4 has
    # multiplicity 12 - |k|; the sums -0.97 - ... lie on b and are essential
    a = [1.0 + k / 4 for k in range(12)]
    b = [-0.97 - k / 4 for k in range(12)]
    model = sumrule_model(a, b)
    view = model if path == 1 else model.mirrored()
    margin, _, _ = _search_region(view)
    expected = [(0.03 + k / 4, 12 - abs(k)) for k in range(-11, 12)]
    expected = [(s, mult) for s, mult in expected if all(abs(s - e) > margin for e in [0.0, *a, *b])]
    got = discrete_spectrum(view)
    assert len(got) == len(expected) == 15
    assert [mult for _, mult in got] == [mult for _, mult in expected]
    assert max(abs(lam - s) for (lam, _), (s, _) in zip(got, expected)) <= pio.spectrum._ROOT_TOL


@pytest.fixture(scope="module")
def ramp_12():
    """ramp-12 at order 64, and its oracle eigenvalues at N = 100.  At the default
    order 32 the lowest root is 4.5e-6 from the oracle: the quadrature error near
    the essential range [0, 12]."""
    n = 12
    model = make_model((0, 1), (0, 1),
                       [f"legendre({k})" for k in range(n)], [f"{k + 1}*t" for k in range(n)],
                       [f"legendre({k})" for k in range(n)], [f"{k + 1}*t^2" for k in range(n)],
                       order=64)
    return model, oracle_eigs(nystrom_matrix(model, 100, 100))


@pytest.mark.parametrize("path", [1, 2])
def test_ramp_12_matches_the_oracle(path, ramp_12):
    model, eigs = ramp_12
    view = model if path == 1 else model.mirrored()
    expected = sorted(e for e in eigs.tolist() if any(lo < e < hi for lo, hi in search_gaps(view)))
    got = discrete_spectrum(view)
    assert len(expected) == 14
    assert [mult for _, mult in got] == [1] * len(expected)
    assert max(abs(lam - e) for (lam, _), e in zip(got, expected)) < 1e-9


@pytest.mark.parametrize("path", [1, 2])
def test_ramp_16_roots_where_the_determinant_overflows(path):
    # above lam ~ 16, lam^256 overflows, so delta_batch's values are +-inf, with
    # overflow warnings (ROADMAP item 3); the count gives det X itself and warns
    # nowhere.  The search divides delta by lam^(mn) with lam's exponent taken
    # apart (frexp), so an infinite delta stays an infinite det X of its sign and
    # the refinement bisects on signs; inf / inf would be NaN, lose the brackets
    # and put the roots up to 1.9 off.  The oracle on the search's own order-32
    # grid matches the roots to about 5e-11
    model = ramp_model(16, 16)
    view = model if path == 1 else model.mirrored()
    eigs = oracle_eigs(nystrom_matrix(view, 32, 32))
    expected = sorted(e for e in eigs.tolist() if any(lo < e < hi for lo, hi in search_gaps(view)))
    with pytest.warns(RuntimeWarning, match="^overflow encountered in") as record:
        got = discrete_spectrum(view)
    # every warning is delta_batch's lam^(mn)
    assert {str(w.message) for w in record} == {"overflow encountered in power"}
    assert len(expected) == 23
    assert [mult for _, mult in got] == [1] * len(expected)
    assert max(abs(lam - e) for (lam, _), e in zip(got, expected)) < 1e-9


@pytest.mark.parametrize("path", [1, 2])
def test_the_count_gives_det_x_in_range_where_delta_overflows(path):
    # ramp-16 at its gap ends, as the search counts there first: lam^256 overflows
    # at 33, and det X = det(K N - I) is checked against an LU slogdet of K N - I
    model = ramp_model(16, 16)
    view = model if path == 1 else model.mirrored()
    lams = search_gaps(view).ravel()
    assert 256 * np.log2(lams.max()) > 1024
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nu, vals = _count(view, lams)
    _, kn = _reduction_plan(view).coupling(lams)
    sign, logdet = np.linalg.slogdet(kn - np.eye(kn.shape[1]))
    assert np.all(np.isfinite(vals)) and np.all(vals != 0.0)
    assert np.array_equal(np.sign(vals), (-1.0) ** nu)
    assert np.allclose(vals, sign * np.exp(logdet), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("path", [1, 2])
def test_a_uniformly_small_pivot_keeps_the_count_value_in_range(path, pivots):
    # ramp-8 with channel-2 weights 1e-6 (k+1) t^2: N~ still pivots (the rule is
    # relative), but its 64 eigenvalues are about 1e-6, so det N~ alone is about
    # 1e-384 and underflows; det X is far inside the float range.
    # A zero at a gap end would be taken for a root there.  Path 2 pivots on its
    # own N~, which is path 1's K~, of size about 1
    model = make_model((0, 1), (0, 1),
                       [f"legendre({k})" for k in range(8)], [f"{k + 1}*t" for k in range(8)],
                       [f"legendre({k})" for k in range(8)], [f"{(k + 1) * 1e-6!r}*t^2" for k in range(8)])
    view = model if path == 1 else model.mirrored()
    lams = search_gaps(view).ravel()
    nu, vals = pio.spectrum._count(view, lams)
    assert pivots == [{"N": len(lams), "X": 0}]
    assert np.all(vals != 0.0)
    assert np.allclose(vals, delta_batch(view, lams) / lams**64, rtol=1e-9, atol=0.0)
    eigs = oracle_eigs(nystrom_matrix(model, 100, 100))
    gaps, counts = gap_counts(view)
    assert counts == [int(np.sum((eigs > a) & (eigs < b))) for a, b in gaps] == [0] * len(gaps)
    assert discrete_spectrum(view) == ()


def test_the_search_evaluators_refuse_a_non_finite_parameter(fixture_b, monkeypatch):
    # delta_batch converts its parameters by the numeric rule; the count admits and
    # converts nothing, and the search calls it at finite parameters only
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match=f"^lambda {bad!r} is not finite$"):
            delta_batch(fixture_b, np.array([1.5, bad]))
    counted = []
    monkeypatch.setattr(pio.spectrum, "_count", lambda model, lams: counted.append(lams) or _count(model, lams))
    discrete_spectrum(replace(fixture_b))
    assert counted and all(np.isfinite(lams).all() for lams in counted)


RANK_RULE_MODELS = {
    "sumrule-4": lambda: sumrule_model(*SUMRULE_4),
    "ramp-4": lambda: ramp_model(4, 4),
    "ramp-8": lambda: ramp_model(8, 8),
    "double root": double_root_model,
    "midpoint double roots": lambda: sumrule_model([-0.375, -1.25], [1.75, 1.75, 1.0]),
}


@pytest.mark.parametrize("path", [1, 2])
@pytest.mark.parametrize("name", list(RANK_RULE_MODELS))
def test_rank_rule_agrees_with_the_slicing_count(name, path):
    # Two rules decide "is lam an eigenvalue, and of what multiplicity": the
    # slicing count of sigma_full and the rank rule of the small system.  A
    # count-based decision must keep what they agree on: EIGEN at every root
    # with the certified multiplicity, REGULAR halfway between adjacent roots
    # of one gap (between gaps the midpoint may be an essential point).
    model = RANK_RULE_MODELS[name]()
    view = model if path == 1 else model.mirrored()
    disc = sigma_full(view).discrete
    for lam, mult in disc:
        assert classify_tau(view, 1.0 / lam) is TauClass.EIGEN, lam
        assert len(eigenfunctions_T(view, lam)) == mult, lam
    gaps = search_gaps(view)
    pairs = [(a, b) for (a, _), (b, _) in zip(disc, disc[1:])
             if any(lo < a and b < hi for lo, hi in gaps)]
    assert pairs
    for a, b in pairs:
        assert classify_tau(view, 2.0 / (a + b)) is TauClass.REGULAR, (a, b)


@pytest.mark.parametrize("path", [1, 2])
@pytest.mark.parametrize("name", ["fixture-a", "fixture-b", "ramp-4", "ramp-8"])
def test_eigen_window_is_the_operator_margin(name, path, fixture_a, fixture_b):
    # EIGEN within the operator margin om of every certified root, REGULAR at
    # twice that, where the ill-conditioned but regular equation is solved
    model = {"fixture-a": fixture_a, "fixture-b": fixture_b,
             "ramp-4": ramp_model(4, 4), "ramp-8": ramp_model(8, 8)}[name]
    view = model if path == 1 else model.mirrored()
    om = operator_margin(view)
    g = view.grid(lambda x, y: 1.0 + x * y)
    for r, _ in sigma_full(view).discrete:
        for side in (-1.0, 1.0):
            assert classify_tau(view, 1.0 / (r + side * 0.5 * om)) is TauClass.EIGEN, (r, side)
            tau = 1.0 / (r + side * 2.0 * om)
            assert classify_tau(view, tau) is TauClass.REGULAR, (r, side)
            f = solve_pie(view, tau, g)
            assert residual(view, tau, f, g) <= 1e-12 * (f.norm() + g.norm()), (r, side)


def test_eigenvalues_in_an_unresolved_band_are_counted_directly(fixture_b):
    # with margin 0.3 the root of model B lies in the band (-0.3, 1.3) that the
    # search leaves unresolved; the slicing count around it still decides
    model = replace(fixture_b, search=SearchSettings(margin=0.3))
    om = operator_margin(model)
    assert sigma_full(model).discrete == ()
    assert any(lo < ROOT_B < hi for lo, hi in sigma_full(model).unresolved)
    assert classify_tau(model, 1.0 / ROOT_B) is TauClass.EIGEN
    f, = eigenfunctions_T(model, ROOT_B)
    assert (apply_T(model, f) - ROOT_B * f).norm() < 1e-7
    assert classify_tau(model, 1.0 / (ROOT_B + 2.0 * om)) is TauClass.REGULAR
    assert classify_tau(model, 1.0 / 1.1) is TauClass.REGULAR
    # off the real axis: no eigenvalue, and no count at a real part that the
    # essential set's margin refuses (1 is the top of [0, 1])
    assert classify_tau(model, 1.0 / (ROOT_B + 2j * om)) is TauClass.REGULAR
    assert classify_tau(model, 1.0 / (1.0 + 0.8 * om * (1 + 1j))) is TauClass.REGULAR


def test_a_root_just_inside_a_band_is_counted_from_the_gap(fixture_b):
    # the band ends 0.3 om above the root of model B, and lam lies 0.3 om
    # above that, in the searched gap: the root is within om of lam, though
    # the roots of the search do not hold it
    om = operator_margin(fixture_b)
    model = replace(fixture_b, search=SearchSettings(margin=ROOT_B - 1.0 + 0.3 * om))
    assert sigma_full(model).discrete == ()
    for view in (model, model.mirrored()):
        lam = ROOT_B + 0.6 * om
        assert classify_tau(view, 1.0 / lam) is TauClass.EIGEN
        with pytest.raises(NonUniqueSolution):
            solve_pie(view, 1.0 / lam, view.constant_grid(1.0))
        assert classify_tau(view, 1.0 / (ROOT_B + 2.0 * om)) is TauClass.REGULAR


@pytest.mark.parametrize("root_tol", [1e-300, 5e-324])
def test_a_tiny_root_tol_still_finds_the_root(root_tol, fixture_b):
    # w / root_tol overflowed for a subnormal root_tol: the budget became one
    # step and the bracket's midpoint came back.  The search's own width is
    # fixed, but w / 1e-10 overflows the same way on a model bounded near 1e300
    def fn(lams):
        return delta_batch(fixture_b, lams).real

    lo, hi = np.array([1.1]), np.array([1.4])
    (lam,) = _refine_roots(fn, lo, hi, fn(lo), fn(hi), root_tol)
    assert abs(lam - ROOT_B) < 1e-12


def test_root_search_probe_budget(monkeypatch):
    # count batches per sigma_full on fresh models: one for the gap ends, then
    # one per step of bisection on counts; only the double root needs that to _ROOT_TOL.
    # The search counts with _count, which does not admit
    calls = []
    counted = pio.spectrum._count

    def counting(model, lams, *args):
        calls.append(len(lams))
        return counted(model, lams, *args)

    monkeypatch.setattr(pio.spectrum, "_count", counting)
    for model, budget in ((fresh_fixture_a(), 1), (ramp_model(4, 4), 6), (sumrule_model(*SUMRULE_4), 8),
                          (double_root_model(), 40)):
        calls.clear()
        sigma_full(model)
        assert 0 < len(calls) <= budget


def bisection_steps(lo, hi, tol):
    """``ceil(log2((hi - lo) / tol))``, the steps of bisection to width ``tol``."""
    return int(np.ceil(np.log2((hi - lo) / tol)))


def counted_calls(fn):
    calls = []

    def wrapped(x):
        calls.append(x.copy())
        return fn(x)

    return wrapped, calls


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: (x - 1.3) * (x - 1.3) * (x - 1.3),
        lambda x: np.sign(x - 1.3) * np.abs(x - 1.3) ** (1.0 / 9.0),
        lambda x: np.tanh(1e4 * (x - 1.3)),
    ],
    ids=["cube", "ninth root", "tanh step"],
)
def test_refinement_keeps_within_one_step_of_bisection(fn):
    # interpolation creeps in from one side here; without the projection onto
    # bisection's budget the cube's bracket is still wide when the budget ends
    lo, hi, tol = 1.0, 1.9, 1e-10
    counted, calls = counted_calls(fn)
    (root,) = _refine_roots(counted, [lo], [hi], fn(np.array([lo])), fn(np.array([hi])), tol)
    assert len(calls) <= bisection_steps(lo, hi, tol) + 1
    assert abs(root - 1.3) <= tol


def test_refinement_is_superlinear_on_a_smooth_root():
    def fn(x):
        return np.exp(x) - 2.74

    lo, hi, tol = 1.0, 1.01, 1e-10
    counted, calls = counted_calls(fn)
    (root,) = _refine_roots(counted, [lo], [hi], fn(np.array([lo])), fn(np.array([hi])), tol)
    assert len(calls) <= 6 < bisection_steps(lo, hi, tol)
    assert abs(root - np.log(2.74)) <= tol


def test_refinement_ends_where_floats_are_coarser_than_root_tol(monkeypatch):
    # near 5e6 neighbouring floats are 9.3e-10 apart, so no bracket can get
    # narrower than root_tol = 1e-10: bisection looped forever on this model
    counted = pio.spectrum.delta_batch
    calls = []

    def bounded(model, lams, *args, **kwargs):
        calls.append(len(lams))
        assert len(calls) <= 100, "the root search does not end"
        return counted(model, lams, *args, **kwargs)

    monkeypatch.setattr(pio.spectrum, "delta_batch", bounded)
    model = make_model((0, 1), (0, 1), ["1"], ["2e6"], ["1"], ["3e6"])
    ((lam, mult),) = sigma_full(model).discrete
    assert abs(lam - 5e6) <= 1e-9 and mult == 1


def test_refinement_of_a_bracket_does_not_depend_on_the_batch():
    # roots 0.3, 1.3 and 2.7 of a product, each in a bracket of its own, and
    # 1.3 once more in a bracket centred on it
    def fn(x):
        return (x - 0.3) * (x - 1.3) * (x - 2.7) * (1.0 + x * x)

    lo = np.array([0.0, 1.1, 2.6, 1.25])
    hi = np.array([0.55, 1.45, 3.5, 1.35])
    together = _refine_roots(fn, lo, hi, fn(lo), fn(hi), 1e-10)
    for i in range(len(lo)):
        alone = _refine_roots(fn, lo[i:i + 1], hi[i:i + 1], fn(lo[i:i + 1]), fn(hi[i:i + 1]), 1e-10)
        assert alone[0] == together[i]  # the same bits
    assert np.allclose(together, [0.3, 1.3, 2.7, 1.3], atol=1e-10)


def vectorized_refine_roots(fn, lo, hi, flo, fhi, root_tol):
    # The elementwise numpy form that ``_refine_roots`` replaced, copied
    # verbatim (docstring aside) as the reference of the equivalence test
    # below: the float form must keep its IEEE operations, so its iterates,
    # roots and ``fn`` calls, bit for bit.
    # x1 is the newest end, x2 the other end, x3 the point replaced last
    x1, f1, x2, f2 = (np.array(v, dtype=float) for v in (hi, fhi, lo, flo))
    x3, f3 = np.full(x1.shape, np.nan), np.full(x1.shape, np.nan)
    width0 = x1 - x2
    mant, expo = np.frexp(width0 / root_tol)
    budget = expo - (mant == 0.5) + 1  # ceil(log2(width0 / root_tol)) + 1, exactly
    exact = np.zeros(x1.shape, dtype=bool)
    live = np.flatnonzero(width0 > root_tol)
    steps = 0
    while live.size:
        a, fa, b, fb, c, fc = (v[live] for v in (x1, f1, x2, f2, x3, f3))
        left, right = np.minimum(a, b), np.maximum(a, b)
        width, mid = right - left, 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore"):  # no third point yet: NaN
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            well_placed = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            iqi = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        falsi = a + fa / (fa - fb) * (b - a)
        shift = 0.2 / width0[live] * width * width
        truncated = np.where(
            shift <= np.abs(mid - falsi), falsi + np.sign(mid - falsi) * shift, mid
        )
        x = np.where(well_placed, a + iqi * (b - a), truncated)
        x = np.clip(x, left + 0.5 * root_tol, right - 0.5 * root_tol)
        slack = np.maximum(np.ldexp(0.5 * root_tol, budget[live] - steps) - 0.5 * width, 0.0)
        x = np.where(np.abs(x - mid) <= slack, x, mid - np.sign(mid - x) * slack)
        fx = fn(x)
        beside_a = (fx < 0.0) == (fa < 0.0)  # x replaces a, else b (and a is the other end)
        x3[live], f3[live] = np.where(beside_a, a, b), np.where(beside_a, fa, fb)
        x2[live], f2[live] = np.where(beside_a, b, a), np.where(beside_a, fb, fa)
        x1[live], f1[live] = x, fx
        steps += 1
        zero = fx == 0.0
        exact[live[zero]] = True
        live = live[~zero & (budget[live] > steps)]
        live = live[np.abs(x1[live] - x2[live]) > root_tol]
    return np.where(exact, x1, 0.5 * (x1 + x2))


def overflowing_cube(x):
    # the cube, but +-inf far from the root and NaN on one side of it, as
    # the determinant overflows at n = m = 16
    d = x - 1.3
    out = np.where(np.abs(d) > 1e-2, np.copysign(np.inf, d), 1e3 * d * d * d)
    return np.where((1e-3 < d) & (d < 3e-3), np.nan, out)


# name: (fn, its roots)
REFINEMENT_CASES = {
    "cube": (lambda x: (x - 1.3) * (x - 1.3) * (x - 1.3), [1.3]),
    "ninth root": (lambda x: np.sign(x - 1.3) * np.abs(x - 1.3) ** (1.0 / 9.0), [1.3]),
    "tanh step": (lambda x: np.tanh(1e4 * (x - 1.3)), [1.3]),
    "exp": (lambda x: np.exp(x) - 2.74, [np.log(2.74)]),
    "three roots": (lambda x: (x - 0.3) * (x - 1.3) * (x - 2.7) * (1.0 + x * x), [0.3, 1.3, 2.7]),
    "overflow": (overflowing_cube, [1.3]),
}


@pytest.mark.parametrize("name", sorted(REFINEMENT_CASES))
def test_refinement_matches_the_vectorized_form_bit_for_bit(name):
    # 200 seeded brackets around the known roots, from 1e-11 (narrower than
    # root_tol) to 0.3 on each side, refined one at a time, by 7 and all at once
    fn, roots = REFINEMENT_CASES[name]
    tol = 1e-10
    rng = np.random.default_rng(sorted(REFINEMENT_CASES).index(name))
    root = rng.choice(roots, 200)
    lo, hi = root - 10.0 ** rng.uniform(-11, -0.5, 200), root + 10.0 ** rng.uniform(-11, -0.5, 200)
    evaluated = []
    for size in (1, 7, 200):
        for start in range(0, 200, size):
            part = slice(start, start + size)
            args = lo[part], hi[part], fn(lo[part]), fn(hi[part]), tol
            ours, theirs = counted_calls(fn), counted_calls(fn)
            got = _refine_roots(ours[0], *args)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf / inf
                want = vectorized_refine_roots(theirs[0], *args)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()  # the same bits
            assert [x.tobytes() for x in ours[1]] == [x.tobytes() for x in theirs[1]]
            assert np.all(np.abs(got - root[part]) <= tol)
            evaluated += ours[1]
    if name == "overflow":
        values = fn(np.concatenate(evaluated))
        assert np.isinf(values).any() and np.isnan(values).any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fn, lo, hi, root, calls",
    [
        # every difference of values is 0 or +-2, so inverse quadratic
        # interpolation would divide by zero: Chandrupatla's test rejects it
        (lambda x: np.sign(x - 1.3), [1.0], [1.9], 1.3, None),
        # no sign change and equal values: regula falsi divides by zero
        (lambda x: np.ones_like(x), [1.0], [1.9], None, None),
        # regula falsi lands on the zero at the first step
        (lambda x: x - 1.5, [1.0], [2.0], 1.5, 1),
        # narrower than root_tol on entry: the midpoint, no call
        (lambda x: x - 1.3, [1.3 - 2e-11], [1.3 + 2e-11], 1.3, 0),
        # no bracket at all, as on a model without discrete spectrum
        (lambda x: x - 1.3, [], [], None, 0),
        # numpy scalars, as a single bracket
        (lambda x: x - 1.3, np.float64(1.0), np.float64(1.9), 1.3, None),
    ],
    ids=["sign", "constant", "exact zero", "narrow", "empty", "numpy scalars"],
)
def test_refinement_of_degenerate_input_returns_an_array(fn, lo, hi, root, calls):
    # with warnings as errors: the float form may neither warn nor raise
    # where the vectorized one divided by zero under np.errstate
    tol = 1e-10
    counted, seen = counted_calls(fn)
    flo, fhi = fn(np.asarray(lo, dtype=float)), fn(np.asarray(hi, dtype=float))
    for ends in ((lo, hi, flo, fhi), (np.asarray(lo), np.asarray(hi), list(np.atleast_1d(flo)),
                                      list(np.atleast_1d(fhi)))):
        seen.clear()
        got = _refine_roots(counted, *ends, tol)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == np.shape(np.atleast_1d(lo))
        assert np.all((np.atleast_1d(lo) <= got) & (got <= np.atleast_1d(hi)))
        if root is not None:
            assert abs(got[0] - root) <= tol
        if calls is not None:
            assert len(seen) == calls
    if np.ndim(lo) == 1:  # the vectorized form takes no 0-d ends
        with np.errstate(divide="ignore", invalid="ignore"):
            want = vectorized_refine_roots(fn, lo, hi, flo, fhi, tol)
        assert got.tobytes() == want.tobytes()


# --- the search's bookkeeping against its numpy form ---


def vectorized_search_roots(model):
    # The numpy form of ``_search_roots``, copied verbatim (docstring aside) as
    # the reference of the equivalence test below: the split loop, the gap-end
    # test, the sub-scan's bracket pick and the exact zeros now run per piece in
    # Python floats, which must keep every evaluator call, its parameters and
    # their order, and every root, bit for bit.
    _, gaps, _ = _search_region(model)
    size = model.n * model.m

    # det X = delta / lam^(mn), with lam = lm 2^le (frexp): delta times 2^(-mn le), exact, over
    # lm^(mn), so nothing overflows where delta does not (discrete_spectrum)
    def dvals(lams):
        lm, le = np.frexp(lams)
        return np.ldexp(delta_batch(model, lams).real, -size * le) / lm**size

    nu, vals = _count(model, gaps.ravel())
    # the open intervals: ends, counts and values at the ends
    lo, hi, nlo, nhi, flo, fhi = (*gaps.T, *nu.reshape(-1, 2).T, *vals.reshape(-1, 2).T)
    multiple, simple = [], []
    while True:
        count, mid = np.abs(nhi - nlo), lo + _SPLIT * (hi - lo)
        split = (count >= 2) & (hi - lo > _ROOT_TOL) & (lo < mid) & (mid < hi)
        done = (count >= 2) & ~split  # too narrow to split: one multiple eigenvalue
        multiple += zip((0.5 * (lo + hi))[done].tolist(), count[done].tolist())
        simple.append(np.stack([lo, hi, flo, fhi])[:, count == 1])
        if not split.any():
            break
        lo, hi, nlo, nhi, flo, fhi, mid = (v[split] for v in (lo, hi, nlo, nhi, flo, fhi, mid))
        nmid, fmid = _count(model, mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        nlo, nhi = np.concatenate([nlo, nmid]), np.concatenate([nmid, nhi])
        flo, fhi = np.concatenate([flo, fmid]), np.concatenate([fmid, fhi])

    # one eigenvalue per piece, which brackets it by its count values; a piece with an end at a
    # gap end is sub-scanned instead, and its first sign change is the bracket
    lo, hi, flo, fhi = np.concatenate(simple, axis=1)
    edge = ((lo[:, None] == gaps.ravel()) | (hi[:, None] == gaps.ravel())).any(axis=1)
    ts = np.linspace(lo[edge], hi[edge], _SUBSCAN_POINTS, axis=1)
    inner = dvals(ts[:, 1:-1].ravel()) if len(ts) else np.empty(0)
    fs = np.column_stack([flo[edge], inner.reshape(-1, _SUBSCAN_POINTS - 2), fhi[edge]])
    rows, first = np.arange(len(ts)), np.argmax(np.sign(fs[:, :-1]) * np.sign(fs[:, 1:]) <= 0.0, axis=1)
    lo[edge], hi[edge], flo[edge], fhi[edge] = ts[rows, first], ts[rows, first + 1], fs[rows, first], fs[rows, first + 1]
    lo, hi = np.where(fhi == 0.0, hi, lo), np.where(flo == 0.0, lo, hi)  # an exact zero is the root
    refined = _refine_roots(dvals, lo, hi, flo, fhi, _ROOT_TOL)
    found = [(lam, 1) for lam in refined.tolist()] + multiple
    return tuple(sorted(found))


def recorded_search(search, model, monkeypatch):
    """The roots of ``search(model)`` and every ``_count`` and ``delta_batch`` call it made,
    each as its name and its parameters as ``float.hex``, with the roots in ``float.hex``."""
    calls = []
    originals = {"_count": pio.spectrum._count, "delta_batch": pio.spectrum.delta_batch}

    def recording(name):
        def call(model, lams):
            calls.append((name, [float(lam).hex() for lam in lams]))
            return originals[name](model, lams)
        return call

    with monkeypatch.context() as patch:
        for name in originals:  # the library's search and the copy above, which reads this module
            patch.setattr(pio.spectrum, name, recording(name))
            patch.setattr(sys.modules[__name__], name, recording(name))
        roots = search(model)
    return [(lam.hex(), mult) for lam, mult in roots], calls


SUMRULE_2 = ([1.5, -2.25], [2.75, -1.125])
# the models of the equivalence test: the benchmark's spectrum cases, a double
# root and the negative roots of odd-rank products
SEARCH_MODELS = {
    "fixture-a": fresh_fixture_a,
    "fixture-b": lambda: make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["t"]),
    "fixture-c": lambda: make_model((0, 1), (0, 1), ["1"], ["piecewise([0,0.5]:2; [0.5,1]:4)"], ["1"], ["0"]),
    "sumrule-2": lambda: sumrule_model(*SUMRULE_2),
    "sumrule-4": lambda: sumrule_model(*SUMRULE_4),
    **{f"ramp-{n}": (lambda n: lambda: ramp_model(n, n))(n) for n in (1, 2, 4, 8)},
    "double root": double_root_model,
    **{name: (lambda w: lambda: legendre_model(*w[:2]))(w) for name, w in ODD_NEGATIVE.items()},
}


@pytest.mark.parametrize("path", [1, 2])
@pytest.mark.parametrize("name", list(SEARCH_MODELS))
def test_search_matches_the_vectorized_form_bit_for_bit(name, path, monkeypatch):
    model = SEARCH_MODELS[name]()
    view = model if path == 1 else model.mirrored()
    ours = recorded_search(pio.spectrum._search_roots, view, monkeypatch)
    theirs = recorded_search(vectorized_search_roots, view, monkeypatch)
    assert ours == theirs
    roots, calls = ours
    assert calls[0][0] == "_count" and bool(roots) == (name != "fixture-c")


@pytest.mark.parametrize("path", [1, 2])
def test_search_matches_the_vectorized_form_where_delta_overflows(path, monkeypatch):
    # ramp-16: delta_batch's lam^(mn) overflows, with the same warnings on both forms
    model = ramp_model(16, 16)
    view = model if path == 1 else model.mirrored()
    results = []
    for search in (pio.spectrum._search_roots, vectorized_search_roots):
        with pytest.warns(RuntimeWarning, match="^overflow encountered in") as record:
            results.append(recorded_search(search, view, monkeypatch))
        assert {str(w.message) for w in record} == {"overflow encountered in power"}
    assert results[0] == results[1]
    assert len(results[0][0]) == 23


def reference_admit(spectral_set, params, model, name="lambda", where="the essential spectrum"):
    # The array path of ``_admit`` before it admitted a batch by the real parts
    # alone, copied verbatim (docstring aside; the numeric rule in place of the
    # one-number check it called, and its plain-number repr inline) as the reference
    # of the boundary test below: each refusal, and its message, must stay the same.
    margin = operator_margin(model)
    if isinstance(params, np.ndarray):
        dist = spectral_set.distances(params)
        bad = np.flatnonzero((dist <= margin) | ~np.isfinite(params))
        if not bad.size:
            return
        param, near = params.flat[bad[0]], dist.flat[bad[0]]
    else:  # one number: the scalar distance, equal to ``distances`` and 4x cheaper
        param, near = params, spectral_set.distance(params)
    _numeric(param, name)
    if near <= margin:
        raise SpectrumHit(f"{name} {np.asarray(param).item()!r} is within {near:.3e} of {where}")


def admission(admit, *args):
    """``None`` where ``admit(*args)`` admits, else the type and message of its refusal."""
    try:
        admit(*args)
    except (DomainError, SpectrumHit) as err:
        return type(err), str(err)
    return None


def converted_admit(spectral_set, params, model):
    """What an entry point does with its parameter: the numeric rule, then ``_admit``."""
    pio.spectrum._admit(spectral_set, _numeric(params, "lambda", ndim=np.ndim(params)), model)


def test_admission_at_the_margin_matches_the_numpy_form(fixture_a):
    # fixture a's essential set is the points 0, 2 and 3: a parameter exactly om
    # from 0 is refused (dist <= om), one ulp farther admitted; a complex one is
    # admitted or refused by its distance, not by its real part alone.  A parameter
    # that is not finite is refused by the numeric rule before admission
    ess, om = sigma_ess(fixture_a), operator_margin(fixture_a)
    inside, outside = np.nextafter(om, 0.0), np.nextafter(om, np.inf)
    admitted = [outside, -outside, complex(0.0, outside), complex(2.0, 2.0 * om)]
    refused = [om, -om, inside, -inside, complex(0.0, om), complex(2.0, 0.5 * om),
               np.nan, np.inf, -np.inf, complex(np.nan, 0.5), complex(1.5, np.inf)]
    for value in admitted + refused:
        for params in (value, np.array([1.5, value]), np.array([value, 1.5, value]), np.array([2.5, 4.0, value])):
            got = admission(converted_admit, ess, params, fixture_a)
            assert got == admission(reference_admit, ess, params, fixture_a), (value, params)
            assert (got is None) == (value in admitted), (value, params)
    assert admission(converted_admit, ess, np.array([1.5, -om]), fixture_a) == (
        SpectrumHit, f"lambda {-om!r} is within {om:.3e} of the essential spectrum")
    assert admission(converted_admit, ess, np.array([1.5, outside, np.nan, om]), fixture_a) == (
        DomainError, "lambda nan is not finite")


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
    rep = sigma_full(replace(fixture_a, search=SearchSettings(scan_points=64, margin=0.5)))
    assert rep.settings["scan_points"] == 64
    assert rep.settings["margin"] == 0.5
    assert any(lo < 2.0 and hi > 3.0 for lo, hi in rep.unresolved)


def test_search_settings_come_from_the_model_alone():
    # the model's search block is the one source: no per-call override exists
    assert list(inspect.signature(sigma_full).parameters) == ["model"]
    assert list(inspect.signature(discrete_spectrum).parameters) == ["model"]
    assert list(inspect.signature(validate_model).parameters) == ["model"]
    # the search's evaluators take no margin argument: delta_batch admits by the
    # operators' one rule, and the count's parameters lie in the search gaps
    assert list(inspect.signature(delta_batch).parameters) == ["model", "lams"]
    assert list(inspect.signature(_count).parameters) == ["model", "lams"]
    assert not hasattr(pio.spectrum, "_search_settings")


@pytest.mark.parametrize("name", ["fixture-a", "fixture-b"])
def test_search_margin_is_raised_to_twice_the_operator_margin(name, fixture_a, fixture_b):
    model = fixture_a if name == "fixture-a" else fixture_b
    raised = 2.0 * pio.spectrum.operator_margin(model)
    rep = sigma_full(replace(model, search=SearchSettings(margin=1e-12)))
    assert rep.settings["margin"] == raised
    ess = [(0.0, 0.0), (2.0, 2.0), (3.0, 3.0)] if name == "fixture-a" else [(0.0, 1.0)]
    assert rep.unresolved == tuple((lo - raised, hi + raised) for lo, hi in ess)
    # the same eigenvalues, to within root_tol (the brackets start from other gap ends)
    default = sigma_full(model).discrete
    assert [mult for _, mult in rep.discrete] == [mult for _, mult in default]
    np.testing.assert_allclose([lam for lam, _ in rep.discrete], [lam for lam, _ in default],
                               rtol=0, atol=pio.spectrum._ROOT_TOL)
    at = sigma_full(replace(model, search=SearchSettings(margin=raised)))
    assert at.as_dict() == rep.as_dict()


def test_sigma_full_as_dict_roundtrips(fixture_b):
    d = sigma_full(fixture_b).as_dict()
    assert d["essential"]["intervals"] == [[0.0, 1.0]]
    assert len(d["discrete"]) == 1
    assert set(d["settings"]) == {"margin", "scan_points", "root_tol", "order"}


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


def singular_sumrule_model():
    """Constant weights 1, 4 and 2 on the indicator bases of [0, 1] and [1, 2], one quadrature
    node per panel: each sum of the reduction has one nonzero term, so at the sums 3 and 6 the
    small system is exactly singular whatever order a BLAS sums in."""
    return make_model((0, 2), (0, 1), ["piecewise([0,1]:1; [1,2]:0)", "piecewise([0,1]:0; [1,2]:1)"],
                      ["1", "4"], ["1"], ["2"], order=1)


EIGENFUNCTION_MODELS = {
    "ramp-4": lambda: ramp_model(4, 4),
    "ramp-8": lambda: ramp_model(8, 8),
    "double root": double_root_model,
}


def coefficient_subspace_gap(view, lam, family):
    """``1 - cos`` of the largest principal angle between the moments of ``family`` and the
    right singular vectors of the smallest singular values of the small system at ``lam``."""
    reference = np.linalg.svd(_small_system(view, lam)[1])[2][-len(family):].conj().T
    moments = np.column_stack([_reduction_plan(view).moments(f.values) for f in family])
    cosines = np.linalg.svd(reference.conj().T @ np.linalg.qr(moments)[0], compute_uv=False)
    return 1.0 - cosines.min()


@pytest.mark.parametrize("path", [1, 2])
@pytest.mark.parametrize("name", list(EIGENFUNCTION_MODELS))
def test_eigenfunction_coefficients_span_the_null_space_of_the_small_system(name, path):
    # the moments c_w = <B_w, f> of the functions are their coefficients; the reference is a
    # full SVD of the same small system, computed here
    model = EIGENFUNCTION_MODELS[name]()
    view = model if path == 1 else model.mirrored()
    om = operator_margin(view)
    for root, mult in discrete_spectrum(view):
        for lam in (root, root - 0.5 * om, root + 0.5 * om):
            family = eigenfunctions_T(view, lam)
            assert len(family) == mult
            assert coefficient_subspace_gap(view, lam, family) <= 1e-12, (root, lam)


@pytest.mark.parametrize("path", [1, 2])
def test_eigenfunctions_need_no_svd(monkeypatch, fixture_a, path):
    # one path, by inverse iteration: an SVD that cannot run changes nothing
    models = [fixture_a, ramp_model(4, 4), double_root_model(), singular_sumrule_model()]
    views = [m if path == 1 else m.mirrored() for m in models]
    before = [[f.values for f in eigenfunctions_T(v, discrete_spectrum(v)[-1][0])] for v in views]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for view, values in zip(views, before):
        after = eigenfunctions_T(view, discrete_spectrum(view)[-1][0])
        assert [f.values.tobytes() for f in after] == [v.tobytes() for v in values]


@pytest.mark.parametrize("path", [1, 2])
def test_eigenfunctions_at_an_exactly_singular_small_system(path):
    # LU of the unperturbed matrix meets a zero pivot; the eigenfunctions are still found.
    # Fixture a at order 1 has the 1x1 zero at 5 (at the default order it rounds a few ulps off 0).
    fixture_a_1 = make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"], order=1)
    for model, lam in ((fixture_a_1, 5.0), (singular_sumrule_model(), 3.0), (singular_sumrule_model(), 6.0)):
        view = model if path == 1 else model.mirrored()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(_small_system(view, lam)[1], np.ones(view.phi_x.shape[0] * view.psi_y.shape[0]))
        f, = eigenfunctions_T(view, lam)
        assert abs(f.norm() - 1.0) < 1e-12
        assert (apply_T(view, f) - lam * f).norm() < 1e-9
        assert coefficient_subspace_gap(view, lam, [f]) <= 1e-12


def test_eigenfunctions_are_reproducible_to_the_byte():
    # a fixed start block: two calls, and a call on a model built again, give the same bytes
    for build, lam in ((double_root_model, 3.2), (lambda: ramp_model(4, 4), None)):
        model = build()
        lam = discrete_spectrum(model)[0][0] if lam is None else lam
        first, second = eigenfunctions_T(model, lam), eigenfunctions_T(model, lam)
        again = eigenfunctions_T(build(), lam)
        for fs in (second, again):
            assert [f.values.tobytes() for f in fs] == [f.values.tobytes() for f in first]


@pytest.mark.parametrize("path", [1, 2])
def test_eigenfunctions_of_ramp_8_across_the_eigen_window(path):
    # T f = lam f to 1e-7 at each root and half the operator margin to either side,
    # with T applied channel by channel
    model = ramp_model(8, 8)
    view = model if path == 1 else model.mirrored()
    om = operator_margin(view)
    for root, _ in discrete_spectrum(view):
        for lam in (root - 0.5 * om, root, root + 0.5 * om):
            f, = eigenfunctions_T(view, lam)
            assert abs(f.norm() - 1.0) < 1e-12
            assert (apply_T(view, f) - lam * f).norm() <= 1e-7, (root, lam)


def test_atom_level_is_matched_within_the_operator_margin(fixture_c):
    om = operator_margin(fixture_c)
    for level in (2.0, 4.0):
        f = atom_eigenfunction(fixture_c, 1, 1, level + 0.9 * om)
        assert np.array_equal(f.values, atom_eigenfunction(fixture_c, 1, 1, level).values)
        with pytest.raises(NoAtom):
            atom_eigenfunction(fixture_c, 1, 1, level + 2.0 * om)


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


PLATEAU = "piecewise([0,0.25]:3; [0.25,0.75]:4*t; [0.75,1]:3)"


@pytest.mark.parametrize("channel", [1, 2])
def test_an_atom_on_two_pieces_is_one_level_set(channel):
    # 3 on [0, 0.25] and [0.75, 1], 4t between: both constant pieces fold into
    # the atom (3, 0.5), and the eigenfunction of the atom lives on both
    plateau = (["legendre(0)", "legendre(1)"], [PLATEAU, PLATEAU])
    other = (["legendre(0)"], ["2"])
    sides = (plateau, other) if channel == 1 else (other, plateau)
    model = make_model((0, 1), (0, 1), *sides[0], *sides[1])
    weight = (model.channel1 if channel == 1 else model.channel2).weights[0]
    ess = essential_range(weight, (0.0, 1.0))
    assert ess.atoms == ((3.0, 0.5),)
    (lo, hi), = ess.intervals
    assert abs(lo - 1.0) <= 1e-12 and abs(hi - 3.0) <= 1e-12
    for j0 in (1, 2):
        f = atom_eigenfunction(model, channel, j0, 3.0)
        assert abs(f.norm() - 1.0) <= 1e-12
        assert (apply_partial(model, channel, f) - 3.0 * f).norm() <= 1e-12
    spec = sigma_channel(model, channel)
    assert (spec.intervals, spec.atoms) == (ess.intervals, ess.atoms)
    assert spec.points == tuple(sorted({*ess.points, 0.0}))


# --- determinant trace ---


def test_delta_trace_golden_row(fixture_a):
    rows = delta_trace_rows(fixture_a, 3.5, 6.0, 6)
    assert len(rows) == 6
    lam, re, im = rows[1]
    assert lam == 4.0 and abs(re - 8.0) < 1e-9 and im == 0.0


def test_delta_trace_masks_guard_bands(fixture_a):
    rows = delta_trace_rows(fixture_a, 1.9, 2.1, 41)
    mid = [r for r in rows if abs(r[0] - 2.0) < 1e-12]
    assert mid and np.isnan(mid[0][1]) and np.isnan(mid[0][2])
    outer = [r for r in rows if abs(r[0] - 2.0) > 0.05]
    assert outer and all(np.isfinite(r[1]) for r in outer)


def test_delta_trace_path_column(fixture_b):
    # the CLI writes the path column; path 2 is the trace of the mirror, whose
    # Pi is a permuted transpose of path 1's, so it has the same determinant
    one = np.array(delta_trace_rows(fixture_b, 1.5, 2.0, 3))
    two = np.array(delta_trace_rows(fixture_b.mirrored(), 1.5, 2.0, 3))
    assert one.shape == two.shape == (3, 3)
    assert np.array_equal(one[:, 0], two[:, 0]) and not two[:, 2].any()
    assert np.allclose(two[:, 1], one[:, 1], rtol=1e-12, atol=0.0)
