"""Second-kind equation: classification, solving, residuals."""

import numpy as np
import pytest

import pio.spectrum
from pio.errors import EigenvalueHit, NonUniqueSolution, NotAnEigenvalue, OutsideTheory
from pio.model import make_model
from pio.operators import resolvent_T
from pio.pie import TauClass, classify_tau, residual, solve_pie
from pio.spectrum import discrete_spectrum, eigenfunctions_T


def rich_model():
    return make_model((0, 1), (0, 1), ["1"], ["t+2"],
                      ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])


def test_classify_fixture_a(fixture_a):
    assert classify_tau(fixture_a, 0.0) is TauClass.ZERO
    assert classify_tau(fixture_a, 0.5) is TauClass.CHANNEL_SINGULAR  # 1/tau = 2
    assert classify_tau(fixture_a, 1.0 / 3.0) is TauClass.CHANNEL_SINGULAR
    assert classify_tau(fixture_a, 0.2) is TauClass.EIGEN  # 1/tau = 5
    assert classify_tau(fixture_a, 0.1) is TauClass.REGULAR
    assert classify_tau(fixture_a, -4.0) is TauClass.REGULAR


def test_classify_fixture_b(fixture_b):
    assert classify_tau(fixture_b, 1.25) is TauClass.CHANNEL_SINGULAR  # 1/tau = 0.8
    lam = discrete_spectrum(fixture_b)[0][0]
    assert classify_tau(fixture_b, 1.0 / lam) is TauClass.EIGEN
    assert classify_tau(fixture_b, 0.3) is TauClass.REGULAR


def test_solve_worked_example(fixture_a):
    one = fixture_a.constant_grid(1.0)
    f = solve_pie(fixture_a, 0.1, one)
    assert np.allclose(f.values, 2.0, atol=1e-12)
    assert residual(fixture_a, 0.1, f, one) < 1e-12


def test_solve_refusals(fixture_a):
    one = fixture_a.constant_grid(1.0)
    with pytest.raises(OutsideTheory):
        solve_pie(fixture_a, 0.0, one)
    with pytest.raises(OutsideTheory):
        solve_pie(fixture_a, 0.5, one)
    with pytest.raises(NonUniqueSolution):
        solve_pie(fixture_a, 0.2, one)


def test_solve_residuals_on_fixtures(fixture_a, fixture_b):
    rng = np.random.default_rng(53)
    cases = [(fixture_a, 0.1), (fixture_a, -0.35), (fixture_b, 0.3), (fixture_b, -2.0)]
    for model, tau in cases:
        c = rng.uniform(-1, 1, size=4)
        g = model.grid(
            lambda x, y: c[0] + c[1] * x + c[2] * np.cos(2 * y) + c[3] * x * y
        )
        f = solve_pie(model, tau, g)
        assert residual(model, tau, f, g) < 1e-10 * max(1.0, g.norm())


def test_solve_linear_in_rhs():
    model = rich_model()
    g1 = model.grid(lambda x, y: np.sin(x + 2 * y) + 1.0)
    g2 = model.grid(lambda x, y: x * x - y)
    tau = 0.09
    combined = solve_pie(model, tau, g1 + 2.5 * g2)
    split = solve_pie(model, tau, g1) + 2.5 * solve_pie(model, tau, g2)
    assert (combined - split).norm() < 1e-12


def test_solve_channel_order_invariance():
    model = rich_model()
    g = model.grid(lambda x, y: np.exp(x - y))
    tau = 0.11
    f1 = solve_pie(model, tau, g)
    f2 = solve_pie(model.mirrored(), tau, g.transposed()).transposed()  # path 2
    assert (f1 - f2).norm() < 1e-10


def test_solve_consistent_with_resolvent(fixture_b):
    g = fixture_b.grid(lambda x, y: 1.0 + x * y)
    tau = 0.4  # 1/tau = 2.5, comfortably off the spectrum
    f = solve_pie(fixture_b, tau, g)
    via = (-1.0 / tau) * resolvent_T(fixture_b, 1.0 / tau, g)
    assert (f - via).norm() < 1e-12


def test_residual_detects_wrong_solution(fixture_a):
    one = fixture_a.constant_grid(1.0)
    f = solve_pie(fixture_a, 0.1, one)
    wrong = f + fixture_a.constant_grid(0.01)
    assert residual(fixture_a, 0.1, wrong, one) > 1e-3


def test_eigen_refusal_lines_up_with_homogeneous_solutions(fixture_a):
    """Where the solver refuses for non-uniqueness, the homogeneous equation
    really does have a solution: f = tau T f for the eigenfunction."""
    from pio.operators import apply_T
    from pio.spectrum import eigenfunctions_T

    tau = 0.2
    assert classify_tau(fixture_a, tau) is TauClass.EIGEN
    h = eigenfunctions_T(fixture_a, 1.0 / tau)[0]
    assert (h - tau * apply_T(fixture_a, h)).norm() < 1e-10


def test_eigenvalue_decision_reaches_every_entry_point(monkeypatch):
    # The certified eigenvalues decide EIGEN, EigenvalueHit and the number of
    # eigenfunctions.  Model A has the one eigenvalue 5; a root search that
    # also certifies 10 makes tau = 0.1 an eigenvalue at every entry point, on
    # both paths, and each path searches once.  Fresh models: the roots are
    # kept on the model.
    def model_a():
        return make_model((0, 1), (0, 1), ["1"], ["2"], ["1"], ["3"])

    model = model_a()
    g = model.constant_grid(1.0)
    assert classify_tau(model, 0.1) is TauClass.REGULAR
    resolvent_T(model, 10.0, g)
    with pytest.raises(NotAnEigenvalue):
        eigenfunctions_T(model, 10.0)
    searched = []

    def moved(view):
        searched.append(view)
        return ((5.0, 1), (10.0, 1))

    monkeypatch.setattr(pio.spectrum, "_search_roots", moved)  # the uncached search
    model = model_a()
    for view, gv in ((model, g), (model.mirrored(), g.transposed())):  # paths 1 and 2
        assert classify_tau(view, 0.1) is TauClass.EIGEN
        with pytest.raises(NonUniqueSolution):
            solve_pie(view, 0.1, gv)
        with pytest.raises(EigenvalueHit):
            resolvent_T(view, 10.0, gv)
        assert len(eigenfunctions_T(view, 10.0)) == 1
        assert classify_tau(view, 1.0 / (10.0 + 2.0 * pio.spectrum.operator_margin(view))) \
            is TauClass.REGULAR
    assert list(map(id, searched)) == [id(model), id(model.mirrored())]


def ramp_4():
    legendre = [f"legendre({k})" for k in range(4)]
    return make_model((0, 1), (0, 1), legendre, [f"{k + 1}*t" for k in range(4)],
                      legendre, [f"{k + 1}*t^2" for k in range(4)])


@pytest.mark.parametrize("name", ["fixture a", "ramp-4"])
@pytest.mark.parametrize("path", [1, 2])
def test_the_small_system_is_built_once_where_it_is_solved(monkeypatch, fixture_a, name, path):
    # classify_tau built the small system and dropped it; on a warm model the
    # class costs no coupling, and each solver builds the system once
    model = fixture_a if name == "fixture a" else ramp_4()
    view = model if path == 1 else model.mirrored()
    g = view.grid(lambda x, y: np.sin(3 * x) + x * y ** 2)
    lam, tau = -2.5, -0.4
    solve_pie(view, tau, g)  # warm: the plan, the roots and the weight ranges
    built, coupling = [], pio.spectrum._ReductionPlan.coupling
    monkeypatch.setattr(pio.spectrum._ReductionPlan, "coupling",
                        lambda plan, lams: built.append(lams) or coupling(plan, lams))
    calls = {
        "classify_tau": lambda: classify_tau(view, tau),
        "solve_pie": lambda: solve_pie(view, tau, g),
        "resolvent_T": lambda: resolvent_T(view, lam, g),
        "complex resolvent_T": lambda: resolvent_T(view, 2.0 - 3.0j, g),
    }
    counts = {}
    for key, call in calls.items():
        built.clear()
        call()
        counts[key] = len(built)
    assert counts == {"classify_tau": 0, "solve_pie": 1, "resolvent_T": 1, "complex resolvent_T": 1}
    assert classify_tau(view, tau) is TauClass.REGULAR
