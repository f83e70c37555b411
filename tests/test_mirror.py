"""The mirrored model, and channel 2 computed through it.

Every reference below is written from the model's own sampled arrays
(``psi_y``, ``p_x`` and the quadrature weights) or its expressions, never
through ``mirrored()``.
"""

import collections
import gc
import inspect
import weakref

import numpy as np
import pytest

import pio.operators
import pio.spectrum
from pio.errors import PioError
from pio.expr import Expression
from pio.model import make_model
from pio.operators import apply_partial, apply_S, project, resolvent_channel, resolvent_T
from pio.pie import TauClass, classify_tau, solve_pie
from pio.spectrum import (
    atom_eigenfunction,
    delta_trace_rows,
    discrete_spectrum,
    eigenfunctions_T,
    pi_matrix,
    sigma_ess,
    sigma_full,
)


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
    # a channel is 1 or 2; path 2 is no argument but the mirrored model
    one = fixture_a.constant_grid(1.0)
    refusals = {0: "must be >= 1, got 0", 3: "must be <= 2, got 3", "2": "must be a number, got '2'"}
    for bad, message in refusals.items():
        with pytest.raises(PioError, match=f"^channel {message}$"):
            apply_partial(fixture_a, bad, one)
    for call in (discrete_spectrum, pi_matrix, solve_pie, delta_trace_rows):
        assert "path" not in inspect.signature(call).parameters


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


def count_families(monkeypatch):
    """The parameter counts of every ``families`` call from now on."""
    calls = []
    families = pio.spectrum._ReductionPlan.families

    def counting(plan, lams):
        calls.append(len(lams))
        return families(plan, lams)

    monkeypatch.setattr(pio.spectrum._ReductionPlan, "families", counting)
    return calls


def count_searches(monkeypatch):
    """The models of every root search from now on: the uncached search, not
    the calls to ``discrete_spectrum``, which read the one kept on the model."""
    searched = []
    search = pio.spectrum._search_roots

    def counting(model):
        searched.append(model)
        return search(model)

    monkeypatch.setattr(pio.spectrum, "_search_roots", counting)
    return searched


def test_solve_pie_assembles_pi_once(monkeypatch):
    # the reduction is evaluated once per parameter: assembly and synthesis
    # share it; the eigenvalue decision reads the roots searched once per model
    # (the warm-up call), and each path searches its own
    calls, searched = count_families(monkeypatch), count_searches(monkeypatch)
    model = rich_model()
    g = random_grid(model, 9)
    for view, gv in ((model, g), (model.mirrored(), g.transposed())):  # paths 1 and 2
        solve_pie(view, -0.25, gv)
        calls.clear()
        solve_pie(view, -0.25, gv)
        solve_pie(view, -0.5, gv)
        assert calls == [1, 1]
    assert list(map(id, searched)) == [id(model), id(model.mirrored())]


def test_resolvent_and_eigenfunctions_evaluate_the_reduction_once(monkeypatch):
    calls, searched = count_families(monkeypatch), count_searches(monkeypatch)
    model = rich_model()
    g = random_grid(model, 11)
    resolvent_T(model, -4.0, g)
    calls.clear()
    resolvent_T(model, -4.0, g)
    assert calls == [1]
    lam = discrete_spectrum(model)[0][0]
    calls.clear()
    eigenfunctions_T(model, lam)
    assert calls == [1]
    assert list(map(id, searched)) == [id(model)]


def test_every_entry_point_reads_one_root_search_per_path(monkeypatch):
    # sigma_full, discrete_spectrum and the solvers' eigenvalue decision read the
    # one search kept on the model; the mirror (path 2) keeps its own
    searched = count_searches(monkeypatch)
    model = rich_model()
    g = random_grid(model, 5)
    for view, gv in ((model, g), (model.mirrored(), g.transposed())):
        (lam, _), *_ = sigma_full(view).discrete
        assert discrete_spectrum(view)[0][0] == lam
        assert classify_tau(view, 1.0 / lam) is TauClass.EIGEN
        solve_pie(view, -0.25, gv)
        resolvent_T(view, -4.0, gv)
        assert len(eigenfunctions_T(view, lam)) == 1
    assert list(map(id, searched)) == [id(model), id(model.mirrored())]


def test_weight_ranges_are_sampled_once_per_model(monkeypatch):
    # every expression is evaluated once per model, and each weight's range is
    # derived once from its record, the admission sets of both channels
    # included; later calls evaluate and derive nothing
    calls, records = collections.Counter(), []
    call, derive = Expression.__call__, pio.spectrum._derive_range

    def counting(expr, *values):
        calls[expr.source] += 1
        return call(expr, *values)

    def counting_derive(sample):
        records.append(sample)
        return derive(sample)

    def derived():
        # each derivation named by the weight whose record it read
        pairs = zip((*model.channel1.weights, *model.channel2.weights),
                    (*model._samples1[1], *model._samples2[1]))
        source = {id(sample): w.source for w, sample in pairs}
        return collections.Counter(source[id(sample)] for sample in records)

    monkeypatch.setattr(Expression, "__call__", counting)
    monkeypatch.setattr(pio.spectrum, "_derive_range", counting_derive)
    model = rich_model()
    g = random_grid(model, 10)
    solve_pie(model, -0.25, g)
    for channel in (1, 2):
        resolvent_channel(model, channel, -0.5, g)
    slots = [*model.channel1.basis, *model.channel1.weights,
             *model.channel2.basis, *model.channel2.weights]
    assert calls == collections.Counter(e.source for e in slots)
    assert derived() == collections.Counter(e.source for e in (*model.channel1.weights,
                                                               *model.channel2.weights))
    calls.clear()
    records.clear()
    solve_pie(model, -0.25, g)
    for channel in (1, 2):
        resolvent_channel(model, channel, -0.5, g)
        apply_S(model, channel, 0.1, g)
    assert not calls
    assert not records


def _reachable_arrays(root):
    """Every numpy array reachable from ``root``: through containers and
    instances, the closures of functions and the bases of views."""
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            todo.append(obj.base)
        elif inspect.isfunction(obj):
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
        else:
            todo += gc.get_referents(obj)
    return found


def test_a_model_keeps_only_its_node_rows():
    # after the whole spectrum, the records of a model with piecewise and
    # non-literal weights in both channels hold each expression's values on
    # its rule's nodes and no other array
    model = make_model((0, 1), (0, 2), ["1"], ["piecewise([0,0.5]:t+2;[0.5,2]:3)"],
                       ["legendre(0)", "legendre(1)"],
                       ["piecewise([0,0.25]:t+4;[0.25,1]:5)", "t/2"])
    sigma_full(model)
    nx, ny = len(model.rule_x), len(model.rule_y)
    held = sum(a.nbytes for a in _reachable_arrays((model._samples1, model._samples2)))
    assert held == 8 * (model.n * nx + model.n * ny + model.m * ny + model.m * nx)


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    # the mirror holds its model weakly, so no cycle keeps a model and its
    # samples alive; a mirror that outlives its model makes a fresh one
    model = rich_model()
    report = sigma_full(model)
    mirror = model.mirrored()
    gone = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert gone() is None
        again = mirror.mirrored()
        assert again.mirrored() is mirror
        assert again.phi_x is mirror.psi_y and again._validation is mirror._validation
        assert sigma_full(again).as_dict() == report.as_dict()
    finally:
        gc.enable()
