"""Acceptance gate: one test per criterion, stated tolerances, no slack.

Each test prints a single PASS line on success; with -v the test name
itself gives the per-criterion pass/fail line.
"""

import time

import numpy as np
import pytest

from pio.errors import NonUniqueSolution, OutsideTheory
from pio.model import make_model
from pio.operators import (
    apply_partial,
    apply_T,
    project,
    resolvent_channel,
    resolvent_T,
)
from pio.oracle import compare_spectra, nystrom_matrix, oracle_eigs
from pio.pie import residual, solve_pie
from pio.spectrum import (
    atom_eigenfunction,
    delta,
    discrete_spectrum,
    sigma_full,
)


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


def random_grid(model, rng):
    c = rng.uniform(-1, 1, size=6)
    return model.grid(
        lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * y
        + c[4] * np.sin(3 * x) + c[5] * y * y
    )


def test_criterion_1_fixture_a_exact_spectrum_and_determinant(fixture_a):
    start = time.perf_counter()
    rep = sigma_full(fixture_a)
    assert rep.essential.points == (0.0, 2.0, 3.0)
    assert rep.essential.intervals == ()
    assert len(rep.discrete) == 1
    lam, mult = rep.discrete[0]
    assert abs(lam - 5.0) <= 1e-8 and mult == 1

    def closed_form(v):
        return v**2 * (5.0 - v) / ((v - 2.0) * (v - 3.0))

    assert abs(delta(fixture_a, 4.0) - 8.0) <= 1e-10
    assert abs(delta(fixture_a, 1.0) - 2.0) <= 1e-10
    assert abs(delta(fixture_a, 4.0) - closed_form(4.0)) <= 1e-10
    assert abs(delta(fixture_a, 1.0) - closed_form(1.0)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    print(f"criterion 1 PASS: exact essential + discrete + determinant ({elapsed:.2f}s)")


def test_criterion_2_randomized_constant_weight_sum_rule():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    basis = ["legendre(0)", "legendre(1)", "legendre(2)"]
    for trial in range(20):
        while True:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            a = np.round(rng.uniform(-4, 4, size=n), 3)
            b = np.round(rng.uniform(-4, 4, size=m), 3)
            excluded = sorted(set(np.concatenate([[0.0], a, b]).tolist()))
            sums = sorted({round(float(ai + bj), 12) for ai in a for bj in b})
            expected = [s for s in sums if all(abs(s - e) > 0.08 for e in excluded)]
            flat = excluded + sums
            separated = all(
                u == v or abs(u - v) > 0.08
                for i, u in enumerate(flat)
                for v in flat[i + 1:]
            )
            if separated and expected:
                break
        model = make_model(
            (0, 1), (0, 1),
            basis[:n], [repr(float(v)) for v in a],
            basis[:m], [repr(float(v)) for v in b],
        )
        got = [lam for lam, _ in discrete_spectrum(model)]
        assert len(got) == len(expected), (trial, got, expected)
        worst = max(abs(g - e) for g, e in zip(got, expected))
        assert worst <= 1e-7, (trial, worst)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    print(f"criterion 2 PASS: 20 randomized sum-rule models ({elapsed:.2f}s)")


def test_criterion_3_fixture_b_transcendental_root(fixture_b, oracle_b_200):
    start = time.perf_counter()
    reference = bisect_scalar(
        lambda lam: lam * np.log(lam / (lam - 1.0)) - 2.0, 1.2, 1.3
    )
    disc = discrete_spectrum(fixture_b)
    assert len(disc) == 1
    assert abs(disc[0][0] - reference) <= 1e-6
    assert abs(oracle_b_200[-1] - reference) <= 5e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 2min"
    print(
        "criterion 3 PASS: root "
        f"{disc[0][0]:.9f} vs reference {reference:.9f}, "
        f"oracle top {oracle_b_200[-1]:.9f} ({elapsed:.2f}s)"
    )


def test_criterion_4_resolvent_identities(fixture_a, fixture_b):
    rng = np.random.default_rng(404)
    for model, lams in ((fixture_a, (-1.0, 1.5, 10.0)), (fixture_b, (-1.0, 10.0))):
        for lam in lams:
            for _ in range(5):
                f = random_grid(model, rng)
                for channel in (1, 2):
                    r = resolvent_channel(model, channel, lam, f)
                    back = apply_partial(model, channel, r) - lam * r
                    assert (back - f).norm() <= 1e-9 * f.norm()
                g = random_grid(model, rng)
                r = resolvent_T(model, lam, g)
                back = apply_T(model, r) - lam * r
                assert (back - g).norm() <= 1e-8 * g.norm()
    print("criterion 4 PASS: channel and full resolvent identities")


def test_criterion_5_dual_path_zero_sets(fixture_a, fixture_b):
    for model in (fixture_a, fixture_b):
        d1 = discrete_spectrum(model)
        d2 = discrete_spectrum(model.mirrored())  # path 2: the channels in the other order
        assert len(d1) == len(d2)
        for (l1, _), (l2, _) in zip(d1, d2):
            assert abs(l1 - l2) <= 1e-7
    print("criterion 5 PASS: path 1 and path 2 root lists agree")


def test_criterion_6_second_kind_solver(fixture_a, fixture_b):
    rng = np.random.default_rng(606)
    for model, taus in ((fixture_a, (0.1, -0.35)), (fixture_b, (0.3, -2.0))):
        for tau in taus:
            g = random_grid(model, rng)
            f = solve_pie(model, tau, g)
            assert residual(model, tau, f, g) <= 1e-8
    with pytest.raises(NonUniqueSolution):
        solve_pie(fixture_a, 0.2, fixture_a.constant_grid(1.0))
    with pytest.raises(OutsideTheory):
        solve_pie(fixture_a, 0.5, fixture_a.constant_grid(1.0))
    print("criterion 6 PASS: regular solves plus both refusals")


def test_criterion_7_operator_algebra(fixture_c):
    model = make_model((0, 1), (0, 1),
                       ["legendre(0)", "legendre(1)"], ["1", "2"],
                       ["1"], ["3"])
    rng = np.random.default_rng(707)
    f = random_grid(model, rng)
    g = random_grid(model, rng)
    p1 = project(model, 1, 1, f)
    assert (project(model, 1, 1, p1) - p1).norm() <= 1e-12
    assert project(model, 1, 2, p1).norm() <= 1e-12
    lhs = apply_T(model, f).inner(g)
    rhs = f.inner(apply_T(model, g))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    # degrees 2..11: orthogonal to both channel-1 basis members
    witnesses = []
    for k in range(2, 12):
        coeff = np.zeros(k + 1)
        coeff[k] = np.sqrt(2.0 * k + 1.0)
        witnesses.append(
            model.grid(
                lambda x, y, c=coeff: np.polynomial.legendre.legval(2.0 * x - 1.0, c)
                * np.ones_like(y)
            )
        )
    for i, w in enumerate(witnesses):
        assert apply_partial(model, 1, w).norm() <= 1e-12
        assert abs(w.norm() - 1.0) <= 1e-12
        for v in witnesses[i + 1:]:
            assert abs(w.inner(v)) <= 1e-12

    for level in (2.0, 4.0):
        atom = atom_eigenfunction(fixture_c, 1, 1, level)
        err = (apply_T(fixture_c, atom) - level * atom).norm()
        assert err <= 1e-10
    print("criterion 7 PASS: projectors, symmetry, null family, atoms")


def test_criterion_8_oracle_containment_and_agreement(
    fixture_a, fixture_b, oracle_b_200
):
    only1 = make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["0"])
    eigs = oracle_eigs(nystrom_matrix(only1, 100, 100))
    for e in eigs:
        dist = min(abs(e), max(0.0, -e, e - 1.0))
        assert dist <= 2e-2

    rep_a = sigma_full(fixture_a)
    eigs_a = oracle_eigs(nystrom_matrix(fixture_a, 10, 10))
    assert compare_spectra(rep_a, eigs_a, 1e-9, 1e-9).ok

    rep_b = sigma_full(fixture_b)
    assert compare_spectra(rep_b, oracle_b_200, 5e-3, 5e-3).ok
    print("criterion 8 PASS: containment at 100x100, zero mismatches on both models")


def test_criterion_9_determinant_holomorphy(fixture_b):
    lam, h = 2.5 + 0.5j, 1e-4
    dx = (delta(fixture_b, lam + h) - delta(fixture_b, lam - h)) / (2.0 * h)
    dy = (delta(fixture_b, lam + 1j * h) - delta(fixture_b, lam - 1j * h)) / (2.0j * h)
    rel = abs(dx - dy) / abs(dx)
    assert rel < 1e-6
    print(f"criterion 9 PASS: Cauchy-Riemann residual {rel:.2e}")
