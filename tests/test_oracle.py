"""Discretization oracle: grid rules, matrix structure, eigenvalues,
comparison against analytic reports.

The 10x10 eigenvalue multiset of model A is pinned from the rank structure
of the two channel factors on the grid: each channel is a rank-one
projector in its own variable, so the products split the 100-dimensional
grid space into blocks of dimension 1, 9, 9 and 81 with eigenvalues
2+3, 2, 3 and 0.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from pio.errors import PioError
from pio.model import make_model
from pio.oracle import (
    _axis_rule,
    _compressed_eigs,
    compare_spectra,
    nystrom_matrix,
    oracle_eigs,
)
from pio.spectrum import sigma_full


def legendre_model(n, m, weights1, weights2):
    """Legendre bases of sizes n and m on the unit square."""
    return make_model((0, 1), (0, 1), [f"legendre({k})" for k in range(n)], weights1,
                      [f"legendre({k})" for k in range(m)], weights2)


def dense_matrix(sys):
    """The ``Nx*Ny`` square matrix the factors stand for:
    ``sum_k (a_k a_k^T) kron diag(h_k) + sum_j diag(p_j) kron (b_j b_j^T)``."""
    out = np.zeros((sys.size, sys.size))
    for a, h in zip(sys.a, sys.h):
        out += np.kron(np.outer(a, a), np.diag(h))
    for b, p in zip(sys.b, sys.p):
        out += np.kron(np.diag(p), np.outer(b, b))
    return out


def assert_matches_dense(sys):
    """``oracle_eigs`` against ``eigvalsh`` of the dense matrix, and its exact
    zeros against the size ``ra*Ny + (Nx - ra)*rb`` of the range."""
    dense = np.sort(np.linalg.eigvalsh(dense_matrix(sys)))
    fast = _compressed_eigs(sys)
    assert np.max(np.abs(dense - fast)) < 1e-10
    assert np.array_equal(oracle_eigs(sys), fast)
    ra, rb = np.linalg.matrix_rank(sys.a), np.linalg.matrix_rank(sys.b)
    assert np.sum(fast == 0.0) == sys.size - (ra * sys.ny + (sys.nx - ra) * rb)


def multiset(eigs, digits=9):
    vals, counts = np.unique(np.round(eigs, digits), return_counts=True)
    return dict(zip(vals.tolist(), counts.tolist()))


def test_axis_rule_respects_panels():
    nodes, weights = _axis_rule((0.0, 0.5, 1.0), 10)
    assert len(nodes) == 10
    assert abs(weights.sum() - 1.0) < 1e-14
    assert np.all((nodes > 0) & (nodes < 1))
    # no node sits on the interior edge, and both sides are populated
    assert np.sum(nodes < 0.5) >= 2 and np.sum(nodes > 0.5) >= 2


def test_axis_rule_minimum_allocation():
    nodes, _ = _axis_rule((0.0, 0.1, 0.2, 1.0), 6)
    assert np.sum(nodes < 0.1) == 2  # short panels still get two nodes
    nodes1, weights1 = _axis_rule((0.0, 1.0), 1)
    assert len(nodes1) == 1 and abs(nodes1[0] - 0.5) < 1e-15
    assert abs(weights1[0] - 1.0) < 1e-15


def test_axis_rule_proportional_to_length():
    nodes, _ = _axis_rule((0.0, 0.75, 1.0), 40)
    assert np.sum(nodes < 0.75) == 30


def test_matrix_symmetric(fixture_a, fixture_b):
    for model, n in ((fixture_a, 10), (fixture_b, 14)):
        M = dense_matrix(nystrom_matrix(model, n, n))
        assert np.max(np.abs(M - M.T)) < 1e-12


def test_fixture_a_multiset(fixture_a):
    eigs = oracle_eigs(nystrom_matrix(fixture_a, 10, 10))
    assert multiset(eigs) == {0.0: 81, 2.0: 9, 3.0: 9, 5.0: 1}


def test_fixture_a_single_node(fixture_a):
    eigs = oracle_eigs(nystrom_matrix(fixture_a, 1, 1))
    assert eigs.shape == (1,)
    assert abs(eigs[0] - 5.0) < 1e-12


def test_zero_model_all_zero():
    m = make_model((0, 1), (0, 1), ["1"], ["0"], ["1"], ["0"])
    sys = nystrom_matrix(m, 6, 7)
    assert np.max(np.abs(dense_matrix(sys))) == 0.0
    assert np.max(np.abs(oracle_eigs(sys))) == 0.0


def test_grid_size_validation(fixture_a):
    # "3", None, [3] and np.array([3]) raised a raw TypeError, and 1e300 an
    # "invalid value encountered in cast" RuntimeWarning
    refusals = [
        (0, 5, "Nx must be >= 1, got 0"),
        (float("nan"), 5, "Nx nan is not finite"),
        (5, float("inf"), "Ny inf is not finite"),
        (2.5, 3, "Nx must be a whole number, got 2.5"),
        ("3", 3, "Nx must be a number, got '3'"),
        (3, None, "Ny must be a number, got None"),
        ([3], 3, "Nx must be one number, got shape (1,)"),
        (3, np.array([3]), "Ny must be one number, got shape (1,)"),
        (1e300, 3, f"Nx must be <= {2**63 - 1}, got 1e+300"),
        (3, 3 + 0j, "Ny (3+0j) is not real"),
    ]
    for nx, ny, message in refusals:
        with pytest.raises(PioError, match=f"^{re.escape(message)}$"):
            nystrom_matrix(fixture_a, nx, ny)
    assert nystrom_matrix(fixture_a, np.int64(3), np.float64(4.0)).size == 12


def test_compression_matches_dense(fixture_b):
    # Tiny grids of an n = m = 2 model take the same path.  With Nx <= n or
    # Ny <= m the range is the whole grid space and the compression is a
    # change of basis; 4x4 and 7x3 fall short.
    two = make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["t+2", "1-t"],
                     ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])
    grids = [(fixture_b, 18, 21), *((two, nx, ny) for nx, ny in
                                     ((1, 1), (2, 1), (2, 3), (7, 2), (1, 5), (4, 4), (7, 3)))]
    for model, nx, ny in grids:
        assert_matches_dense(nystrom_matrix(model, nx, ny))


FACTOR_SHAPES = {
    # legendre(1) vanishes at the midpoint, the only node of Nx = 1: rank 0
    "zero factor": (legendre_model(1, 1, ["t+2"], ["t+4"]), 1, 5),
    "rank-deficient factor": (legendre_model(2, 2, ["t+2", "1-t"], ["t+4", "t/2"]), 1, 6),
    "n=3, m=1": (legendre_model(3, 1, ["t+2", "1-t", "3*t"], ["t+4"]), 9, 7),
    "n=1, m=3": (legendre_model(1, 3, ["t+2"], ["t+4", "t/2", "2-t"]), 7, 9),
    "panels": (legendre_model(2, 1, ["t+2", "piecewise([0,0.4]:t+1; [0.4,1]:3-t)"],
                              ["piecewise([0,0.3]:2; [0.3,1]:t-4)"]), 11, 13),
    "near the dense cap": (legendre_model(3, 2, ["t+2", "1-t", "3*t"], ["t+4", "t/2"]), 48, 80),
    "n=m=4, Nx != Ny": (legendre_model(4, 4, ["t+2", "1-t", "3*t", "t*t"],
                                       ["t+4", "t/2", "2-t", "1+t*t"]), 13, 11),
}


@pytest.mark.parametrize("model,nx,ny", FACTOR_SHAPES.values(), ids=FACTOR_SHAPES.keys())
def test_compression_matches_dense_on_every_factor_shape(model, nx, ny):
    assert_matches_dense(nystrom_matrix(model, nx, ny))


def test_the_compression_holds_about_one_r_by_r_matrix():
    # ramp-4 at N = 60, r = 464: with x12 and np.block's copy built the traced
    # peak was 2.85 * 8r^2 bytes; one lower-triangle buffer keeps it below 2
    model = legendre_model(4, 4, [f"{k + 1}*t" for k in range(4)], [f"{k + 1}*t^2" for k in range(4)])
    sys = nystrom_matrix(model, 60, 60)
    r = 4 * 60 + (60 - 4) * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert np.sum(oracle_eigs(sys) == 0.0) == sys.size - r
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * r * r


def test_compression_matches_dense_rank_two_channel():
    m = make_model((0, 1), (0, 1), ["1"], ["t+2"],
                   ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])
    sys = nystrom_matrix(m, 16, 15)
    dense = np.sort(np.linalg.eigvalsh(dense_matrix(sys)))
    fast = _compressed_eigs(sys)
    assert np.max(np.abs(dense - fast)) < 1e-10


def test_double_eigenvalue_shows_up_with_multiplicity():
    m = make_model((0, 1), (0, 1),
                   ["legendre(0)", "legendre(1)"], ["1", "3"],
                   ["legendre(0)", "legendre(1)"], ["2.2", "0.2"])
    eigs = oracle_eigs(nystrom_matrix(m, 8, 8))
    counts = multiset(eigs, digits=8)
    assert counts[3.2] == 2 and counts[1.2] == 1 and counts[5.2] == 1


def test_top_eigenvalue_matches_analysis_nonconstant_weights():
    m = make_model((0, 1), (0, 1), ["1"], ["t+2"],
                   ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])
    from pio.spectrum import discrete_spectrum

    lam = discrete_spectrum(m)[0][0]
    eigs = oracle_eigs(nystrom_matrix(m, 60, 60))
    assert abs(eigs[-1] - lam) < 1e-6


def test_richardson_stability_fixture_b(fixture_b, oracle_b_200):
    e100 = oracle_eigs(nystrom_matrix(fixture_b, 100, 100))
    assert abs(e100[-1] - oracle_b_200[-1]) < 2e-3


def test_compare_spectra_fixture_a(fixture_a):
    rep = sigma_full(fixture_a)
    eigs = oracle_eigs(nystrom_matrix(fixture_a, 10, 10))
    cmp = compare_spectra(rep, eigs, 1e-9, 1e-9)
    assert cmp.ok and cmp.mismatches == ()
    assert cmp.checked == 100


def test_compare_spectra_fixture_b(fixture_b):
    rep = sigma_full(fixture_b)
    eigs = oracle_eigs(nystrom_matrix(fixture_b, 100, 100))
    cmp = compare_spectra(rep, eigs, 5e-3, 5e-3)
    assert cmp.ok


def test_compare_spectra_flags_corruption(fixture_a):
    from dataclasses import replace

    rep = sigma_full(fixture_a)
    eigs = oracle_eigs(nystrom_matrix(fixture_a, 10, 10))
    bad = replace(rep, discrete=((4.9, 1),))
    cmp = compare_spectra(bad, eigs, 1e-9, 1e-9)
    assert not cmp.ok
    assert len(cmp.mismatches) >= 1
    kinds = {m["kind"] for m in cmp.mismatches}
    assert "missing-discrete" in kinds
    values = {round(m["value"], 6) for m in cmp.mismatches}
    assert 4.9 in values


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("which", ["tol_disc", "tol_ess"])
def test_compare_spectra_refuses_bad_tolerances(fixture_b, which, tol):
    # a NaN tolerance used to pass every check: ok was True where 1e-14 gives False
    rep, eigs = sigma_full(fixture_b), oracle_eigs(nystrom_matrix(fixture_b, 20, 20))
    assert not compare_spectra(rep, eigs, 1e-14, 1e-14).ok
    tols = {"tol_disc": 1e-14, "tol_ess": 1e-14, which: tol}
    message = f"{which} must be finite and >= 0, got {tol!r}" if math.isfinite(tol) else f"{which} {tol!r} is not finite"
    with pytest.raises(PioError, match=f"^{re.escape(message)}$"):
        compare_spectra(rep, eigs, **tols)


NOT_REAL_TOLERANCES = {
    "1e-6": ("1e-6", "must be a number, got '1e-6'"),
    "None": (None, "must be a number, got None"),
    "(1e-06+0j)": (1e-6 + 0j, "(1e-06+0j) is not real"),
    "True": (True, "must be a number, got True"),
    "tol4": (np.array([1e-6]), "must be one number, got shape (1,)"),
}


@pytest.mark.parametrize("tol,message", NOT_REAL_TOLERANCES.values(), ids=NOT_REAL_TOLERANCES)
@pytest.mark.parametrize("which", ["tol_disc", "tol_ess"])
def test_compare_spectra_refuses_tolerances_that_are_not_real_numbers(fixture_a, which, tol, message):
    # a string, None or complex raised a raw TypeError; True passed as 1.0 and
    # a one-element array as its element
    rep, eigs = sigma_full(fixture_a), oracle_eigs(nystrom_matrix(fixture_a, 4, 4))
    tols = {"tol_disc": 1e-6, "tol_ess": 1e-6, which: tol}
    with pytest.raises(PioError, match=f"^{re.escape(f'{which} {message}')}$"):
        compare_spectra(rep, eigs, **tols)
    assert compare_spectra(rep, eigs, np.float64(1e-6), 1).ok  # numpy and int tolerances pass


@pytest.mark.parametrize("eigs,message", [
    (5.0, "must be a one-dimensional array, got shape ()"),
    (np.ones((2, 2)), "must be a one-dimensional array, got shape (2, 2)"),
    (np.array([5.0 + 0j, 2.0]), "must be real, got a complex array"),
    (["5.0"], "must be a number, got ['5.0']"),
    (np.array([True, False]), f"must be a number, got {np.array([True, False])!r}"),
], ids=["5.0", "eigs1", "eigs2", "eigs3", "eigs4"])
def test_compare_spectra_refuses_eigenvalues_that_are_not_a_real_vector(fixture_a, eigs, message):
    # a scalar or a 2-d array raised IndexError, a complex array ComplexWarning
    with pytest.raises(PioError, match=f"^{re.escape(f'oracle eigenvalues {message}')}$"):
        compare_spectra(sigma_full(fixture_a), eigs, 1e-6, 1e-6)


@pytest.mark.parametrize("eigs,message", [
    ([5.0, float("nan")], "nan is not finite"),
    ([float("nan")], "nan is not finite"),
    ([float("inf"), 2.0], "inf is not finite"),
], ids=["eigs0", "eigs1", "eigs2"])
def test_compare_spectra_refuses_non_finite_eigenvalues(fixture_a, eigs, message):
    # a NaN oracle eigenvalue used to pass: ok was True with no mismatch
    with pytest.raises(PioError, match=f"^{re.escape(f'oracle eigenvalues {message}')}$"):
        compare_spectra(sigma_full(fixture_a), eigs, 1e-6, 1e-6)


def test_compare_spectra_ignores_zero_cluster(fixture_a):
    rep = sigma_full(fixture_a)
    # tiny eigenvalues below tol_ess are not even checked
    eigs = np.array([1e-12, -3e-11, 2.0, 3.0, 5.0])
    cmp = compare_spectra(rep, eigs, 1e-8, 1e-8)
    assert cmp.ok


def test_channel_one_only_containment():
    m = make_model((0, 1), (0, 1), ["1"], ["t"], ["1"], ["0"])
    eigs = oracle_eigs(nystrom_matrix(m, 100, 100))
    for e in eigs:
        dist = min(abs(e), max(0.0, -e, e - 1.0))
        assert dist < 2e-2


def compare_by_loop(report, eigs, tol_disc, tol_ess):
    """Reference for ``compare_spectra``: one eigenvalue at a time."""
    discrete = [lam for lam, _ in report.discrete]
    mismatches = []
    for lam in discrete:
        if eigs.size == 0 or np.min(np.abs(eigs - lam)) > tol_disc:
            mismatches.append({"kind": "missing-discrete", "value": float(lam)})
    for e in eigs:
        if abs(e) <= tol_ess or report.essential.distance(e) <= tol_ess:
            continue
        if discrete and min(abs(e - lam) for lam in discrete) <= tol_disc:
            continue
        mismatches.append({"kind": "unexplained-eigenvalue", "value": float(e)})
    return not mismatches, tuple(mismatches), int(eigs.size)


def test_compare_spectra_matches_the_loop(fixture_a, fixture_b):
    from dataclasses import replace

    rep_a, rep_b = sigma_full(fixture_a), sigma_full(fixture_b)
    eigs_a = oracle_eigs(nystrom_matrix(fixture_a, 10, 10))
    eigs_b = oracle_eigs(nystrom_matrix(fixture_b, 30, 30))
    cases = [
        (rep_a, eigs_a, 1e-9, 1e-9),
        (replace(rep_a, discrete=((4.9, 1), (5.0, 1), (7.5, 2))), eigs_a, 1e-9, 1e-9),
        (replace(rep_a, discrete=()), eigs_a, 1e-9, 1e-9),
        (rep_a, np.array([1e-12, -3e-11, 2.0, 3.0, 4.0, 5.0, 6.0]), 1e-8, 1e-8),
        (rep_a, np.zeros(0), 1e-9, 1e-9),
        (replace(rep_a, discrete=((7.5, 2), (4.9, 1))), np.array([6.0, 2.0, 4.0, -1e-12, 4.9, 5.0]),
         1e-8, 1e-8),
        (rep_b, eigs_b, 5e-3, 5e-3),
        (rep_b, eigs_b, 1e-6, 1e-6),
        (replace(rep_b, discrete=()), eigs_b, 1e-6, 1e-6),
        # padded zero clusters, unsorted input, a discrete value within tol_disc of 0
        (replace(rep_a, discrete=((5e-10, 1), (5.0, 1))), np.concatenate([eigs_a[::-1], np.zeros(50)]),
         1e-9, 1e-9),
        (replace(rep_a, discrete=((5e-10, 1), (5.0, 1))), np.array([5.0, 2.0, 3.0, 1e-3]), 1e-9, 1e-9),
        (replace(rep_a, discrete=((3e-7, 1), (5.0, 1))),
         np.array([7e-6, 5e-7, 0.0, -2e-7, 5.0, 0.0, -0.0, 3.0, -4e-6, 2.0, 0.0]), 1e-6, 1e-12),
        (replace(rep_b, discrete=((1.5, 1), *rep_b.discrete)),
         np.random.default_rng(3).permutation(np.concatenate([eigs_b, np.zeros(200), [-0.5, 1.2]])),
         1e-6, 1e-6),
    ]
    for report, eigs, tol_disc, tol_ess in cases:
        cmp = compare_spectra(report, eigs, tol_disc, tol_ess)
        reference = compare_by_loop(report, eigs, tol_disc, tol_ess)
        assert (cmp.ok, cmp.mismatches, cmp.checked) == reference
    # the cases reach every kind of outcome
    kinds = {m["kind"] for report, eigs, *tols in cases
             for m in compare_spectra(report, eigs, *tols).mismatches}
    assert kinds == {"missing-discrete", "unexplained-eigenvalue"}
