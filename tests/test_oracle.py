"""Discretization oracle: grid rules, matrix structure, eigenvalues,
comparison against analytic reports.

The 10x10 eigenvalue multiset of model A is pinned from the rank structure
of the two channel factors on the grid: each channel is a rank-one
projector in its own variable, so the products split the 100-dimensional
grid space into blocks of dimension 1, 9, 9 and 81 with eigenvalues
2+3, 2, 3 and 0.
"""

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
        M = nystrom_matrix(model, n, n).matrix
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
    assert np.max(np.abs(sys.matrix)) == 0.0
    assert np.max(np.abs(oracle_eigs(sys))) == 0.0


def test_grid_size_validation(fixture_a):
    with pytest.raises(PioError):
        nystrom_matrix(fixture_a, 0, 5)


def test_dense_matrix_refused_when_huge(fixture_b):
    sys = nystrom_matrix(fixture_b, 200, 200)
    assert sys.size == 40000
    with pytest.raises(PioError):
        sys.matrix


def test_compression_matches_dense(fixture_b):
    # Tiny grids of an n = m = 2 model take the same path.  With Nx <= n or
    # Ny <= m the span of the n*Ny + m*Nx range vectors is the whole grid
    # space and the compression is a change of basis; 4x4 and 7x3 fall short.
    two = make_model((0, 1), (0, 1), ["legendre(0)", "legendre(1)"], ["t+2", "1-t"],
                     ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])
    grids = [(fixture_b, 18, 21), *((two, nx, ny) for nx, ny in
                                     ((1, 1), (2, 1), (2, 3), (7, 2), (1, 5), (4, 4), (7, 3)))]
    for model, nx, ny in grids:
        sys = nystrom_matrix(model, nx, ny)
        dense = np.sort(np.linalg.eigvalsh(sys.matrix))
        assert np.max(np.abs(dense - _compressed_eigs(sys))) < 1e-10
        assert np.array_equal(oracle_eigs(sys), _compressed_eigs(sys))


def test_compression_matches_dense_rank_two_channel():
    m = make_model((0, 1), (0, 1), ["1"], ["t+2"],
                   ["legendre(0)", "legendre(1)"], ["t+4", "t/2"])
    sys = nystrom_matrix(m, 16, 15)
    dense = np.sort(np.linalg.eigvalsh(sys.matrix))
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
