"""Brute-force cross-check: quadrature discretization of the whole operator.

This module deliberately avoids the spectral reduction machinery.  It
samples both kernels on a tensor quadrature grid, symmetrizes by square
roots of the weights so an ordinary symmetric eigensolver applies (the
scaling is a similarity, eigenvalues are untouched), and compares the
resulting eigenvalues against an analytic spectrum report.

Because both kernels are sums of separable terms the discretized matrix is

    S = sum_k (a_k a_k^T) kron diag(h_k)  +  sum_j diag(p_j) kron (b_j b_j^T)

with ``a_k = phi_k(x) sqrt(wx)`` and ``b_j = psi_j(y) sqrt(wy)``; its range
lies in the span of the vectors ``a_k kron e_y`` and ``e_x kron b_j``.  With
``Qa`` (Nx x ra) an orthonormal basis of the row space of the n x Nx factor
``a``, ``Qa_perp`` its complement and ``Qb`` (Ny x rb) that of ``b``, the
span has the orthonormal basis ``[Qa kron I, Qa_perp kron Qb]`` of size
``r = ra*Ny + (Nx - ra)*rb``, and ``Qa_perp^T a_k = 0`` leaves the projected
matrix three Kronecker-sum blocks.  Its eigenvalues are every nonzero
eigenvalue of ``S`` exactly (up to roundoff); the other ``Nx*Ny - r`` are
zeros.  This holds on every grid, also where the span is the whole space
(the projection is then a change of basis), so the eigensolve needs only
SVDs of the two small factors and one ``eigvalsh`` of size ``r``, never a
matrix with ``Nx*Ny`` rows, and no Kronecker product is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, PioError, _numeric, _tolerance, _whole
from .quadrature import _gauss_reference

__all__ = [
    "NystromSystem",
    "nystrom_matrix",
    "oracle_eigs",
    "ComparisonReport",
    "compare_spectra",
]


def _axis_rule(panel_edges, total):
    """Distribute ``total`` quadrature nodes over panels by length.

    Every panel gets at least one node, at least two when the budget allows;
    leftovers go to the panels with the largest fractional entitlement.
    """
    edges = np.asarray(panel_edges, dtype=float)
    lengths = np.diff(edges)
    count = len(lengths)
    floor = 2 if total >= 2 * count else 1
    share = lengths / lengths.sum() * total
    orders = np.maximum(floor, np.floor(share).astype(int))
    want = max(total, floor * count)
    # hand out (or claw back) the difference by fractional remainder
    while orders.sum() < want:
        orders[np.argmax(share - orders)] += 1
    while orders.sum() > want and np.any(orders > floor):
        over = np.where(orders > floor, share - orders, np.inf)
        orders[np.argmin(over)] -= 1
    nodes = []
    weights = []
    for lo, hi, order in zip(edges[:-1], edges[1:], orders):
        x, w = _gauss_reference(int(order))
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x + 1.0))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True, eq=False)
class NystromSystem:
    """Symmetrized grid discretization of the two-channel operator: the
    grid and the low-rank factors of the matrix described on top, which is
    never assembled."""

    nodes_x: np.ndarray
    nodes_y: np.ndarray
    a: np.ndarray  # channel-1 basis at nodes_x, scaled by sqrt(wx)
    h: np.ndarray  # channel-1 weights at nodes_y
    b: np.ndarray  # channel-2 basis at nodes_y, scaled by sqrt(wy)
    p: np.ndarray  # channel-2 weights at nodes_x

    @property
    def nx(self):
        return len(self.nodes_x)

    @property
    def ny(self):
        return len(self.nodes_y)

    @property
    def size(self):
        return self.nx * self.ny


def nystrom_matrix(model, Nx, Ny):
    """Discretize the model on an Nx-by-Ny tensor quadrature grid.

    Nodes are Gauss points on the model's panels (so kinks and steps of the
    weights never sit inside a panel), allotted per panel by length.  Sizes
    must be whole numbers in ``[1, 2**63)`` by ``_whole``, else ``PioError``.
    """
    xs, wx = _axis_rule(model.rule_x.panel_edges, _whole(Nx, "Nx"))
    ys, wy = _axis_rule(model.rule_y.panel_edges, _whole(Ny, "Ny"))
    sx, sy = np.sqrt(wx), np.sqrt(wy)
    a = np.array([f(xs) for f in model.channel1.basis]) * sx
    h = np.array([f(ys) for f in model.channel1.weights])
    b = np.array([f(ys) for f in model.channel2.basis]) * sy
    p = np.array([f(xs) for f in model.channel2.weights])
    return NystromSystem(xs, ys, a, h, b, p)


def _row_basis(factor):
    """Orthogonal ``Q`` whose first ``rank`` columns span the row space of
    ``factor`` and whose others span its complement.

    Singular values at most ``1e-12 * s_max`` count as zero, so a factor
    that vanishes on every node has rank 0.
    """
    _, svals, vt = np.linalg.svd(factor)
    return vt.T, int(np.sum(svals > 1e-12 * svals.max(initial=0.0)))


def _compressed_eigs(sys):
    """All eigenvalues via the exact range compression described on top.

    The ``r x r`` matrix is allocated once and only its lower triangle is
    filled, which is all ``eigvalsh`` (``UPLO='L'``) reads: the blocks x11,
    x21 and x22, indexed row-major by ``(i, y)`` on ``Qa kron I`` and
    ``(i, l)`` on ``Qa_perp kron Qb``.  Each block's channel-2 term is one
    GEMM over ``j`` whose output is already in that layout; the channel-1
    term, diagonal in ``y``, is added to x11 through a strided view.
    """
    qx, ra = _row_basis(sys.a)
    qy, rb = _row_basis(sys.b)
    c = sys.a @ qx[:, :ra]  # rows c_k = Qa^T a_k
    bq = sys.b @ qy[:, :rb]  # rows Qb^T b_j
    pq = qx.T @ (sys.p[:, :, None] * qx)  # Q^T diag(p_j) Q for Q = [Qa, Qa_perp]
    ny, r1 = sys.ny, ra * sys.ny
    M = np.zeros((r1 + (sys.nx - ra) * rb,) * 2)

    def block(rows, cols, left, right):
        """``sum_j kron(pq_j[rows, cols], outer(left_j, right_j))``."""
        stack = pq[:, rows, None, cols] * left[:, None, :, None]  # (j, row, left, col)
        _, nr, nl, nc = stack.shape
        return (stack.reshape(len(pq), -1).T @ right).reshape(nr * nl, nc * right.shape[1])

    head, tail = slice(None, ra), slice(ra, None)
    M[:r1, :r1] = block(head, head, sys.b, sys.b)
    M[r1:, :r1] = block(tail, head, bq, sys.b)
    M[r1:, r1:] = block(tail, tail, bq, bq)
    # channel 1: sum_k outer(c_k, c_k) h_k(y) on the diagonal y = y'
    ys = np.arange(ny)
    M[:r1, :r1].reshape(ra, ny, ra, ny)[:, ys, :, ys] += (
        sys.h.T @ (c[:, :, None] * c[:, None, :]).reshape(len(c), -1)).reshape(ny, ra, ra)
    eigs = np.linalg.eigvalsh(M)
    return np.sort(np.concatenate([np.zeros(sys.size - eigs.size), eigs]))


def oracle_eigs(sys):
    """Sorted real eigenvalues of the discretized operator.

    One path for every grid: the exact range compression described on top,
    whose eigensolve has the size ``r = ra*Ny + (Nx - ra)*rb`` of the range,
    at most ``n*Ny + m*Nx``, and which is what makes 200 nodes per axis
    affordable.  The ``eigvalsh`` of size ``r`` is the cost: on ramp-4
    (``n = m = 4``) at ``N = 80``, ``r = 624``, it takes 28 of the 31 ms of
    a call, and ramp-8 at ``N = 160`` (``r = 2496``) takes 1.7 s with a
    process peak of 153 MB (one BLAS thread, 2-vCPU Xeon).  Python's traced
    peak is about ``1.6 * 8r^2`` bytes, the matrix and its largest block;
    LAPACK's own copy of the matrix comes on top.
    """
    try:
        return _compressed_eigs(sys)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of checking discretized eigenvalues against an analysis."""

    ok: bool
    mismatches: tuple
    checked: int


def _nearest_gap(values, ordered):
    """Distance from each of ``values`` to the nearest entry of the sorted
    array ``ordered`` (``inf`` where it is empty): one ``searchsorted``."""
    padded = np.concatenate(([-np.inf], ordered, [np.inf]))
    at = np.searchsorted(ordered, values)
    return np.minimum(values - padded[at], padded[at + 1] - values)


def compare_spectra(report, eigs, tol_disc, tol_ess):
    """Two-sided check of a spectrum report against oracle eigenvalues.

    Every claimed discrete eigenvalue must be matched by some oracle
    eigenvalue within ``tol_disc``; every oracle eigenvalue larger than
    ``tol_ess`` in magnitude must lie within ``tol_ess`` of the essential
    set or within ``tol_disc`` of a discrete eigenvalue.  Failures are
    returned as data, one entry each, in input order.  Nearest neighbours
    are found by ``searchsorted`` on a sorted copy, and only eigenvalues
    above ``tol_ess`` in magnitude meet the report, so the ``Nx*Ny - r``
    zeros of ``oracle_eigs`` cost one comparison each.  Both tolerances must
    pass ``_tolerance``, and the eigenvalues must be a 1-d array of finite reals
    by ``_numeric`` (``PioError``); a NaN would pass every check.
    """
    tol_disc, tol_ess = _tolerance(tol_disc, "tol_disc"), _tolerance(tol_ess, "tol_ess")
    eigs = _numeric(eigs, "oracle eigenvalues", real=True, ndim=1, error=PioError)
    discrete = np.array([lam for lam, _ in report.discrete], dtype=float)
    missing = discrete[_nearest_gap(discrete, np.sort(eigs)) > tol_disc]
    unexplained = eigs[np.abs(eigs) > tol_ess]
    unexplained = unexplained[report.essential.distances(unexplained) > tol_ess]
    unexplained = unexplained[_nearest_gap(unexplained, np.sort(discrete)) > tol_disc]
    mismatches = [{"kind": "missing-discrete", "value": float(lam)} for lam in missing]
    mismatches += [{"kind": "unexplained-eigenvalue", "value": float(e)} for e in unexplained]
    return ComparisonReport(not mismatches, tuple(mismatches), int(eigs.size))
