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
matrix with ``Nx*Ny`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, PioError
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
    weights_x: np.ndarray
    nodes_y: np.ndarray
    weights_y: np.ndarray
    a: np.ndarray  # channel-1 basis at nodes_x, scaled by sqrt(weights_x)
    h: np.ndarray  # channel-1 weights at nodes_y
    b: np.ndarray  # channel-2 basis at nodes_y, scaled by sqrt(weights_y)
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
    weights never sit inside a panel), allotted per panel by length.
    """
    if not all(not isinstance(n, (bool, np.bool_)) and 1 <= n < np.inf and n == int(n) for n in (Nx, Ny)):
        raise PioError(f"grid sizes must be whole numbers of at least 1, got {Nx}x{Ny}")
    xs, wx = _axis_rule(model.rule_x.panel_edges, int(Nx))
    ys, wy = _axis_rule(model.rule_y.panel_edges, int(Ny))
    sx, sy = np.sqrt(wx), np.sqrt(wy)
    a = np.array([f(xs) for f in model.channel1.basis]) * sx
    h = np.array([f(ys) for f in model.channel1.weights])
    b = np.array([f(ys) for f in model.channel2.basis]) * sy
    p = np.array([f(xs) for f in model.channel2.weights])
    return NystromSystem(xs, wx, ys, wy, a, h, b, p)


def _row_basis(factor):
    """Orthogonal ``Q`` whose first ``rank`` columns span the row space of
    ``factor`` and whose others span its complement.

    Singular values at most ``1e-12 * s_max`` count as zero, so a factor
    that vanishes on every node has rank 0.
    """
    _, svals, vt = np.linalg.svd(factor)
    return vt.T, int(np.sum(svals > 1e-12 * svals.max(initial=0.0)))


def _kron_sum(left, right):
    """``sum_j kron(left[j], right[j])`` for two stacks of matrices."""
    (_, r1, c1), (_, r2, c2) = left.shape, right.shape
    return np.tensordot(left, right, axes=(0, 0)).transpose(0, 2, 1, 3).reshape(r1 * r2, c1 * c2)


def _outers(u, v):
    """The stack of ``outer(u[j], v[j])``."""
    return u[:, :, None] * v[:, None, :]


def _compressed_eigs(sys):
    """All eigenvalues via the exact range compression described on top."""
    qx, ra = _row_basis(sys.a)
    qy, rb = _row_basis(sys.b)
    c = sys.a @ qx[:, :ra]  # rows c_k = Qa^T a_k
    bq = sys.b @ qy[:, :rb]  # rows Qb^T b_j
    pq = qx.T @ (sys.p[:, :, None] * qx)  # Q^T diag(p_j) Q for Q = [Qa, Qa_perp]
    x11 = _kron_sum(_outers(c, c), sys.h[:, :, None] * np.eye(sys.ny))
    x11 += _kron_sum(pq[:, :ra, :ra], _outers(sys.b, sys.b))
    x12 = _kron_sum(pq[:, :ra, ra:], _outers(sys.b, bq))
    x22 = _kron_sum(pq[:, ra:, ra:], _outers(bq, bq))
    eigs = np.linalg.eigvalsh(np.block([[x11, x12], [x12.T, x22]]))
    return np.sort(np.concatenate([np.zeros(sys.size - eigs.size), eigs]))


def oracle_eigs(sys):
    """Sorted real eigenvalues of the discretized operator.

    One path for every grid: the exact range compression described on top,
    whose eigensolve has the size ``ra*Ny + (Nx - ra)*rb`` of the range, at
    most ``n*Ny + m*Nx``, and which is what makes 200 nodes per axis
    affordable.
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


def compare_spectra(report, eigs, tol_disc, tol_ess):
    """Two-sided check of a spectrum report against oracle eigenvalues.

    Every claimed discrete eigenvalue must be matched by some oracle
    eigenvalue within ``tol_disc``; every oracle eigenvalue larger than
    ``tol_ess`` in magnitude must lie within ``tol_ess`` of the essential
    set or within ``tol_disc`` of a discrete eigenvalue.  Failures are
    returned as data, one entry each.  Both tolerances must be finite and
    at least 0, the eigenvalues finite; a NaN one would pass every check.
    """
    for name, tol in (("tol_disc", tol_disc), ("tol_ess", tol_ess)):
        if not 0.0 <= tol < np.inf:
            raise PioError(f"{name} must be finite and >= 0, got {tol}")
    eigs = np.asarray(eigs, dtype=float)
    if not np.isfinite(eigs).all():
        raise PioError(f"oracle eigenvalues must be finite, got {eigs[~np.isfinite(eigs)][0]}")
    discrete = np.array([lam for lam, _ in report.discrete], dtype=float)
    gaps = np.abs(eigs[:, None] - discrete)  # (eigs, discrete)
    missing = discrete[gaps.min(axis=0, initial=np.inf) > tol_disc]
    unexplained = eigs[
        (np.abs(eigs) > tol_ess)
        & (report.essential.distances(eigs) > tol_ess)
        & (gaps.min(axis=1, initial=np.inf) > tol_disc)
    ]
    mismatches = [{"kind": "missing-discrete", "value": float(lam)} for lam in missing]
    mismatches += [{"kind": "unexplained-eigenvalue", "value": float(e)} for e in unexplained]
    return ComparisonReport(not mismatches, tuple(mismatches), int(eigs.size))
