"""Brute-force cross-check: quadrature discretization of the whole operator.

This module deliberately avoids the spectral reduction machinery.  It
samples both kernels on a tensor quadrature grid, symmetrizes by square
roots of the weights so an ordinary symmetric eigensolver applies (the
scaling is a similarity, eigenvalues are untouched), and compares the
resulting eigenvalues against an analytic spectrum report.

Because both kernels are sums of separable terms the discretized matrix is

    S = sum_k (a_k a_k^T) kron diag(h_k)  +  sum_j diag(p_j) kron (b_j b_j^T)

with ``a_k = phi_k(x) sqrt(wx)`` and ``b_j = psi_j(y) sqrt(wy)``; its range
lies in the span of ``n*Ny + m*Nx`` explicit vectors.  Projecting onto an
orthonormal basis of that span gives every nonzero eigenvalue exactly (up to
roundoff), with the rest of the spectrum filled by zeros.  This holds on
every grid, also where the span is the whole space (the projection is then
a change of basis), so the eigensolve never needs the dense ``Nx*Ny``
matrix; ``NystromSystem.matrix`` stays as the reference for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure, PioError
from .quadrature import gauss_legendre

__all__ = [
    "NystromSystem",
    "nystrom_matrix",
    "oracle_eigs",
    "ComparisonReport",
    "compare_spectra",
]

_MATRIX_CAP = 4096  # largest N for which the dense matrix may be materialized


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
        x, w = gauss_legendre(int(order))
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x + 1.0))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True, eq=False)
class NystromSystem:
    """Symmetrized grid discretization of the two-channel operator.

    Holds the grid and the low-rank factors; the dense matrix is assembled
    on demand and refused outright for grids where it would not fit in
    memory comfortably.
    """

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

    @cached_property
    def matrix(self):
        if self.size > _MATRIX_CAP:
            raise PioError(
                f"dense {self.size}x{self.size} matrix refused; "
                "use oracle_eigs, which works from the factors"
            )
        out = np.zeros((self.size, self.size))
        for k in range(self.a.shape[0]):
            out += np.kron(np.outer(self.a[k], self.a[k]), np.diag(self.h[k]))
        for j in range(self.b.shape[0]):
            out += np.kron(np.diag(self.p[j]), np.outer(self.b[j], self.b[j]))
        return out

    def apply(self, block):
        """Matrix action on vectors given as (nx, ny, ...) arrays."""
        d1 = np.einsum("kp,pq...->kq...", self.a, block, optimize=True)
        t1 = np.einsum("kp,kq,kq...->pq...", self.a, self.h, d1, optimize=True)
        d2 = np.einsum("jq,pq...->jp...", self.b, block, optimize=True)
        t2 = np.einsum("jq,jp,jp...->pq...", self.b, self.p, d2, optimize=True)
        return t1 + t2


def nystrom_matrix(model, Nx, Ny):
    """Discretize the model on an Nx-by-Ny tensor quadrature grid.

    Nodes are Gauss points on the model's panels (so kinks and steps of the
    weights never sit inside a panel), allotted per panel by length.
    """
    if Nx < 1 or Ny < 1:
        raise PioError(f"grid sizes must be at least 1, got {Nx}x{Ny}")
    xs, wx = _axis_rule(model.rule_x.panel_edges, int(Nx))
    ys, wy = _axis_rule(model.rule_y.panel_edges, int(Ny))
    sx, sy = np.sqrt(wx), np.sqrt(wy)
    a = np.array([f(xs) for f in model.channel1.basis]) * sx
    h = np.array([f(ys) for f in model.channel1.weights])
    b = np.array([f(ys) for f in model.channel2.basis]) * sy
    p = np.array([f(xs) for f in model.channel2.weights])
    return NystromSystem(xs, wx, ys, wy, a, h, b, p)


def _compressed_eigs(sys):
    """All eigenvalues via the exact range compression described on top."""
    n, nx = sys.a.shape
    m, ny = sys.b.shape
    span = np.concatenate(
        [
            np.einsum("kp,qu->pqku", sys.a, np.eye(ny)).reshape(sys.size, n * ny),
            np.einsum("rp,jq->pqjr", np.eye(nx), sys.b).reshape(sys.size, m * nx),
        ],
        axis=1,
    )
    basis, svals, _ = np.linalg.svd(span, full_matrices=False)
    keep = svals > svals[0] * 1e-12 if svals.size else np.zeros(0, bool)
    basis = basis[:, keep]
    rank = basis.shape[1]
    image = sys.apply(basis.reshape(nx, ny, rank)).reshape(sys.size, rank)
    small = basis.T @ image
    small = 0.5 * (small + small.T)
    eigs = np.linalg.eigvalsh(small)
    return np.sort(np.concatenate([np.zeros(sys.size - rank), eigs]))


def oracle_eigs(sys):
    """Sorted real eigenvalues of the discretized operator.

    One path for every grid: the exact range compression described on top,
    whose eigensolve has the size of the span, at most ``n*Ny + m*Nx``, and
    which is what makes 200 nodes per axis affordable.
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

    def as_dict(self):
        return {
            "ok": self.ok,
            "mismatches": [dict(m) for m in self.mismatches],
            "checked": self.checked,
        }


def compare_spectra(report, eigs, tol_disc, tol_ess):
    """Two-sided check of a spectrum report against oracle eigenvalues.

    Every claimed discrete eigenvalue must be matched by some oracle
    eigenvalue within ``tol_disc``; every oracle eigenvalue larger than
    ``tol_ess`` in magnitude must lie within ``tol_ess`` of the essential
    set or within ``tol_disc`` of a discrete eigenvalue.  Failures are
    returned as data, one entry each.
    """
    eigs = np.asarray(eigs, dtype=float)
    discrete = [lam for lam, _ in report.discrete]
    mismatches = []
    for lam in discrete:
        if eigs.size == 0 or np.min(np.abs(eigs - lam)) > tol_disc:
            mismatches.append({"kind": "missing-discrete", "value": float(lam)})
    for e in eigs:
        if abs(e) <= tol_ess:
            continue
        if report.essential.distance(e) <= tol_ess:
            continue
        if discrete and min(abs(e - lam) for lam in discrete) <= tol_disc:
            continue
        mismatches.append({"kind": "unexplained-eigenvalue", "value": float(e)})
    return ComparisonReport(not mismatches, tuple(mismatches), int(eigs.size))
