"""Composite Gauss-Legendre quadrature on intervals and rectangles.

Rules are split into panels at supplied breakpoints so that integrands with
piecewise definitions are integrated panel by panel, where they are smooth.
Nodes and weights come from a Newton iteration on the Legendre recurrence,
so any order is available without tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadBreakpoint, BadInterval, GridMismatch

__all__ = [
    "QuadRule1D",
    "Grid2D",
    "gauss_legendre",
    "build_rule",
    "integrate_1d",
    "integrate_2d",
]


@lru_cache(maxsize=None)
def _gauss_reference(order):
    """Nodes and weights on [-1, 1], computed to machine accuracy."""
    n = int(order)
    if n < 1:
        raise BadInterval(f"quadrature order must be >= 1, got {order}")
    if n == 1:
        return np.array([0.0]), np.array([2.0])
    # Chebyshev-style initial guesses, then Newton on P_n
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev = np.ones_like(x)
        p = x.copy()
        for deg in range(2, n + 1):
            p, p_prev = ((2 * deg - 1) * x * p - (deg - 1) * p_prev) / deg, p
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p_prev = np.ones_like(x)
    p = x.copy()
    for deg in range(2, n + 1):
        p, p_prev = ((2 * deg - 1) * x * p - (deg - 1) * p_prev) / deg, p
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce the symmetry the exact nodes have
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order_idx = np.argsort(x)
    x, w = x[order_idx], w[order_idx]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1] (copies)."""
    x, w = _gauss_reference(order)
    return x.copy(), w.copy()


@dataclass(frozen=True, eq=False)
class QuadRule1D:
    """Composite rule on [lo, hi]: ``order`` Gauss nodes per panel."""

    lo: float
    hi: float
    order: int
    panel_edges: tuple
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __len__(self):
        return self.nodes.size

    def same_rule(self, other):
        return (
            isinstance(other, QuadRule1D)
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def build_rule(interval, order, breakpoints=()):
    """Composite Gauss-Legendre rule on ``interval`` split at ``breakpoints``."""
    lo, hi = (float(v) for v in interval)
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise BadInterval(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    bps = sorted({float(b) for b in breakpoints})
    for b in bps:
        if not (lo < b < hi):
            raise BadBreakpoint(f"breakpoint {b!r} is not interior to [{lo!r}, {hi!r}]")
    edges = np.array([lo, *bps, hi])
    xi, wi = _gauss_reference(order)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * xi[None, :]).ravel()
    weights = (halves[:, None] * wi[None, :]).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule1D(lo, hi, int(order), tuple(edges.tolist()), nodes, weights)


def _values_on(f, nodes):
    try:
        vals = np.asarray(f(nodes))
    except Exception:
        vals = None
    if vals is None or vals.shape != nodes.shape:
        vals = np.asarray([f(float(t)) for t in nodes])
    return vals


def integrate_1d(f, rule):
    """Integral of ``f`` over the rule's interval; ``f`` maps arrays to arrays."""
    vals = _values_on(f, rule.nodes)
    total = np.sum(rule.weights * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def integrate_2d(f, rule_x, rule_y):
    """Integral over the rectangle of a function of two array arguments."""
    vals = np.asarray(f(rule_x.nodes[:, None], rule_y.nodes[None, :]))
    if vals.shape != (len(rule_x), len(rule_y)):
        vals = np.asarray(
            [[f(float(x), float(y)) for y in rule_y.nodes] for x in rule_x.nodes]
        )
    total = rule_x.weights @ vals @ rule_y.weights
    return complex(total) if np.iscomplexobj(vals) else float(total)


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Samples of a function on the tensor grid of two 1D rules."""

    rule_x: QuadRule1D
    rule_y: QuadRule1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (len(self.rule_x), len(self.rule_y))
        if self.values.shape != expected:
            raise GridMismatch(
                f"values shaped {self.values.shape}, grid wants {expected}"
            )

    @classmethod
    def from_function(cls, rule_x, rule_y, f):
        vals = np.asarray(f(rule_x.nodes[:, None], rule_y.nodes[None, :]))
        vals = np.broadcast_to(vals, (len(rule_x), len(rule_y))).copy()
        return cls(rule_x, rule_y, vals)

    def _require_same_grid(self, other):
        if not (self.rule_x.same_rule(other.rule_x) and self.rule_y.same_rule(other.rule_y)):
            raise GridMismatch("grid functions live on different quadrature rules")

    def with_values(self, values):
        return Grid2D(self.rule_x, self.rule_y, np.asarray(values))

    def transposed(self):
        """The same samples as a function of (y, x)."""
        return Grid2D(self.rule_y, self.rule_x, self.values.T)

    def integral(self):
        return self.rule_x.weights @ self.values @ self.rule_y.weights

    def inner(self, other):
        """L2 inner product, conjugate-linear in ``self``."""
        self._require_same_grid(other)
        return self.rule_x.weights @ (np.conj(self.values) * other.values) @ self.rule_y.weights

    def norm(self):
        v = self.rule_x.weights @ (np.abs(self.values) ** 2) @ self.rule_y.weights
        return float(np.sqrt(max(v.real, 0.0)))

    def __add__(self, other):
        self._require_same_grid(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        self._require_same_grid(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, scalar):
        return self.with_values(self.values * scalar)

    __rmul__ = __mul__
