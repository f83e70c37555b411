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

from .errors import BadBreakpoint, BadInterval, GridMismatch, _numeric, _whole

__all__ = [
    "QuadRule1D",
    "Grid2D",
    "build_rule",
]


def _legendre_pair(n, x):
    """``(P_n(x), P_(n-1)(x))`` (``P_(-1) = 0``) for a whole ``n >= 0`` and a float array ``x`` by
    ``d P_d = (2d - 1) x P_(d-1) - (d - 1) P_(d-2)``, each step in the order written and in place
    but for its first product: the one Legendre recurrence, of the Gauss rules and ``legendre(k)``."""
    if n == 0:
        return np.ones_like(x), np.zeros_like(x)
    p_prev, p = np.ones_like(x), x.copy()
    for deg in range(2, n + 1):
        step = (2 * deg - 1) * x
        step *= p
        p_prev *= deg - 1
        step -= p_prev
        step /= deg
        p_prev, p = p, step
    return p, p_prev


def _legendre_with_derivative(n, x):
    """``P_n(x)`` and ``P_n'(x)`` for ``n >= 1``."""
    p, p_prev = _legendre_pair(n, x)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gauss_reference(n):
    """Nodes and weights on [-1, 1] for a whole ``n >= 1``, computed to machine accuracy."""
    # Chebyshev-style initial guesses, then Newton on P_n
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_with_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_with_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce the symmetry the exact nodes have
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order_idx = np.argsort(x)
    x, w = x[order_idx], w[order_idx]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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
        """Whether ``other`` has this rule's nodes and weights, so that samples on
        either rule are interchangeable.  A rule is the same as itself at once:
        the model, its mirror and every grid sampled from them hold the same rule
        objects, and each solver call checks them several times."""
        return other is self or (
            isinstance(other, QuadRule1D)
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def _interval(interval, name="interval"):
    """``(lo, hi)``: two real numbers by ``_numeric``, ``lo < hi``, else ``BadInterval`` naming ``name``."""
    try:
        lo, hi = interval
    except (TypeError, ValueError):
        raise BadInterval(f"{name} must be a pair (lo, hi), got {interval!r}") from None
    lo, hi = (_numeric(v, name, real=True, error=BadInterval) for v in (lo, hi))
    if not lo < hi:
        raise BadInterval(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    return lo, hi


def build_rule(interval, order, breakpoints=()):
    """Composite Gauss-Legendre rule on ``interval`` split at ``breakpoints``; the ``order``
    is a whole number >= 1 by ``_whole`` and the breakpoints real numbers by ``_numeric``."""
    lo, hi = _interval(interval)
    order = _whole(order, "quadrature order", error=BadInterval)
    bps = sorted({_numeric(b, "breakpoint", real=True, error=BadBreakpoint) for b in breakpoints})
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
    return QuadRule1D(lo, hi, order, tuple(edges.tolist()), nodes, weights)


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
