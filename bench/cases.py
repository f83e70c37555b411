"""Benchmark models and their independent references.

Every model the benchmark runs is defined here twice: as the JSON dict the
library parses, and as plain numpy callables for its basis and weights.  The
callables, the closed forms and the stored oracle eigenvalues in
``refs.json`` are what outputs are checked against; nothing here imports
``pio``.

Model families:

* ``fixture-a``, ``fixture-b``, ``fixture-c``: the three files in ``models/``.
* ``sumrule-n``: Legendre bases, constant weights ``a_i`` and ``b_j``.  The
  discrete spectrum is the set of sums ``a_i + b_j`` outside the search
  margin of ``{0} | a | b``.
* ``ramp-n``: Legendre bases, weights ``(k+1)*t`` in channel 1 and
  ``(k+1)*t^2`` in channel 2; the essential spectrum is ``[0, n]``.
* ``coarse-4``: ``ramp-4`` with ``scan_points=8``, which loses roots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFS_FILE = HERE / "refs.json"

SUMRULE_WEIGHTS = {
    2: ([1.5, -2.25], [2.75, -1.125]),
    4: ([1.5, -2.25, 3.125, -0.625], [2.75, -1.125, 0.875, -3.5]),
}

CLOSED_FORM_TOL = 1e-8  # closed-form eigenvalues
ORACLE_REF_TOL = 1e-8  # eigenvalues stored from the high-grid oracle
ESS_TOL = 1e-9  # essential-set endpoints and points


@dataclass
class Case:
    """One benchmark model with everything needed to check outputs on it."""

    name: str
    data: dict
    basis1: list  # callables of t on the x interval
    weights1: list  # callables of t on the y interval
    basis2: list  # callables of t on the y interval
    weights2: list  # callables of t on the x interval
    eigenvalues: list  # reference discrete spectrum, all simple
    eig_tol: float
    ess_intervals: list
    ess_points: list
    known_defect: str | None = None

    @property
    def order(self):
        return self.data.get("quadrature", {}).get("order", 32)

    def ess_distance(self, lam):
        dist = min((abs(lam - p) for p in self.ess_points), default=np.inf)
        for lo, hi in self.ess_intervals:
            dist = min(dist, max(lo - lam, lam - hi, 0.0))
        return dist


def legendre(k):
    """Orthonormal Legendre polynomial of degree k on [0, 1]."""
    coeff = np.zeros(k + 1)
    coeff[k] = np.sqrt(2.0 * k + 1.0)
    return lambda t: np.polynomial.legendre.legval(2.0 * np.asarray(t, float) - 1.0, coeff)


def _const(c):
    return lambda t: np.full(np.shape(t), float(c))


def _unit_square(basis1, weights1, basis2, weights2):
    return {
        "domain": {"x": [0, 1], "y": [0, 1]},
        "channel1": {"basis": basis1, "weights": weights1},
        "channel2": {"basis": basis2, "weights": weights2},
    }


def fixture_b_eigenvalue():
    """Root of ``lam * ln(lam / (lam - 1)) = 2`` on (1.2, 1.3), by bisection."""
    def f(lam):
        return lam * np.log(lam / (lam - 1.0)) - 2.0

    lo, hi = 1.2, 1.3
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sumrule_eigenvalues(a, b):
    """Sums ``a_i + b_j`` outside the default margin of ``{0} | a | b``."""
    margin = 1e-3 * (1.0 + max(map(abs, a)) + max(map(abs, b)))
    excluded = [0.0, *a, *b]
    sums = sorted({ai + bj for ai in a for bj in b})
    return [s for s in sums if all(abs(s - e) > margin for e in excluded)]


def load_refs():
    with open(REFS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def fixture(root, which):
    """Fixture model ``a``, ``b`` or ``c`` from the repository's model files."""
    with open(Path(root) / "models" / f"fixture_{which}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    one = [_const(1.0)]
    if which == "a":
        return Case("fixture-a", data, one, [_const(2.0)], one, [_const(3.0)],
                    [5.0], CLOSED_FORM_TOL, [], [0.0, 2.0, 3.0])
    if which == "b":
        ident = [lambda t: np.asarray(t, float)]
        return Case("fixture-b", data, one, ident, one, ident,
                    [fixture_b_eigenvalue()], CLOSED_FORM_TOL, [[0.0, 1.0]], [])
    step = [lambda t: np.where(np.asarray(t, float) < 0.5, 2.0, 4.0)]
    return Case("fixture-c", data, one, step, one, [_const(0.0)],
                [], CLOSED_FORM_TOL, [], [0.0, 2.0, 4.0])


def sumrule(n):
    a, b = SUMRULE_WEIGHTS[n]
    basis = [legendre(k) for k in range(n)]
    data = _unit_square(
        [f"legendre({k})" for k in range(n)], [repr(v) for v in a],
        [f"legendre({k})" for k in range(n)], [repr(v) for v in b],
    )
    return Case(f"sumrule-{n}", data, basis, [_const(v) for v in a], basis,
                [_const(v) for v in b], sumrule_eigenvalues(a, b), CLOSED_FORM_TOL,
                [], sorted({0.0, *a, *b}))


def ramp_data(n, order=32, scan_points=None):
    data = _unit_square(
        [f"legendre({k})" for k in range(n)], [f"{k + 1}*t" for k in range(n)],
        [f"legendre({k})" for k in range(n)], [f"{k + 1}*t^2" for k in range(n)],
    )
    if order != 32:
        data["quadrature"] = {"order": order}
    if scan_points is not None:
        data["search"] = {"scan_points": scan_points}
    return data


def ramp(n, order=32, refs=None, name=None, scan_points=None):
    refs = load_refs() if refs is None else refs
    basis = [legendre(k) for k in range(n)]
    w1 = [(lambda c: lambda t: c * np.asarray(t, float))(k + 1) for k in range(n)]
    w2 = [(lambda c: lambda t: c * np.asarray(t, float) ** 2)(k + 1) for k in range(n)]
    name = name or (f"ramp-{n}" if order == 32 else f"ramp-{n}-o{order}")
    return Case(name, ramp_data(n, order, scan_points), basis, w1, basis, w2,
                list(refs["ramp"][str(n)]["eigenvalues"]), ORACLE_REF_TOL,
                [[0.0, float(n)]], [])


def coarse4(refs=None):
    case = ramp(4, refs=refs, name="coarse-4", scan_points=8)
    case.known_defect = (
        "scan_points=8 drops eigenvalues 4.2105 and 4.5593 of ramp-4 without a flag"
    )
    return case


# --- checks ------------------------------------------------------------------


def match_eigenvalues(case, found):
    """Compare a list of ``(lam, mult)`` against the reference.

    Returns ``"pass"``, ``"known"`` (the case's documented defect: a strict
    subset of the reference, every value correct) or ``"fail"``.
    """
    ref = case.eigenvalues
    values = sorted(float(lam) for lam, _ in found)
    if any(int(mult) != 1 for _, mult in found):
        return "fail"
    if len(values) == len(ref) and all(abs(v - r) <= case.eig_tol for v, r in zip(values, ref)):
        return "pass"
    all_true = all(min((abs(v - r) for r in ref), default=np.inf) <= case.eig_tol for v in values)
    if case.known_defect and all_true and len(values) < len(ref):
        return "known"
    return "fail"


def essential_matches(case, intervals, points):
    if len(intervals) != len(case.ess_intervals) or len(points) != len(case.ess_points):
        return False
    pairs = [*zip(np.ravel(intervals), np.ravel(case.ess_intervals)),
             *zip(sorted(points), case.ess_points)]
    return all(abs(float(u) - float(v)) <= ESS_TOL for u, v in pairs)


def discrete_outside(case, eigs, tol):
    """Eigenvalues farther than ``tol`` from the reference essential set."""
    return sorted(float(e) for e in eigs if case.ess_distance(float(e)) > tol)


def oracle_matches(case, eigs, tol):
    """Oracle eigenvalues off the essential set pair up with the reference."""
    off = discrete_outside(case, eigs, tol)
    return len(off) == len(case.eigenvalues) and all(
        abs(u - v) <= tol for u, v in zip(off, case.eigenvalues)
    )


# --- an operator application written from the model's definition ---------------


class GridCheck:
    """The operator on a single-panel Gauss grid, built from the case's callables.

    Nodes and weights come from ``numpy.polynomial.legendre.leggauss``, so
    grids the library hands back can be compared against them and the
    operator applied without any library code.
    """

    def __init__(self, case):
        t, w = np.polynomial.legendre.leggauss(case.order)
        self.nodes = 0.5 * (t + 1.0)
        self.weights = 0.5 * w
        x = y = self.nodes
        self.phi = np.array([f(x) for f in case.basis1])
        self.h = np.array([f(y) for f in case.weights1])
        self.psi = np.array([f(y) for f in case.basis2])
        self.p = np.array([f(x) for f in case.weights2])

    def same_nodes(self, xs, ys, tol=1e-14):
        xs, ys = np.asarray(xs), np.asarray(ys)
        return (xs.shape == self.nodes.shape and ys.shape == self.nodes.shape
                and np.allclose(xs, self.nodes, rtol=0, atol=tol)
                and np.allclose(ys, self.nodes, rtol=0, atol=tol))

    def apply(self, f):
        w = self.weights
        c1 = self.phi @ (w[:, None] * f)  # (n, Ny)
        t1 = self.phi.T @ (self.h * c1)
        c2 = (f * w[None, :]) @ self.psi.T  # (Nx, m)
        t2 = (c2 * self.p.T) @ self.psi
        return t1 + t2

    def norm(self, f):
        w = self.weights
        return float(np.sqrt(w @ (np.abs(f) ** 2) @ w))

    def grid(self, fn):
        return fn(self.nodes[:, None], self.nodes[None, :]) + np.zeros((len(self.nodes),) * 2)
