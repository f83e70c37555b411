"""Spectral analysis of the two-channel operator sum.

The essential part of the spectrum is read off the weights: it is ``{0}``
together with the essential range of every weight in both channels.  The
rest (the discrete part) consists of the real zeros of the determinant

    delta(lam) = det(Pi(lam) - lam*I)

of an ``m*n x m*n`` matrix obtained by reducing the homogeneous second-kind
equation to a finite linear system.  The reduction works on the closed
composition ``W(tau) = (E - tau*T2)^{-1} S1(tau) T2`` whose kernel is
separable:

    W(1/lam) f = lam * sum_w F_w(x, y; lam) * <B_w, f>,

where ``w`` runs over pairs (k, j), ``k`` indexing channel 2 and ``j``
channel 1, and

    F_(k,j)(x, y) = phi_j(x) * ( psi_k(y) h_j(y) / (lam - h_j(y))
        + sum_i p_i(x) psi_i(y) / (lam - p_i(x)) * c_i ),
    c_i = integral of h_j(xi) / (lam - h_j(xi)) psi_k(xi) psi_i(xi) d(xi),
    B_(k,j)(s, t) = p_k(s) phi_j(s) psi_k(t).

``Pi`` collects the cross integrals ``Pi[i, l] = <F_(w_i), B_(w_l)>``; pairs
are flattened row-major, (k, j) -> (k-1)*n + (j-1).  Path 2 swaps the roles
of the channels (and of the axes); both paths must produce determinants with
identical zero sets.

Everything in ``Pi`` that does not depend on ``lam`` (products of the basis
samples, the weights and the quadrature weights) is collected once per model
and path in a reduction plan that lives on the model.  One assembly is then
three matrix products against ``H/(lam - H)`` and ``P/(lam - P)``, for any
number of real or complex parameters at once.  The root search uses this
batching: it scans every gap, collects the sign-change brackets of all gaps,
and bisects them in lockstep, one determinant batch per bisection step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IndexOutOfRange,
    NoAtom,
    NotAnEigenvalue,
    PioError,
    SpectrumHit,
)
from .expr import constant_value
from .quadrature import Grid2D

__all__ = [
    "EssRange",
    "SpectralSet",
    "PiMatrix",
    "SpectrumReport",
    "essential_range",
    "sigma_channel",
    "sigma_ess",
    "build_F",
    "pi_matrix",
    "delta",
    "delta_batch",
    "discrete_spectrum",
    "sigma_full",
    "eigenfunctions_T",
    "atom_eigenfunction",
    "delta_trace_rows",
    "operator_margin",
]

_RANGE_SAMPLES = 4096
_VALUE_MERGE_TOL = 1e-12


def operator_margin(model):
    """Default distance kept from the essential set in operator formulas."""
    return 1e-9 * (1.0 + model.bound)


# --- essential part -------------------------------------------------------


@dataclass(frozen=True)
class EssRange:
    """Essential range of one weight: closed intervals plus value atoms.

    An atom ``(value, measure)`` records a value attained on a set of
    positive measure; its value may also lie inside one of the intervals.
    """

    intervals: tuple
    atoms: tuple


@dataclass(frozen=True)
class SpectralSet:
    """A closed subset of the real line: intervals plus isolated points.

    ``atoms`` flags the values that are eigenvalues of infinite multiplicity
    because a weight attains them on positive measure; 0 is always an
    eigenvalue of infinite multiplicity and is always a member of the set.
    """

    intervals: tuple
    points: tuple
    atoms: tuple

    def distance(self, lam):
        lam = complex(lam)
        best = np.inf
        for lo, hi in self.intervals:
            dx = max(lo - lam.real, lam.real - hi, 0.0)
            best = min(best, float(np.hypot(dx, lam.imag)))
        for value in self.points:
            best = min(best, abs(lam - value))
        for value, _ in self.atoms:
            best = min(best, abs(lam - value))
        return best

    def distances(self, lams):
        """``distance`` of each (real or complex) parameter, as one array."""
        lo, hi, values = self._members
        lams = np.asarray(lams)[..., None]
        re, im = lams.real, lams.imag
        # real offset to each interval (0 inside it) and to each isolated value
        dx = np.concatenate([np.maximum(np.maximum(lo - re, re - hi), 0.0), re - values], -1)
        return np.hypot(dx, im).min(axis=-1, initial=np.inf)

    @cached_property
    def _members(self):
        """Interval ends and the isolated values (points and atoms) as arrays."""
        lo, hi = np.array(self.intervals, dtype=float).reshape(-1, 2).T
        return lo, hi, np.array([*self.points, *(v for v, _ in self.atoms)], dtype=float)

    def contains(self, lam, tol=0.0):
        return self.distance(lam) <= tol

    def as_dict(self):
        return {
            "intervals": [[lo, hi] for lo, hi in self.intervals],
            "points": list(self.points),
            "atoms": [[v, m] for v, m in self.atoms],
        }


def _pieces(expr, interval):
    lo, hi = interval
    cuts = [lo, *(b for b in expr.breakpoints if lo < b < hi), hi]
    return list(zip(cuts, cuts[1:]))


def _merge_intervals(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _add_atom(atoms, value, measure):
    for i, (v, m) in enumerate(atoms):
        if abs(value - v) <= _VALUE_MERGE_TOL * (1.0 + abs(v)):
            atoms[i] = (v, m + measure)
            return
    atoms.append((value, measure))


def essential_range(expr, interval):
    """Essential range of a weight over the interval, piece by piece.

    Constant pieces become atoms ``(value, piece length)``; every other
    piece contributes the interval between its sampled extrema.
    """
    intervals = []
    atoms = []
    pieces = _pieces(expr, interval)
    for pos, (plo, phi) in enumerate(pieces):
        cval = constant_value(expr, plo, phi)
        if cval is not None:
            _add_atom(atoms, cval, phi - plo)
            continue
        ts = np.linspace(plo, phi, _RANGE_SAMPLES + 1)
        if pos < len(pieces) - 1:
            ts[-1] = np.nextafter(phi, plo)  # interior breakpoint owns the right side
        vals = expr(ts)
        intervals.append((float(vals.min()), float(vals.max())))
    return EssRange(_merge_intervals(intervals), tuple(sorted(atoms)))


def _combine(ranges, include_zero=True):
    intervals = _merge_intervals([iv for r in ranges for iv in r.intervals])
    atoms = []
    for r in ranges:
        for value, measure in r.atoms:
            for i, (v, m) in enumerate(atoms):
                if abs(value - v) <= _VALUE_MERGE_TOL * (1.0 + abs(v)):
                    atoms[i] = (v, max(m, measure))
                    break
            else:
                atoms.append((value, measure))
    points = {v for v, _ in atoms}
    if include_zero:
        points.add(0.0)
    isolated = tuple(
        sorted(p for p in points if not any(lo <= p <= hi for lo, hi in intervals))
    )
    return SpectralSet(intervals, isolated, tuple(sorted(atoms)))


def sigma_channel(model, channel):
    """Spectrum of a single channel: {0} plus its weights' essential ranges."""
    if channel == 1:
        weights, interval = model.channel1.weights, model.y_interval
    elif channel == 2:
        weights, interval = model.channel2.weights, model.x_interval
    else:
        raise PioError(f"channel must be 1 or 2, got {channel!r}")
    return _combine([essential_range(w, interval) for w in weights])


def _per_model(model, key, build):
    """``build(model)``, computed once and kept on the model itself.

    The value lives exactly as long as the model (like a cached property),
    so no module-level cache pins models that are otherwise gone.
    """
    memo = model.__dict__
    if key not in memo:
        memo[key] = build(model)
    return memo[key]


def _build_sigma_ess(model):
    ranges = [essential_range(w, model.y_interval) for w in model.channel1.weights]
    ranges += [essential_range(w, model.x_interval) for w in model.channel2.weights]
    return _combine(ranges)


def sigma_ess(model):
    """Essential spectrum of the sum: union of both channel spectra."""
    return _per_model(model, "_sigma_ess", _build_sigma_ess)


# --- finite-rank reduction --------------------------------------------------


def _path_data(model, path):
    """Sampled arrays in path order: (Phi, H, Psi, P, wx, wy).

    Path 2 exchanges the channels and the axes; the assembly code below is
    written once against this view.
    """
    if path == 1:
        return (
            model.phi_x,
            model.h_y,
            model.psi_y,
            model.p_x,
            model.rule_x.weights,
            model.rule_y.weights,
        )
    if path == 2:
        return (
            model.psi_y,
            model.p_x,
            model.phi_x,
            model.h_y,
            model.rule_y.weights,
            model.rule_x.weights,
        )
    raise PioError(f"path must be 1 or 2, got {path!r}")


def _guard_lams(model, lams, margin):
    margin = operator_margin(model) if margin is None else margin
    lams = np.atleast_1d(lams)
    dist = sigma_ess(model).distances(lams)
    bad = np.flatnonzero(dist <= margin)
    if bad.size:
        lam, near = lams[bad[0]], dist[bad[0]]
        raise SpectrumHit(
            f"lambda {lam!r} is within {near:.3e} of the essential spectrum"
        )


@dataclass(frozen=True)
class _ReductionPlan:
    """The lambda-independent factors of ``Pi(lam)`` on one path.

    With ``HF = H/(lam - H)``, ``PF = P/(lam - P)`` and, in path order,
    ``n`` = rank of the inner (``Phi``, ``H``) channel and ``m`` = rank of
    the outer (``Psi``, ``P``) channel:

        A[(k,i), y]      = wy Psi_k Psi_i
        E[x, (j,q,p)]    = wx Phi_j P_q Phi_p
        G[i, (j,q,p)]    = G2[i,q] = <Psi_i, Psi_q>
        D[i, (j,q,p)]    = delta_iq sum_x E[x, (j,q,p)]

    so that ``Y1 = HF @ A.T``, ``Z = (PF @ E) * G + D`` and
    ``Pi[(k,j), (q,p)] = sum_i Y1[j,k,i] Z[i,j,(q,p)]``: three matrix
    products per assembly, for real and complex ``lam`` alike.  ``G``
    scales the product instead of being folded into a stored
    ``G2[i,q] E[x,(j,q,p)]``, which would be ``m`` times the size of ``E``.
    """

    H: np.ndarray  # (n, NY)
    P: np.ndarray  # (m, NX)
    At: np.ndarray  # (NY, m*m), A transposed
    E: np.ndarray  # (NX, n*m*n)
    G: np.ndarray  # (m, n*m*n)
    D: np.ndarray  # (m, n*m*n)

    @classmethod
    def build(cls, model, path):
        Phi, H, Psi, P, wx, wy = _path_data(model, path)
        n, m = Phi.shape[0], Psi.shape[0]
        At = (wy * Psi[:, None] * Psi[None]).reshape(m * m, -1).T
        E = wx[:, None, None, None] * (
            Phi.T[:, :, None, None] * P.T[:, None, :, None] * Phi.T[:, None, None, :]
        )  # E[x, j, q, p]
        G2 = (wy * Psi) @ Psi.T
        G = np.broadcast_to(G2[:, None, :, None], (m, n, m, n))
        D = np.eye(m)[:, None, :, None] * E.sum(axis=0)[None]
        return cls(
            H, P, np.ascontiguousarray(At), E.reshape(len(wx), -1),
            G.reshape(m, -1), D.reshape(m, -1),
        )

    def assemble(self, lams):
        """Stacked ``Pi(lam)``, shape (L, m*n, m*n)."""
        (n, _), (m, _) = self.H.shape, self.P.shape
        count = len(lams)
        lcol = lams[:, None, None]
        HF = lcol - self.H  # (L, n, NY), then H/(lam - H) in place
        np.divide(self.H, HF, out=HF)
        PF = lcol - self.P  # (L, m, NX)
        np.divide(self.P, PF, out=PF)
        Y1 = (HF.reshape(count * n, -1) @ self.At).reshape(count, n, m, m)
        Z = (PF.reshape(count * m, -1) @ self.E).reshape(count, m, -1)
        Z *= self.G
        Z += self.D
        Z = Z.reshape(count, m, n, m * n).transpose(0, 2, 1, 3)
        return (Y1 @ Z).transpose(0, 2, 1, 3).reshape(count, m * n, m * n)


def _reduction_plan(model, path):
    return _per_model(model, f"_pi_plan_{path}", lambda mod: _ReductionPlan.build(mod, path))


def _assemble_pi(model, lams, path=1, margin=None, guarded=True):
    """Stacked reduction matrices, shape (L, m*n, m*n)."""
    if guarded:
        _guard_lams(model, lams, margin)
    return _reduction_plan(model, path).assemble(np.asarray(lams))


@dataclass(frozen=True)
class PiMatrix:
    """Reduction matrix at one spectral parameter."""

    lam: complex
    path: int
    entries: np.ndarray
    index_map: tuple

    @property
    def size(self):
        return self.entries.shape[0]


def _index_map(model, path):
    if path == 1:
        return tuple((k, j) for k in range(1, model.m + 1) for j in range(1, model.n + 1))
    return tuple((k, j) for k in range(1, model.n + 1) for j in range(1, model.m + 1))


def pi_matrix(model, lam, path=1, margin=None):
    """Cross-integral matrix ``Pi(lam)`` for the requested path."""
    entries = _assemble_pi(model, np.array([lam]), path, margin)[0]
    return PiMatrix(lam, path, entries, _index_map(model, path))


def delta(model, lam, path=1, margin=None):
    """Determinant ``det(Pi(lam) - lam*I)``; real input gives a real value."""
    return delta_batch(model, np.array([lam]), path, margin)[0]


def delta_batch(model, lams, path=1, margin=None):
    """Vectorized determinant over many spectral parameters."""
    lams = np.asarray(lams)
    pis = _assemble_pi(model, lams, path, margin)
    size = pis.shape[1]
    dets = np.linalg.det(pis - lams[:, None, None] * np.eye(size)[None])
    return dets


def build_F(model, k, j, lam, margin=None):
    """Left factor function ``F_(k,j)( . , . ; lam)`` as a callable on arrays.

    ``k`` is 1-based in channel 2, ``j`` 1-based in channel 1.  The inner
    integrals over the second variable are computed once, here.
    """
    if not 1 <= k <= model.m:
        raise IndexOutOfRange(f"k must be in 1..{model.m}, got {k}")
    if not 1 <= j <= model.n:
        raise IndexOutOfRange(f"j must be in 1..{model.n}, got {j}")
    _guard_lams(model, np.array([lam]), margin)
    h_j = model.channel1.weights[j - 1]
    phi_j = model.channel1.basis[j - 1]
    wy = model.rule_y.weights
    hy = model.h_y[j - 1]
    ratio = hy / (lam - hy)
    inner = np.array(
        [
            np.sum(wy * ratio * model.psi_y[k - 1] * model.psi_y[i])
            for i in range(model.m)
        ]
    )
    psi_k = model.channel2.basis[k - 1]

    def F(x, y):
        xv = np.asarray(x, dtype=float)
        yv = np.asarray(y, dtype=float)
        hv = h_j(yv)
        head = psi_k(yv) * hv / (lam - hv)
        tail = 0.0
        for i, (psi_i, p_i) in enumerate(zip(model.channel2.basis, model.channel2.weights)):
            pv = p_i(xv)
            tail = tail + pv / (lam - pv) * psi_i(yv) * inner[i]
        return phi_j(xv) * (head + tail)

    return F


def _fb_grids(model, lam, path=1):
    """F and B sampled on the model grid, shape (m*n, Nx, Ny).

    Path 2 builds the mirrored factors (channels and axes exchanged) but
    returns them transposed back into the model's (x, y) axis order.
    """
    Phi, H, Psi, P, wx, wy = _path_data(model, path)
    HF = H / (lam - H)
    PF = P / (lam - P)
    Y1 = np.einsum("y,ky,jy,iy->kji", wy, Psi, HF, Psi, optimize=True)
    term1 = np.einsum("jx,ky,jy->kjxy", Phi, Psi, HF, optimize=True)
    term2 = np.einsum("jx,ix,iy,kji->kjxy", Phi, PF, Psi, Y1, optimize=True)
    size = Phi.shape[0] * Psi.shape[0]
    F = (term1 + term2).reshape(size, len(wx), len(wy))
    B = np.einsum("kx,jx,ky->kjxy", P, Phi, Psi, optimize=True).reshape(F.shape)
    if path == 2:
        F = F.transpose(0, 2, 1)
        B = B.transpose(0, 2, 1)
    return F, B


# --- root search ------------------------------------------------------------


def _blocked_bands(ess, margin):
    bands = [(lo - margin, hi + margin) for lo, hi in ess.intervals]
    bands += [(p - margin, p + margin) for p in ess.points]
    bands += [(v - margin, v + margin) for v, _ in ess.atoms]
    return _merge_intervals(bands)


def _search_gaps(ess, box, margin):
    lo, hi = box
    gaps = []
    cursor = lo
    for blo, bhi in _blocked_bands(ess, margin):
        if bhi <= cursor:
            continue
        if blo >= hi:
            break
        if blo > cursor:
            gaps.append((cursor, min(blo, hi)))
        cursor = max(cursor, bhi)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return [(a, b) for a, b in gaps if b - a > 1e-12]


def _nullity(matrix, rank_tol, scale_floor):
    svals = np.linalg.svd(matrix, compute_uv=False)
    threshold = rank_tol * max(float(svals.max(initial=0.0)), scale_floor)
    return int(np.sum(svals <= threshold))


def _root_multiplicity(model, lam, path, rank_tol):
    pim = _assemble_pi(model, np.array([lam]), path, guarded=False)[0]
    m = pim - lam * np.eye(pim.shape[0])
    # the lam*I term sets the natural scale; at a converged root the largest
    # singular value of the 1x1 case is itself tiny
    return _nullity(m, rank_tol, max(abs(lam), 1.0))


def _bisect_all(fn, lo, hi, flo, root_tol):
    """Bisect many sign-change brackets in lockstep.

    ``fn`` maps an array of parameters to an array of values.  Each bracket
    takes exactly the iterates of a scalar bisection (midpoint, stop when
    narrower than ``root_tol`` or on an exact zero), but all brackets still
    open are evaluated together, one ``fn`` call per step.
    """
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    exact = np.zeros(lo.shape, dtype=bool)
    zeros = np.empty(lo.shape)
    live = np.flatnonzero(hi - lo > root_tol)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        fmid = fn(mid)
        zero = fmid == 0.0
        exact[live[zero]], zeros[live[zero]] = True, mid[zero]
        left = (flo[live] < 0.0) != (fmid < 0.0)
        hi[live[left]] = mid[left]
        lo[live[~left]], flo[live[~left]] = mid[~left], fmid[~left]
        live = live[~zero]
        live = live[hi[live] - lo[live] > root_tol]
    return np.where(exact, zeros, 0.5 * (lo + hi))


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, lo, hi, xtol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def discrete_spectrum(
    model,
    margin=None,
    scan_points=None,
    root_tol=None,
    rank_tol=None,
    path=1,
):
    """Real zeros of the determinant outside the essential set.

    Scans each gap of ``[-bound-1, bound+1]`` minus a margin neighborhood of
    the essential set, bisects sign changes, and additionally refines local
    minima of ``|delta|`` (to catch even-order zeros).  Every zero reported
    comes with the algebraic multiplicity of the reduced linear system: the
    rank deficiency of ``Pi(lam) - lam*I``.

    The sign-change brackets of all gaps are bisected together, one
    ``delta_batch`` call per step; each bracket follows the iterates of a
    scalar bisection, so the roots do not depend on how many are refined at
    once.  The ``|delta|`` minima are refined one by one (golden section).
    """
    search = model.search
    margin = search.resolved_margin(model.bound) if margin is None else margin
    scan_points = search.scan_points if scan_points is None else scan_points
    root_tol = search.root_tol if root_tol is None else root_tol
    rank_tol = search.rank_tol if rank_tol is None else rank_tol

    ess = sigma_ess(model)
    box = (-model.bound - 1.0, model.bound + 1.0)

    def dvals(lams):
        return delta_batch(model, lams, path=path, margin=margin / 2).real

    scans = []
    for glo, ghi in _search_gaps(ess, box, margin):
        lams = np.linspace(glo, ghi, scan_points)
        scans.append((lams, dvals(lams)))
    brackets = [
        (lams[i], lams[i + 1], vals[i])
        for lams, vals in scans
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    ]
    roots = iter(_bisect_all(dvals, *np.array(brackets).reshape(-1, 3).T, root_tol))

    found = []

    def push(lam, mult):
        for prev, _ in found:
            if abs(lam - prev) <= 100.0 * root_tol * (1.0 + abs(prev)):
                return
        found.append((lam, mult))

    for lams, vals in scans:
        scale = float(np.max(np.abs(vals)))
        hits = np.zeros(len(lams), dtype=bool)
        zero = vals[:-1] == 0.0
        change = vals[:-1] * vals[1:] < 0.0
        for i in np.flatnonzero(zero | change):
            if zero[i]:
                mult = _root_multiplicity(model, lams[i], path, rank_tol)
                push(lams[i], max(1, mult))
                hits[max(i - 1, 0) : i + 1] = True
            else:
                root = next(roots)
                mult = _root_multiplicity(model, root, path, rank_tol)
                push(root, max(1, mult))
                hits[i] = True
        # even-order zeros: |delta| dips without a sign change
        min_gate = np.sqrt(root_tol) * max(1.0, scale)
        a, b, c = np.abs(vals[:-2]), np.abs(vals[1:-1]), np.abs(vals[2:])
        near_hit = hits[:-2] | hits[1:-1] | hits[2:]
        for i in 1 + np.flatnonzero((b <= a) & (b <= c) & (b < min_gate) & ~near_hit):
            lam = _golden_min(
                lambda t: abs(float(dvals(np.array([t]))[0])), lams[i - 1], lams[i + 1], root_tol
            )
            mult = _root_multiplicity(model, lam, path, rank_tol)
            if mult >= 1:
                push(lam, mult)

    return tuple(sorted(found))


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectral picture plus the search policy that produced it."""

    essential: SpectralSet
    discrete: tuple
    bound: float
    settings: dict
    unresolved: tuple

    def as_dict(self):
        return {
            "essential": self.essential.as_dict(),
            "discrete": [[lam, mult] for lam, mult in self.discrete],
            "bound": self.bound,
            "settings": dict(self.settings),
            "unresolved": [[lo, hi] for lo, hi in self.unresolved],
        }


def sigma_full(model, margin=None, scan_points=None, root_tol=None, rank_tol=None):
    """Essential plus discrete spectrum with the policy echoed back.

    Margin neighborhoods of the essential set are not searched; they are
    reported as unresolved bands rather than as certified absence of
    eigenvalues.  The discrete list carries no completeness claim beyond the
    scan resolution.  The essential set and the reduction plan are computed
    once per model and reused by every later call on it; the roots are
    refined in lockstep (see ``discrete_spectrum``).
    """
    search = model.search
    bound = model.bound
    margin = search.resolved_margin(bound) if margin is None else margin
    scan_points = search.scan_points if scan_points is None else scan_points
    root_tol = search.root_tol if root_tol is None else root_tol
    rank_tol = search.rank_tol if rank_tol is None else rank_tol
    ess = sigma_ess(model)
    disc = discrete_spectrum(
        model, margin=margin, scan_points=scan_points, root_tol=root_tol, rank_tol=rank_tol
    )
    box = (-bound - 1.0, bound + 1.0)
    unresolved = tuple(
        (max(lo, box[0]), min(hi, box[1]))
        for lo, hi in _blocked_bands(ess, margin)
        if hi > box[0] and lo < box[1]
    )
    settings = {
        "margin": margin,
        "scan_points": scan_points,
        "root_tol": root_tol,
        "rank_tol": rank_tol,
        "order": model.order,
    }
    return SpectrumReport(ess, disc, bound, settings, unresolved)


# --- eigenfunctions -----------------------------------------------------------


def eigenfunctions_T(model, lam0, rank_tol=None):
    """Orthonormal eigenfunctions of the sum at a discrete eigenvalue.

    The homogeneous equation reduces to the coefficient system
    ``c = (1/lam) Pi(lam)^T c`` for the moments ``c_w = <B_w, f>``; the
    eigenfunction is rebuilt as ``f = (1/lam) sum_w c_w F_w``.  (The moments
    pair with B, so the coefficient vectors are the left null vectors of
    ``I - (1/lam) Pi``.)  Raises if ``lam0`` is in/near the essential set or
    the system has no null direction.
    """
    rank_tol = model.search.rank_tol if rank_tol is None else rank_tol
    lam0 = float(lam0)
    _guard_lams(model, np.array([lam0]), None)
    pim = _assemble_pi(model, np.array([lam0]), guarded=False)[0]
    size = pim.shape[0]
    system = np.eye(size) - pim / lam0
    u, svals, _ = np.linalg.svd(system)
    threshold = rank_tol * max(float(svals.max(initial=0.0)), 1.0)
    null_dim = int(np.sum(svals <= threshold))
    if null_dim == 0:
        raise NotAnEigenvalue(f"{lam0!r} leaves the reduced system nonsingular")
    coeffs = u[:, size - null_dim :]

    F, _ = _fb_grids(model, lam0)
    wx = model.rule_x.weights
    wy = model.rule_y.weights
    out = []
    for idx in range(null_dim):
        vals = np.einsum("w,wxy->xy", coeffs[:, idx], F) / lam0
        # grid Gram-Schmidt against what we already kept
        for g in out:
            vals = vals - g.inner(Grid2D(model.rule_x, model.rule_y, vals)) * g.values
        norm = float(np.sqrt(wx @ (np.abs(vals) ** 2) @ wy))
        if norm <= 1e-12:
            continue
        vals = vals / norm
        # fix the free sign: largest-magnitude sample points up
        peak = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
        if np.real(vals[peak]) < 0:
            vals = -vals
        out.append(Grid2D(model.rule_x, model.rule_y, vals))
    if not out:
        raise NotAnEigenvalue(f"reconstruction at {lam0!r} is degenerate")
    return out


def atom_eigenfunction(model, channel, j0, lam0):
    """Indicator-type eigenfunction for a weight that sits at ``lam0``
    on a set of positive measure."""
    if channel == 1:
        weights, interval, rank = model.channel1.weights, model.y_interval, model.n
    elif channel == 2:
        weights, interval, rank = model.channel2.weights, model.x_interval, model.m
    else:
        raise PioError(f"channel must be 1 or 2, got {channel!r}")
    if not 1 <= j0 <= rank:
        raise IndexOutOfRange(f"member index must be in 1..{rank}, got {j0}")
    weight = weights[j0 - 1]
    tol = 1e-9 * (1.0 + abs(lam0))
    level = []
    measure = 0.0
    for plo, phi in _pieces(weight, interval):
        cval = constant_value(weight, plo, phi)
        if cval is not None and abs(cval - lam0) <= tol:
            level.append((plo, phi))
            measure += phi - plo
    if not level:
        raise NoAtom(f"weight {j0} of channel {channel} has no level set at {lam0!r}")

    def indicator(ts):
        mask = np.zeros(ts.shape, dtype=float)
        for plo, phi in level:
            mask[(ts >= plo) & (ts <= phi)] = 1.0
        return mask

    scale = 1.0 / np.sqrt(measure)
    if channel == 1:
        fx = model.phi_x[j0 - 1]
        fy = indicator(model.rule_y.nodes) * scale
    else:
        fx = indicator(model.rule_x.nodes) * scale
        fy = model.psi_y[j0 - 1]
    return Grid2D(model.rule_x, model.rule_y, np.outer(fx, fy))


# --- determinant trace --------------------------------------------------------


def delta_trace_rows(model, lmin, lmax, samples, path=1):
    """Rows (lambda, Re delta, Im delta, path); NaN inside the guard margin."""
    lams = np.linspace(float(lmin), float(lmax), int(samples))
    margin = operator_margin(model)
    rows = []
    ok = sigma_ess(model).distances(lams) > margin
    if np.any(ok):
        vals = delta_batch(model, lams[ok], path=path, margin=margin / 2)
        vals = np.asarray(vals, dtype=complex)
    else:
        vals = np.array([], dtype=complex)
    it = iter(vals)
    for lam, good in zip(lams, ok):
        if good:
            v = next(it)
            rows.append((float(lam), float(v.real), float(v.imag), path))
        else:
            rows.append((float(lam), float("nan"), float("nan"), path))
    return rows
