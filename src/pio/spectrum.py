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
are flattened row-major, (k, j) -> (k-1)*n + (j-1).  Path 2 is path 1 of
the mirrored model (channels and axes swapped, ``PIOModel.mirrored``); both
paths must produce determinants with identical zero sets.

Everything in ``Pi`` that does not depend on ``lam`` (products of the basis
samples, the weights and the quadrature weights) is collected once per model
in a reduction plan that lives on the model.  One assembly is then
three matrix products against ``H/(lam - H)`` and ``P/(lam - P)``, for any
number of real or complex parameters at once.  The same factors give the
moments ``<B_w, u>`` of a grid function and the synthesis ``sum_w c_w F_w``
as a few more products, so ``F_w`` and ``B_w`` are never sampled on the grid.
The root search uses the batching: it scans every gap, collects the
sign-change brackets of all gaps, and bisects them in lockstep, one
determinant batch per bisection step.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    IndexOutOfRange,
    NoAtom,
    NotAnEigenvalue,
    SpectrumHit,
)
from .expr import constant_value
from .model import _oriented
from .quadrature import Grid2D

__all__ = [
    "EssRange",
    "SpectralSet",
    "PiMatrix",
    "SpectrumReport",
    "essential_range",
    "sigma_channel",
    "sigma_ess",
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


def _admit(spectral_set, params, model, margin=None, name="lambda", where="the essential spectrum"):
    """Raise ``SpectrumHit`` for the first of ``params`` (a number or an
    array, real or complex) within ``margin`` of ``spectral_set``.

    The one admission rule of every operator entry point, with the margin
    ``operator_margin(model)``; the root search passes its own.  The refused
    parameter is printed as a plain number.
    """
    if margin is None:
        margin = operator_margin(model)
    if isinstance(params, np.ndarray):
        dist = spectral_set.distances(params)
        bad = np.flatnonzero(dist <= margin)
        param, near = (params.flat[bad[0]], dist.flat[bad[0]]) if bad.size else (None, np.inf)
    else:  # one number: the scalar distance, equal to ``distances`` and 4x cheaper
        param, near = params, spectral_set.distance(params)
    if near <= margin:
        raise SpectrumHit(f"{name} {np.asarray(param).item()!r} is within {near:.3e} of {where}")


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


def _add_atom(atoms, value, measure, fold):
    for i, (v, m) in enumerate(atoms):
        if abs(value - v) <= _VALUE_MERGE_TOL * (1.0 + abs(v)):
            atoms[i] = (v, fold(m, measure))
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
            _add_atom(atoms, cval, phi - plo, operator.add)
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
            _add_atom(atoms, value, measure, max)
    points = {v for v, _ in atoms}
    if include_zero:
        points.add(0.0)
    isolated = tuple(
        sorted(p for p in points if not any(lo <= p <= hi for lo, hi in intervals))
    )
    return SpectralSet(intervals, isolated, tuple(sorted(atoms)))


def _per_model(model, key, build):
    """``build(model)``, computed once and kept on the model itself.

    The value lives exactly as long as the model (like a cached property),
    so no module-level cache pins models that are otherwise gone.
    """
    memo = model.__dict__
    if key not in memo:
        memo[key] = build(model)
    return memo[key]


def _weight_ranges(model):
    """Essential ranges of the channel-1 weights, computed once per model.

    The channel-2 ranges are the channel-1 ranges of the mirror.
    """
    return _per_model(
        model, "_weight_ranges",
        lambda mod: tuple(essential_range(w, mod.y_interval) for w in mod.channel1.weights),
    )


def sigma_channel(model, channel):
    """Spectrum of a single channel: {0} plus its weights' essential ranges."""
    return _combine(_weight_ranges(_oriented(model, channel)))


def _build_sigma_ess(model):
    mirror = model.mirrored()
    ess = _combine([*_weight_ranges(model), *_weight_ranges(mirror)])
    mirror.__dict__["_sigma_ess"] = ess  # the swap leaves the spectrum unchanged
    return ess


def sigma_ess(model):
    """Essential spectrum of the sum: union of both channel spectra."""
    return _per_model(model, "_sigma_ess", _build_sigma_ess)


# --- finite-rank reduction --------------------------------------------------


@dataclass(frozen=True)
class _ReductionPlan:
    """The lambda-independent factors of the reduction.

    With ``Phi, H, Psi, P = phi_x, h_y, psi_y, p_x``, quadrature weights
    ``wx``, ``wy``, ``HF = H/(lam - H)`` and ``PF = P/(lam - P)``:

        A[(k,i), y]      = wy Psi_k Psi_i
        E[x, (j,q,p)]    = wx Phi_j P_q Phi_p
        G[i, (j,q,p)]    = G2[i,q] = <Psi_i, Psi_q>
        D[i, (j,q,p)]    = delta_iq sum_x E[x, (j,q,p)]

    so that ``Y1 = HF @ A.T``, ``Z = (PF @ E) * G + D`` and
    ``Pi[(k,j), (q,p)] = sum_i Y1[j,k,i] Z[i,j,(q,p)]``: three matrix
    products per assembly, for real and complex ``lam`` alike.  ``G``
    scales the product instead of being folded into a stored
    ``G2[i,q] E[x,(j,q,p)]``, which would be ``m`` times the size of ``E``.
    ``moments`` and ``synthesize`` are the grid sides of the reduction.
    """

    Phi: np.ndarray  # (n, NX)
    Psi: np.ndarray  # (m, NY)
    H: np.ndarray  # (n, NY)
    P: np.ndarray  # (m, NX)
    WP: np.ndarray  # (m, NX), wx P
    WPsi: np.ndarray  # (m, NY), wy Psi
    At: np.ndarray  # (NY, m*m), A transposed
    E: np.ndarray  # (NX, n*m*n)
    G: np.ndarray  # (m, n*m*n)
    D: np.ndarray  # (m, n*m*n)

    @classmethod
    def build(cls, model):
        Phi, H, Psi, P = model.phi_x, model.h_y, model.psi_y, model.p_x
        wx, WPsi = model.rule_x.weights, model.rule_y.weights * Psi
        n, m = Phi.shape[0], Psi.shape[0]
        At = (WPsi[:, None] * Psi[None]).reshape(m * m, -1).T
        E = wx[:, None, None, None] * (
            Phi.T[:, :, None, None] * P.T[:, None, :, None] * Phi.T[:, None, None, :]
        )  # E[x, j, q, p]
        G = np.broadcast_to((WPsi @ Psi.T)[:, None, :, None], (m, n, m, n))
        D = np.eye(m)[:, None, :, None] * E.sum(axis=0)[None]
        return cls(
            Phi, Psi, H, P, wx * P, WPsi, np.ascontiguousarray(At), E.reshape(len(wx), -1),
            G.reshape(m, -1), D.reshape(m, -1),
        )

    def fractions(self, lams):
        """``H/(lam - H)`` and ``P/(lam - P)``, shapes (L, n, NY) and (L, m, NX)."""
        lcol = lams[:, None, None]
        HF = lcol - self.H
        np.divide(self.H, HF, out=HF)
        PF = lcol - self.P
        np.divide(self.P, PF, out=PF)
        return HF, PF

    def assemble(self, lams):
        """Stacked ``Pi(lam)``, shape (L, m*n, m*n)."""
        (n, _), (m, _) = self.H.shape, self.P.shape
        count = len(lams)
        HF, PF = self.fractions(lams)
        Y1 = (HF.reshape(count * n, -1) @ self.At).reshape(count, n, m, m)
        Z = (PF.reshape(count * m, -1) @ self.E).reshape(count, m, -1)
        Z *= self.G
        Z += self.D
        Z = Z.reshape(count, m, n, m * n).transpose(0, 2, 1, 3)
        return (Y1 @ Z).transpose(0, 2, 1, 3).reshape(count, m * n, m * n)

    def moments(self, values):
        """``d_(k,j) = <B_(k,j), u> = sum_x wx P_k Phi_j (u @ (wy Psi).T)[x, k]``
        for grid samples ``u``, shape (m*n,)."""
        return ((self.WP * (values @ self.WPsi.T).T) @ self.Phi.T).ravel()

    def synthesize(self, lam, coeffs):
        """``sum_w c_w F_w(., .; lam)`` on the grid, shape (NX, NY): with
        ``C = c.reshape(m, n)`` and ``M[j,i] = sum_k C[k,j] Y1[j,k,i]``, it is
        ``Phi.T @ (HF * (C.T @ Psi)) + ((Phi.T @ M) * PF.T) @ Psi``."""
        (n, _), (m, _) = self.H.shape, self.P.shape
        (HF,), (PF,) = self.fractions(np.array([lam]))
        C = coeffs.reshape(m, n)
        Y1 = (HF @ self.At).reshape(n, m, m)
        M = (C.T[:, None, :] @ Y1)[:, 0]
        return self.Phi.T @ (HF * (C.T @ self.Psi)) + ((self.Phi.T @ M) * PF.T) @ self.Psi


def _reduction_plan(model):
    return _per_model(model, "_pi_plan", _ReductionPlan.build)


def _assemble_pi(model, lams, margin=None):
    """Stacked reduction matrices, shape (L, m*n, m*n)."""
    _admit(sigma_ess(model), lams, model, margin)
    return _reduction_plan(model).assemble(np.asarray(lams))


class _ReducedSystem:
    """The small system ``(I - tau * Pi(lam)^T) c = d`` at ``lam = 1/tau``.

    The moments ``c_w = <B_w, f>`` of a solution of ``f - tau T f = g``
    solve it (see ``pie``), and it is singular exactly when ``lam`` is a
    discrete eigenvalue, since ``det(I - tau Pi^T) = (-tau)^{mn} delta(lam)``.
    ``lam`` and ``tau`` are taken as the caller holds them; ``plan`` turns
    grid samples into right-hand sides and solutions back into grid samples.
    Each query does one SVD and counts the singular values at most
    ``rank_tol * max(s_max, 1)`` as null.
    """

    def __init__(self, model, lam, tau):
        self.lam, self.tau = lam, tau
        self.plan = _reduction_plan(model)
        pim = self.plan.assemble(np.array([lam]))[0]
        self.matrix = np.eye(pim.shape[0]) - tau * pim.T

    @staticmethod
    def _null_count(svals, rank_tol):
        return int(np.sum(svals <= rank_tol * max(float(svals.max(initial=0.0)), 1.0)))

    def nullity(self, rank_tol):
        return self._null_count(np.linalg.svd(self.matrix, compute_uv=False), rank_tol)

    def null_space(self, rank_tol):
        """Orthonormal null vectors as columns, shape (m*n, nullity)."""
        _, svals, vh = np.linalg.svd(self.matrix)
        return vh[len(svals) - self._null_count(svals, rank_tol) :].conj().T

    def solve(self, d):
        return np.linalg.solve(self.matrix, d)


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


def pi_matrix(model, lam, path=1):
    """Cross-integral matrix ``Pi(lam)`` for the requested path."""
    view = _oriented(model, path)
    entries = _assemble_pi(view, np.array([lam]))[0]
    index_map = tuple((k, j) for k in range(1, view.m + 1) for j in range(1, view.n + 1))
    return PiMatrix(lam, path, entries, index_map)


def delta(model, lam):
    """Determinant ``det(Pi(lam) - lam*I)``; real input gives a real value."""
    return delta_batch(model, np.array([lam]))[0]


def delta_batch(model, lams, margin=None):
    """Vectorized determinant over many spectral parameters; refuses any
    within ``margin`` (default: the operator margin) of the essential set."""
    lams = np.asarray(lams)
    pis = _assemble_pi(model, lams, margin)
    size = pis.shape[1]
    dets = np.linalg.det(pis - lams[:, None, None] * np.eye(size)[None])
    return dets


# --- root search ------------------------------------------------------------


def _search_settings(model, margin=None, scan_points=None, root_tol=None, rank_tol=None):
    """The model's search settings with the given overrides, checked like a model file's."""
    given = dict(margin=margin, scan_points=scan_points, root_tol=root_tol, rank_tol=rank_tol)
    return replace(model.search, **{k: v for k, v in given.items() if v is not None})


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
    rank deficiency of ``I - Pi(lam)^T / lam``.  Path 2 runs the same search
    on the mirrored model.

    The sign-change brackets of all gaps are bisected together, one
    ``delta_batch`` call per step; each bracket follows the iterates of a
    scalar bisection, so the roots do not depend on how many are refined at
    once.  The ``|delta|`` minima are refined one by one (golden section).
    """
    model = _oriented(model, path)
    search = _search_settings(model, margin, scan_points, root_tol, rank_tol)
    margin = search.resolved_margin(model.bound)
    scan_points, root_tol, rank_tol = search.scan_points, search.root_tol, search.rank_tol

    ess = sigma_ess(model)
    box = (-model.bound - 1.0, model.bound + 1.0)

    def dvals(lams):
        return delta_batch(model, lams, margin=margin / 2).real

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

    def multiplicity(lam):
        return _ReducedSystem(model, lam, 1.0 / lam).nullity(rank_tol)

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
                push(lams[i], max(1, multiplicity(lams[i])))
                hits[max(i - 1, 0) : i + 1] = True
            else:
                root = next(roots)
                push(root, max(1, multiplicity(root)))
                hits[i] = True
        # even-order zeros: |delta| dips without a sign change
        min_gate = np.sqrt(root_tol) * max(1.0, scale)
        a, b, c = np.abs(vals[:-2]), np.abs(vals[1:-1]), np.abs(vals[2:])
        near_hit = hits[:-2] | hits[1:-1] | hits[2:]
        for i in 1 + np.flatnonzero((b <= a) & (b <= c) & (b < min_gate) & ~near_hit):
            lam = _golden_min(
                lambda t: abs(float(dvals(np.array([t]))[0])), lams[i - 1], lams[i + 1], root_tol
            )
            mult = multiplicity(lam)
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
    search = _search_settings(model, margin, scan_points, root_tol, rank_tol)
    bound = model.bound
    margin = search.resolved_margin(bound)
    ess = sigma_ess(model)
    disc = discrete_spectrum(model, margin, search.scan_points, search.root_tol, search.rank_tol)
    box = (-bound - 1.0, bound + 1.0)
    unresolved = tuple(
        (max(lo, box[0]), min(hi, box[1]))
        for lo, hi in _blocked_bands(ess, margin)
        if hi > box[0] and lo < box[1]
    )
    settings = {**asdict(search), "margin": margin, "order": model.order}
    return SpectrumReport(ess, disc, bound, settings, unresolved)


# --- eigenfunctions -----------------------------------------------------------


def eigenfunctions_T(model, lam0):
    """Orthonormal eigenfunctions of the sum at a discrete eigenvalue.

    The homogeneous equation reduces to the coefficient system
    ``c = (1/lam) Pi(lam)^T c`` for the moments ``c_w = <B_w, f>``, the null
    space of the reduced system at ``tau = 1/lam``; the eigenfunction is
    rebuilt as ``f = (1/lam) sum_w c_w F_w`` by the reduction plan's
    synthesis.  Raises if ``lam0`` is in/near the essential set or the
    system has no null direction under the model's ``search.rank_tol``.
    """
    lam0 = float(lam0)
    _admit(sigma_ess(model), lam0, model)
    system = _ReducedSystem(model, lam0, 1.0 / lam0)
    coeffs = system.null_space(model.search.rank_tol)
    if coeffs.shape[1] == 0:
        raise NotAnEigenvalue(f"{lam0!r} leaves the reduced system nonsingular")

    out = []
    for coeff in coeffs.T:
        f = Grid2D(model.rule_x, model.rule_y, system.plan.synthesize(lam0, coeff) / lam0)
        for g in out:  # grid Gram-Schmidt against what we already kept
            f = f - g.inner(f) * g
        norm = f.norm()
        if norm <= 1e-12:
            continue
        vals = f.values / norm
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
    view = _oriented(model, channel)
    if not 1 <= j0 <= view.n:
        raise IndexOutOfRange(f"member index must be in 1..{view.n}, got {j0}")
    weight = view.channel1.weights[j0 - 1]
    tol = 1e-9 * (1.0 + abs(lam0))
    level = []
    measure = 0.0
    for plo, phi in _pieces(weight, view.y_interval):
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

    fy = indicator(view.rule_y.nodes) / np.sqrt(measure)
    grid = Grid2D(view.rule_x, view.rule_y, np.outer(view.phi_x[j0 - 1], fy))
    return grid if view is model else grid.transposed()


# --- determinant trace --------------------------------------------------------


def delta_trace_rows(model, lmin, lmax, samples, path=1):
    """Rows (lambda, Re delta, Im delta, path); NaN inside the guard margin."""
    view = _oriented(model, path)
    lams = np.linspace(float(lmin), float(lmax), int(samples))
    margin = operator_margin(model)
    vals = np.full(lams.shape, complex(np.nan, np.nan))
    ok = sigma_ess(view).distances(lams) > margin
    if ok.any():
        vals[ok] = delta_batch(view, lams[ok], margin=margin / 2)
    return [(float(lam), float(v.real), float(v.imag), path) for lam, v in zip(lams, vals)]
