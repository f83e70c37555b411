"""Spectral analysis of the two-channel operator sum.

The essential part of the spectrum is read off the weights: it is ``{0}``
together with the essential range of every weight in both channels, each a
``SpectralSet`` from the record ``model._sample`` keeps of the weight.  The
rest (the discrete part) consists of the real zeros of the determinant

    delta(lam) = det(Pi(lam) - lam*I)

of an ``m*n x m*n`` matrix obtained by reducing the homogeneous second-kind
equation to a finite linear system.  The reduction works on the closed
composition ``W(tau) = (E - tau*T2)^{-1} S1(tau) T2`` whose kernel is
separable:

    W(1/lam) f = lam * sum_w F_w(x, y; lam) * <B_w, f>,

where ``w`` runs over pairs (k, j), ``k`` indexing channel 2 and ``j``
channel 1, ``B_(k,j)(s, t) = p_k(s) phi_j(s) psi_k(t)`` and

    F_(k,j)(x, y) = phi_j(x) * ( psi_k(y) h_j(y) / (lam - h_j(y))
        + sum_i p_i(x) psi_i(y) / (lam - p_i(x)) * K_j[k,i] ),
    K_j[k,i] = <psi_k, h_j/(lam - h_j) psi_i>_y    (n blocks of m x m).

With orthonormal bases (``<psi_i, psi_q> = delta_iq``; a model that fails
``validate_model`` has no sampled arrays and is refused with ``InvalidModel``) and
``p + p^2/(lam - p) = lam p/(lam - p)``, the cross integrals factor as

    Pi[(k,j), (q,p)] = <F_(k,j), B_(q,p)> = lam * K_j[k,q] * N_q[j,p],
    N_q[j,p] = <phi_j, p_q/(lam - p_q) phi_p>_x    (m blocks of n x n).

Pairs are flattened row-major, (k, j) -> (k-1)*n + (j-1).  Path 2 is the
mirrored model (``PIOModel.mirrored``): every function here called on
``model.mirrored()`` runs the same reduction with the two families in the
other order, and both paths must give the same zero set.

The lambda-independent factors live in a reduction plan kept on the model:
one assembly is two matrix products and one broadcast product, for any
number of real or complex parameters at once, and the same factors give the
moments ``<B_w, u>`` and the synthesis ``sum_w c_w F_w``, so ``F_w`` and
``B_w`` are never sampled on the grid.  The determinant is evaluated as
``delta = lam^(mn) det(K N - I)``.

The root search is spectrum slicing (Sylvester's law of inertia; Parlett,
*The Symmetric Eigenvalue Problem*, 1980).  For real ``lam`` off the
essential set,

    X(lam) = [[K~, I], [I, N~]],    K~ = blockdiag_j K_j,  N~ = blockdiag_q N_q,

is real symmetric of size 2mn (``K~`` acts in the (k, j) order, so
``K~ N~ = K N``), and ``det X = det(K N - I) = delta / lam^(mn)``.  Let
``nu(lam)`` be its number of negative eigenvalues.  Then ``|nu(b) - nu(a)|``
is the number of eigenvalues of T in ``(a, b)``, counted with multiplicity,
for any ``a < b`` in one gap of the essential set:

* ``nu`` is constant where ``X`` is nonsingular, since ``X`` is analytic in
  ``lam`` on the gap, so it changes only at the eigenvalues.
* ``ker X(lam0)`` is in bijection with the eigenspace of T at ``lam0``.
  With ``S = diag(I, -I)``, the kernel of ``S X S = [[K~, -I], [-I, N~]]``
  is the pairs ``d = K~ c``, ``c = N~ d``.  Projecting ``lam0 f = T f`` on
  ``phi_j`` in x and on ``psi_k`` in y shows that the moments
  ``c_(k,j) = <phi_j, p_k beta_k>_x`` and ``d_(k,j) = <psi_k, h_j alpha_j>_y``
  of an eigenfunction are such a pair, where ``alpha_j = <phi_j, f>_x`` and
  ``beta_k = <psi_k, f>_y``; conversely ``alpha_j = sum_k psi_k
  c_(k,j) / (lam0 - h_j)`` and ``beta_k = sum_j phi_j d_(k,j) / (lam0 - p_k)``
  rebuild ``f``, and ``f = 0`` forces ``c = d = 0``.
* Since ``d/dlam h/(lam - h) = -h/(lam - h)^2``, the derivative of the
  quadratic form of ``S X S`` on that kernel is
  ``-sum_j int h_j alpha_j^2 - sum_k int p_k beta_k^2 = -<f, T f> = -lam0 |f|^2``,
  definite.  To first order the zero eigenvalues of the analytic symmetric
  family move as the eigenvalues of that form (Rellich), so every one of
  them crosses in the same direction: ``nu`` rises by the multiplicity at
  ``lam0 > 0`` and falls by it at ``lam0 < 0`` (``S`` is a congruence, so
  ``X`` and ``S X S`` share their inertia).

The count takes one ``eigvalsh`` of size ``mn``, not ``2mn`` (Haynsworth's
inertia additivity; Haynsworth, *Linear Algebra Appl.* 1 (1968) 73-81).  Where
``N~`` is nonsingular,

    X = L diag(K~ - N~^{-1}, N~) L^T,    L = [[I, N~^{-1}], [0, I]],

so by Sylvester's law ``nu`` is the number of negative eigenvalues of ``N~``
(``m`` blocks ``N_q``, one batched ``eigh``, which also gives ``N~^{-1}``)
plus that of the Schur complement ``K~ - N~^{-1}``, and since ``det L = 1``,
``det X`` is the product of both sets of eigenvalues.  The pivot rule, per
parameter: ``N~`` where its eigenvalues ``d`` have ``min |d| > _PIVOT_RCOND *
max |d|``, else the full ``X`` (as where a channel-2 weight is identically 0).  The rule
makes the computed count the exact count of a slicing matrix near ``X``:

* ``eigh`` and ``eigvalsh`` are backward stable, so with ``u`` the unit
  roundoff the count is exactly that of ``X(K~ + F, N~ + E)`` with
  ``|E| <= c u |N~|`` and ``|F| <= c u (|K~| + |N~^{-1}|)``.
* The congruence ``diag(a I, I / a)`` maps ``X(K~, N~)`` to ``X_a = X(a^2 K~,
  N~ / a^2)`` and keeps its inertia and determinant; take ``a^2 = |N~|``.
  The perturbation becomes ``diag(a^2 F, E / a^2)``, of norm at most
  ``c u (|X_a| + 1 + max |d| / min |d|)``, and ``|X_a| >= 1`` (the identity
  blocks).  So the count is exactly that of a matrix within
  ``c u (2 + 1 / _PIVOT_RCOND) |X_a|``, about ``c sqrt(u) |X_a|``, of ``X_a``,
  which has the count of ``X``; the full ``eigvalsh`` gives ``c u |X|``.
* A pivot eigenvalue near 0 moves no count by its sign: the Schur complement
  holds an eigenvalue near ``-1/d``, so a ``d`` that rounds to the other sign
  moves one negative eigenvalue from one set to the other.

On the grid the integrals are quadrature sums and the argument holds for
the discretized operator: the count certifies that the search misses no
eigenvalue outside the margin neighborhoods of the essential set, and its
jump is the multiplicity (see ``discrete_spectrum``).  The solvers and
``eigenfunctions_T`` read the same roots: ``lam`` is an eigenvalue of multiplicity
``k`` where roots of total multiplicity ``k`` lie within the operator margin (``_multiplicity``).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NoAtom, NotAnEigenvalue, SpectrumHit, _numeric, _whole
from .model import _member, _oriented, _sample, _stored
from .quadrature import Grid2D, _interval

__all__ = [
    "SpectralSet",
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
]

_VALUE_MERGE_TOL = 1e-12


def operator_margin(model):
    """Default distance kept from the essential set in operator formulas."""
    return 1e-9 * (1.0 + model.bound)


def _reciprocal(tau):
    """``1/tau`` for a nonzero Python number ``tau`` (``_numeric``), whose division gives
    ``inf`` where it overflows (``1e-310``), and that raises ``DomainError`` naming ``tau``."""
    reciprocal = 1.0 / tau
    if not cmath.isfinite(reciprocal):
        raise DomainError(f"tau {tau!r} is nonzero but 1/tau overflows")
    return reciprocal


def _admit(spectral_set, params, model, name="lambda", where="the essential spectrum"):
    """Raise ``SpectrumHit`` for the first of ``params`` (a number or an array, real or
    complex, converted by ``_numeric``, so finite) within ``operator_margin(model)`` of
    ``spectral_set``.

    The one admission rule of every operator entry point and of
    ``delta_batch``.  The root search's count does not admit: its
    parameters lie in the search gaps, at least ``2 om`` from the essential
    set (``discrete_spectrum``).

    An array is admitted in a few numpy passes where every real part is
    farther than the margin from every member of the set: a complex parameter
    is no nearer than its real part.  Any other array goes through the rule
    for one number in order, whose scalar distance equals
    ``SpectralSet.distances``, so each refusal and its message are those of
    the elementwise rule.
    """
    margin = operator_margin(model)
    if isinstance(params, np.ndarray):
        members, re = spectral_set._members, params.real.ravel()
        if not margin < np.maximum(members[:, :1] - re, re - members[:, 1:]).min(initial=np.inf):
            for param in params.ravel().tolist():
                _admit(spectral_set, param, model, name, where)
        return
    near = spectral_set._distance(params)  # the scalar distance, equal to ``distances`` and 4x cheaper
    if near <= margin:
        raise SpectrumHit(f"{name} {params!r} is within {near:.3e} of {where}")


# --- essential part -------------------------------------------------------


@dataclass(frozen=True)
class SpectralSet:
    """A closed subset of the real line: intervals plus isolated points.

    ``atoms`` ``(value, measure)`` flags the values that a weight attains on
    positive measure, eigenvalues of infinite multiplicity.  Each atom value
    is one of the ``points`` or lies in one of the ``intervals``, so the set
    is those two alone.  The constructor is internal and checks none of this:
    the library builds every set by ``_closed_set``, which makes it so.  0
    belongs to every channel spectrum and to ``sigma_ess``, not to a weight's
    range or the operators' weight set.
    """

    intervals: tuple
    points: tuple
    atoms: tuple

    def distance(self, lam):
        """The distance of one number by ``_numeric``, NaN for a NaN one."""
        return self._distance(_numeric(lam, "lambda", finite=False))

    def _distance(self, lam):
        """``distance`` of a Python number."""
        lam = complex(lam)
        if cmath.isnan(lam) and not cmath.isinf(lam):
            return np.nan  # as ``distances``: a NaN part makes every distance NaN
        best = np.inf
        for lo, hi in self.intervals:
            dx = max(0.0, lo - lam.real, lam.real - hi)  # +0.0 first, so a tie is never -0.0
            best = min(best, float(np.hypot(dx, lam.imag)) if lam.imag else dx)  # hypot(d, 0) == d
        for value in self.points:
            best = min(best, abs(lam - value))
        return best

    def distances(self, lams):
        """``distance`` of each (real or complex) parameter, as one array."""
        lams = np.asarray(lams)
        lo, hi = self._members.T.reshape(2, -1, *(1,) * lams.ndim)  # members on a new first axis
        re = lams.real
        dist = np.maximum(np.maximum(lo - re, re - hi), 0.0)  # real offset to each member, 0 inside
        if np.iscomplexobj(lams):  # hypot(d, 0) == d, so real parameters skip it
            dist = np.hypot(dist, lams.imag)
        return dist.min(axis=0, initial=np.inf)

    @cached_property
    def _members(self):
        """The set as closed intervals, shape (M, 2): a point ``v`` is ``(v, v)``."""
        return np.array([*self.intervals, *zip(self.points, self.points)], dtype=float).reshape(-1, 2)

    def as_dict(self):
        return {
            "intervals": [[lo, hi] for lo, hi in self.intervals],
            "points": list(self.points),
            "atoms": [[v, m] for v, m in self.atoms],
        }


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


def _closed_set(intervals, atoms, points=()):
    """The ``SpectralSet`` of the intervals (merged), the atoms and the extra
    ``points``; the atom values and points inside no interval are isolated."""
    intervals = _merge_intervals(intervals)
    values = {*(v for v, _ in atoms), *points}
    isolated = sorted(p for p in values if not any(lo <= p <= hi for lo, hi in intervals))
    return SpectralSet(intervals, tuple(isolated), tuple(sorted(atoms)))


def essential_range(expr, interval):
    """Essential range of a weight over the interval, a ``SpectralSet`` without 0:
    each piece that ``model._sample`` finds constant is an atom ``(value, piece
    length)``, every other piece the interval between its extrema, the weight's
    values at its ends and critical points where it is a polynomial, else the
    extrema of its range samples: the same derivation as a model's weight ranges
    on the records it keeps.  An interval that is not finite with ``lo < hi``
    raises ``BadInterval``, as in ``build_rule``."""
    return _derive_range(_sample(expr, np.empty(0), np.empty(0), _interval(interval), {}))


def _derive_range(sample):
    """The essential range from a weight's ``_Sample``, whose ``PioError`` is raised;
    the lengths of constant pieces at one level add up in its atom."""
    intervals = []
    atoms = []
    for lo, hi, level, low, high in _stored(sample.pieces):
        if level is None:
            intervals.append((low, high))
        else:
            _add_atom(atoms, level, hi - lo, operator.add)
    return _closed_set(intervals, atoms)


def _combine(sets, points=()):
    """Union of weight ranges (``SpectralSet``s whose points are all atom values)
    and the extra ``points``; an atom in several of them keeps its largest measure."""
    atoms = []
    for s in sets:
        for value, measure in s.atoms:
            _add_atom(atoms, value, measure, max)
    return _closed_set([iv for s in sets for iv in s.intervals], atoms, points)


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
    """Union of the essential ranges of the channel-1 weights, without the
    zero, computed once per model from the record it keeps of each weight.

    The operators admit ``1/tau`` against it; the channel-2 set is the
    mirror's.  A model that fails validation is refused with ``InvalidModel``.
    """

    def build(mod):
        mod._require_valid()
        return _combine([_derive_range(sample) for sample in mod._samples1[1]])

    return _per_model(model, "_weight_ranges", build)


def sigma_channel(model, channel):
    """Spectrum of a single channel: {0} plus its weights' essential ranges,
    built once per model and channel."""
    view = _oriented(model, channel)
    return _per_model(view, "_sigma_channel", lambda mod: _combine([_weight_ranges(mod)], (0.0,)))


def _build_sigma_ess(model):
    mirror = model.mirrored()
    ess = _combine([_weight_ranges(model), _weight_ranges(mirror)], (0.0,))
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
    ``wx``, ``wy``, ``HF = H/(lam - H)`` and ``PF = P/(lam - P)``, the Gram
    factors ``At[y, (k,i)] = wy Psi_k Psi_i`` and ``Bt[x, (j,p)] = wx Phi_j Phi_p``
    give ``K = HF @ At`` and ``N = PF @ Bt``.  No factor for the channel-2
    Gram matrix ``G2 = <psi_i, psi_q>`` is kept: the plan is built only for
    models that pass validation, where ``G2`` is the identity to the
    validation tolerance, and the rest of the reduction (the closed-form
    channel resolvents too) assumes it anyway, so a ``G2`` term would make
    nothing exact.  ``moments`` and ``synthesize`` are the grid sides.
    """

    Phi: np.ndarray  # (n, NX)
    Psi: np.ndarray  # (m, NY)
    H: np.ndarray  # (n, NY)
    P: np.ndarray  # (m, NX)
    WP: np.ndarray  # (m, NX), wx P
    WPsi: np.ndarray  # (m, NY), wy Psi
    At: np.ndarray  # (NY, m*m)
    Bt: np.ndarray  # (NX, n*n)

    @classmethod
    def build(cls, model):
        Phi, H, Psi, P = model.phi_x, model.h_y, model.psi_y, model.p_x
        WPhi, WPsi = model.rule_x.weights * Phi, model.rule_y.weights * Psi

        def gram(weighted, basis):  # [node, (a, b)] = w basis_a basis_b
            products = (weighted[:, None] * basis[None]).reshape(-1, basis.shape[1])
            return np.ascontiguousarray(products.T)

        return cls(Phi, Psi, H, P, model.rule_x.weights * P, WPsi, gram(WPsi, Psi), gram(WPhi, Phi))

    def families(self, lams):
        """``HF``, ``PF``, ``K`` and ``N`` at each parameter, shapes (L, n, NY),
        (L, m, NX), (L, n, m, m) and (L, m, n, n)."""
        (n, ny), (m, nx) = self.H.shape, self.P.shape
        lcol = lams[:, None, None]
        HF = lcol - self.H
        np.divide(self.H, HF, out=HF)
        PF = lcol - self.P
        np.divide(self.P, PF, out=PF)
        K = (HF.reshape(-1, ny) @ self.At).reshape(len(lams), n, m, m)
        N = (PF.reshape(-1, nx) @ self.Bt).reshape(len(lams), m, n, n)
        return HF, PF, K, N

    def coupling(self, lams):
        """``(families, KN)`` at each parameter: the stacked coupling ``KN = Pi(lam) / lam``,
        shape (L, m*n, m*n), the one product of the determinant, ``Pi`` and the small system."""
        families = self.families(lams)
        return families, _block_product(*families[2:])

    def moments(self, values):
        """``d_(k,j) = <B_(k,j), u> = sum_x wx P_k Phi_j (u @ (wy Psi).T)[x, k]``
        for grid samples ``u``, shape (m*n,)."""
        return ((self.WP * (values @ self.WPsi.T).T) @ self.Phi.T).ravel()

    def synthesize(self, families, coeffs):
        """``sum_w c_w F_w(., .; lam)`` on the grid, shape (NX, NY), from the
        ``families`` at the one parameter ``lam``: with ``C = c.reshape(m, n)``
        and ``M[j,i] = sum_k C[k,j] K_j[k,i]``, it is
        ``Phi.T @ (HF * (C.T @ Psi)) + ((Phi.T @ M) * PF.T) @ Psi``."""
        (HF,), (PF,), (K,), _ = families
        C = coeffs.reshape(self.P.shape[0], self.H.shape[0])
        M = (C.T[:, None, :] @ K)[:, 0]
        return self.Phi.T @ (HF * (C.T @ self.Psi)) + ((self.Phi.T @ M) * PF.T) @ self.Psi


def _block_product(K, N):
    """``[(k,j), (q,p)] = K_j[k,q] * N_q[j,p]`` for stacked families, written
    into one contiguous array of shape (L, m*n, m*n)."""
    count, n, m, _ = K.shape
    out = np.empty((count, m, n, m, n), dtype=np.result_type(K, N))
    # [l, k, j, q, p] = K[l, j, k, q] * N[l, q, j, p]
    np.multiply(K.transpose(0, 2, 1, 3)[..., None], N.transpose(0, 2, 1, 3)[:, None], out=out)
    return out.reshape(count, m * n, m * n)


def _reduction_plan(model):
    return _per_model(model, "_pi_plan", _ReductionPlan.build)


def _small_system(model, lam):
    """``(families, I - KN^T)`` at a ``lam`` that ``_multiplicity`` has admitted, built by its two
    solvers, ``operators._second_kind`` and ``eigenfunctions_T``: the families for the plan's moments
    and synthesis, and the matrix of the small system ``(I - tau Pi^T) c = d`` at ``tau = 1/lam``
    (``tau Pi = KN``).  The moments ``c_w = <B_w, f>`` of a solution of
    ``f - tau T f = g`` solve it (see ``pie``), and it is singular exactly at the
    discrete eigenvalues: ``det(I - KN^T) = (-1/lam)^(mn) delta(lam)``.
    """
    families, kn = _reduction_plan(model).coupling(np.array([lam]))
    return families, np.eye(kn.shape[1]) - kn[0].T


def pi_matrix(model, lam):
    """Cross-integral matrix ``Pi(lam) = lam K N``, an ``(mn, mn)`` array indexed
    by the row-major pairs described on top; path 2 is ``pi_matrix(model.mirrored(), lam)``."""
    lam = _numeric(lam, "lambda")
    _admit(sigma_ess(model), lam, model)
    _, kn = _reduction_plan(model).coupling(np.array([lam]))
    return lam * kn[0]


def delta(model, lam):
    """Determinant ``det(Pi(lam) - lam*I)`` at one number ``lam``; real input gives a real value."""
    return delta_batch(model, np.array([_numeric(lam, "lambda")]))[0]


def delta_batch(model, lams):
    """Vectorized determinant over a one-dimensional array of spectral parameters;
    refuses any within the operator margin of the essential set.

    Since ``Pi = lam K N``, it is evaluated as ``lam^(mn) det(K N - I)``.
    """
    lams = _numeric(lams, "lambda", ndim=1)
    _admit(sigma_ess(model), lams, model)
    _, kn = _reduction_plan(model).coupling(lams)
    kn.reshape(-1, kn.shape[1] ** 2)[:, :: kn.shape[1] + 1] -= 1.0  # K N - I, in place
    dets = np.linalg.det(kn)
    return dets * np.power(lams, kn.shape[1], dtype=dets.dtype)


# --- root search ------------------------------------------------------------


def _search_region(model):
    """``(margin, gaps, unresolved)`` of the root search, once per model: the model's
    ``search.margin`` (else ``1e-3 * (1 + bound)``) raised to twice ``operator_margin(model)``,
    so every parameter searched passes ``_admit``; the pieces of the box ``[-bound-1, bound+1]``,
    shape (G, 2), between the bands (the essential set widened by the margin, merged); and those
    bands clipped to the box."""

    def build(mod):
        bound = mod.bound
        margin = max(mod.search.margin or 1e-3 * (1.0 + bound), 2.0 * operator_margin(mod))
        lo, hi = -bound - 1.0, bound + 1.0
        bands = _merge_intervals((a - margin, b + margin) for a, b in sigma_ess(mod)._members.tolist())
        edges = np.clip([lo, *np.ravel(bands), hi], lo, hi).reshape(-1, 2)
        unresolved = tuple((max(a, lo), min(b, hi)) for a, b in bands if b > lo and a < hi)
        return margin, edges[edges[:, 1] - edges[:, 0] > 1e-12], unresolved

    return _per_model(model, "_search_region", build)


def _refine_roots(fn, lo, hi, flo, fhi, root_tol):
    """Refine many sign-change brackets in lockstep by the ITP method
    (interpolate, truncate, project; Oliveira and Takahashi, ACM TOMS 47(1),
    2020), interpolating as Chandrupatla does (Adv. Eng. Softw. 28, 1997).

    ``fn`` maps an array of parameters to an array of values; ``flo`` and
    ``fhi`` are its values at the bracket ends, of opposite signs, so no
    call is spent on them.  Each step:

    * interpolates: inverse quadratic interpolation through the two ends
      and the point replaced last, where Chandrupatla's test finds the
      three points well placed; otherwise regula falsi, truncated as in ITP
      (moved ``0.2 w^2 / w0`` towards the midpoint, ``w`` the width and
      ``w0`` the first), which keeps it from creeping in from one side;
    * keeps the point ``root_tol / 2`` inside the bracket, so that a
      converged estimate steps across the root and closes the bracket;
    * projects it onto the interval around the midpoint that keeps the
      next width at most ``root_tol * 2^(budget - steps)``, so a bracket
      takes at most ``budget = ceil(log2(w0 / root_tol)) + 1`` steps, one
      more than bisection.

    A bracket stops once narrower than ``root_tol`` (its midpoint is
    returned), on an exact zero (returned as is) or at its budget.  All
    brackets still open share one ``fn`` call per step, in their input
    order.  The rest of a step runs per bracket in Python floats
    (``_itp_point``), in the IEEE operations, and their order, of the
    elementwise numpy form that ``tests/test_spectrum.py`` keeps as its
    reference; where that form divides by zero or takes the square root of
    a negative number, the float code gives numpy's signed infinity or NaN
    explicitly.  So a bracket's iterates do not depend on which others are
    refined with it, and a step costs about 3 us for one open bracket and
    1.5 us for each further one besides the ``fn`` call (2-vCPU x86 host).
    """
    # per bracket: x1 the newest end, x2 the other end, x3 the point replaced last
    x1, f1, x2, f2 = (np.asarray(v, dtype=float).ravel().tolist() for v in (hi, fhi, lo, flo))
    x3, f3 = [math.nan] * len(x1), [math.nan] * len(x1)
    width0 = [b - a for a, b in zip(x2, x1)]
    (mtol, etol), budget = math.frexp(root_tol), []
    for w in width0:
        mw, ew = math.frexp(w)
        mant, expo = math.frexp(mw / mtol)  # w / root_tol scaled by 2^(etol - ew): no overflow
        budget.append(expo + ew - etol - (mant == 0.5) + 1)  # ceil(log2(w / root_tol)) + 1, exactly
    exact = [False] * len(x1)
    live = [i for i, w in enumerate(width0) if w > root_tol]
    steps = 0
    while live:
        xs = [
            _itp_point(x1[i], f1[i], x2[i], f2[i], x3[i], f3[i], width0[i],
                       math.ldexp(root_tol, budget[i] - steps - 1), root_tol)
            for i in live
        ]
        fxs = np.asarray(fn(np.array(xs)), dtype=float).tolist()
        steps += 1
        still = []
        for i, x, fx in zip(live, xs, fxs):
            if (fx < 0.0) == (f1[i] < 0.0):  # x replaces x1, else x2 (and x1 is the other end)
                x3[i], f3[i] = x1[i], f1[i]
            else:
                x3[i], f3[i], x2[i], f2[i] = x2[i], f2[i], x1[i], f1[i]
            x1[i], f1[i] = x, fx
            if fx == 0.0:
                exact[i] = True
            elif budget[i] > steps and abs(x - x2[i]) > root_tol:
                still.append(i)
        live = still
    return np.array([a if hit else 0.5 * (a + b) for a, b, hit in zip(x1, x2, exact)])


def _itp_point(a, fa, b, fb, c, fc, width0, reach, root_tol):
    """The next ITP point of the bracket with newest end ``a``, other end
    ``b`` and last replaced point ``c`` (NaN before the first step);
    ``reach`` is ``root_tol / 2 * 2^(budget - steps)``."""
    left, right = min(a, b), max(a, b)
    width, mid = right - left, 0.5 * (a + b)
    xi, phi = _div(a - b, c - b), _div(fa - fb, fc - fb)
    # Chandrupatla's test; a square root of a negative number fails it as NaN would
    if 0.0 <= xi <= 1.0 and 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
        # 0 < phi < 1 here, so fa, fb and fc differ; with b != a, no divisor is zero
        iqi = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        x = a + iqi * (b - a)
    else:
        falsi = a + _div(fa, fa - fb) * (b - a)
        shift = 0.2 / width0 * width * width
        x = falsi + _sign(mid - falsi) * shift if shift <= abs(mid - falsi) else mid
    lower, upper = left + 0.5 * root_tol, right - 0.5 * root_tol
    x = upper if x >= upper else lower if x <= lower else x  # as np.clip: NaN stays NaN
    slack = max(reach - 0.5 * width, 0.0)
    return x if abs(x - mid) <= slack else mid - _sign(mid - x) * slack


def _div(num, den):
    """``num / den`` with numpy's outcome where ``den`` is zero: NaN or a signed infinity."""
    if den:
        return num / den
    if num == 0.0 or num != num:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _sign(value):
    """``np.sign`` of a float: 0.0 for either zero, NaN for NaN."""
    return 1.0 if value > 0.0 else -1.0 if value < 0.0 else 0.0 if value == 0.0 else value


# The pivot rule of the slicing count: ``N~`` pivots at a parameter where the
# eigenvalues ``d`` of its blocks ``N_q`` have ``min |d| > _PIVOT_RCOND * max |d|``; with
# the square root of the unit roundoff, the count is exact for a matrix within
# about ``c sqrt(u)`` of the slicing matrix (module docstring).
_PIVOT_RCOND = 2.0**-26


def _block_diagonals(K, N):
    """``K~ + N~`` in the (k, j) order, shape (L, mn, mn), for stacked families
    ``K`` (L, n, m, m) and ``N`` (L, m, n, n): ``K~[(k,j), (q,j)] = K_j[k,q]``
    and ``N~[(q,j), (q,p)] = N_q[j,p]``, written through ``einsum``'s diagonal views."""
    count, n, m, _ = K.shape
    out = np.zeros((count, m, n, m, n))
    np.einsum("lkjqj->ljkq", out)[...] = K
    diagonal = np.einsum("lqjqp->lqjp", out)
    diagonal += N
    return out.reshape(count, m * n, m * n)


def _count(model, lams):
    """``nu`` and ``det X = det(K N - I)`` at real parameters, from ``2mn``
    numbers per parameter whose negatives number ``nu`` and whose product is
    ``det X``: the eigenvalues of ``N~`` (one batched ``eigh`` of the ``N_q``)
    and of ``K~ - N~^{-1}`` (one ``eigvalsh`` of size ``mn``) where ``N~``
    pivots, else those of ``X`` (module docstring).  It is the count of the
    search and does not admit or convert: its parameters are the search's own.

    As a product of the same eigenvalues, ``det X`` has the sign ``(-1)^nu``
    or is 0, so the ends of a piece whose counts differ by one carry
    opposite signs or a zero; the LU determinant of ``delta_batch`` can miss
    that within roundoff of a root.  The product is taken on mantissas and
    exponents apart (``frexp``): ``det N~`` alone under- or overflows where
    the blocks ``N_q`` are uniformly small or large, though ``det X`` is in
    range.  The scalings are by powers of 2, exact, so while the mantissas'
    product (at least ``2^(-2mn)``) stays normal, for ``mn < 512``, the
    roundings are those of the plain product.

    On a 2-vCPU x86 host with one BLAS thread, a count at one parameter of
    ramp-8 (``mn = 64``) takes about 0.24 ms, and one of fixture a about 42 us,
    of which the ``eigh`` and ``eigvalsh`` calls are about 10 us."""
    _, _, K, N = _reduction_plan(model).families(lams)
    d, V = np.linalg.eigh(N)
    size = d.shape[1] * d.shape[2]  # mn
    mag = np.abs(d.reshape(-1, size))
    ok = mag.min(axis=1) > _PIVOT_RCOND * mag.max(axis=1)
    w = np.empty((len(lams), 2 * size))
    pivot = slice(None) if ok.all() else ok  # views, not copies, where every parameter pivots
    if ok.any():  # Haynsworth: X = L diag(K~ - N~^{-1}, N~) L^T
        d, V = d[pivot], V[pivot]
        w[pivot, :size] = d.reshape(-1, size)
        w[pivot, size:] = np.linalg.eigvalsh(_block_diagonals(K[pivot], -(V / d[..., None, :]) @ V.swapaxes(-1, -2)))
    if not ok.all():  # X = [[K~, I], [I, N~]] itself
        rest = ~ok
        X = np.zeros((rest.sum(), 2, size, 2, size))
        X[:, 0, :, 0] = _block_diagonals(K[rest], np.zeros_like(N[rest]))
        X[:, 1, :, 1] = _block_diagonals(np.zeros_like(K[rest]), N[rest])
        X[:, 0, :, 1] = X[:, 1, :, 0] = np.eye(size)
        w[rest] = np.linalg.eigvalsh(X.reshape(-1, 2 * size, 2 * size))
    wm, we = np.frexp(w)
    return (wm < 0.0).sum(axis=1), np.ldexp(wm.prod(axis=1), we.sum(axis=1))


# The width to which the search locates a root: below every model's ``om / 4``
# (at least 2.5e-10), so a root lies within ``om / 8`` of its eigenvalue.
_ROOT_TOL = 1e-10
_SUBSCAN_POINTS = 8
# Where a piece is split: an irrational fraction near 1/2.  A probe within
# roundoff of a multiple eigenvalue may split its count between the two
# halves, which would report it as several simple ones; midpoints land on the
# round values where structured models (constant weights) put eigenvalues.
_SPLIT = math.sqrt(2.0) - 0.9


def discrete_spectrum(model):
    """Real zeros of the determinant outside the essential set, with their
    multiplicities, certified complete by the slicing count.

    The one root search of a model, run on the first call and kept on it for
    ``sigma_full`` and the solvers (``_multiplicity``); path 2 is the same
    search on ``model.mirrored()``, which keeps its own.

    The gaps of ``[-bound-1, bound+1]`` minus a margin neighborhood of the
    essential set are counted at their ends in one batch.  The pieces that
    hold two or more eigenvalues are split on counts (at ``_SPLIT``) in
    lockstep, one batch per step; a piece narrower than ``_ROOT_TOL`` that
    still holds ``k >= 2`` is one eigenvalue of multiplicity ``k``.  A piece
    that holds one is a sign-change bracket of its eigenvalue:

    * a piece with an end at a gap end, a band edge or the box end, is
      sub-scanned at ``_SUBSCAN_POINTS``, all such pieces together in one
      determinant call, and its first sign change is the bracket.  Near a band
      edge the determinant has log or pole singularities, and a bracket from
      the piece itself costs more steps there (36 calls on fixture b and on
      ramp-1/ramp-2 without the sub-scan);
    * a piece between two split points is its own bracket: its count values
      have opposite signs or a zero (``_count``).

    The brackets are refined to ``_ROOT_TOL`` by ``_refine_roots``, one call
    per step, on the scale-free ``det X = delta / lam^(mn)``: the count gives
    ``det X`` at the ends directly, and the ``delta_batch`` values are divided
    by ``lam^(mn)``, which has one sign on every gap since ``0`` is essential,
    so the brackets are those of ``delta``.  ``lam^16`` varies 7.3 times across
    sumrule-4's bracket ``(0.4497, 0.5094)``, curvature that used up ITP's
    budget on ``delta`` and ended it in bisection.  The quotient takes
    ``lam``'s binary exponent apart (frexp), so ``lam^(mn)`` itself is never
    formed: where ``delta`` overflows (``n = m = 16``) it is an infinite
    ``det X`` of the right sign, not ``inf / inf``, and the refinement bisects
    on signs there.

    The count, ``_count``, does not admit its parameters: each is a gap end
    or a split point, and lies in a gap of ``_search_region``, whose every
    point is at least ``margin >= 2 om`` from the essential set
    (``om = operator_margin(model)``), where ``_admit`` refuses only within
    ``om``.  The gap ends are band ends or box ends outside every band, and a
    split point is strictly inside its piece; rounding moves a point by a few
    ulps of ``bound + 1``, far below ``om = 1e-9 (1 + bound)``.  The
    sub-scan and refinement points go through ``delta_batch``, which admits
    them; they lie in the same pieces, so it refuses none, but an overflowed
    determinant can make an ITP point NaN, and its numeric rule raises ``DomainError``.

    The evaluator calls are the cost: on a 2-vCPU x86 host with one BLAS
    thread a refinement step's own arithmetic takes about 3 us for one open
    bracket and 1.5 us for each further one, a one-lambda ``delta_batch`` on
    fixture a about 21 us, of which ``_admit`` is 5 us, and a one-lambda
    count on ramp-8 about 0.24 ms (``_count``).  The searches of the ten
    ``spectrum`` benchmark cases take 14.2 ms together, 1.8 ms of it their
    own arithmetic (refinement steps included) and the rest the evaluator
    calls; with the bookkeeping on numpy arrays they took 17.0 and 3.2 ms
    (``BENCH_bdda36b.json``).  On a model whose
    arrays are sampled, a ramp-8 search takes about 6 ms, and the sum rule
    ``a_k = 1 + k/4``, ``b_k = -0.97 - k/4`` about 80 ms at ``n = 8`` and 0.5
    s at ``n = 12``.  A fresh search makes 6 ``delta_batch`` calls (11
    parameters) on fixture a, 12 (167) on sumrule-4 and 8 (49) on ramp-8: 9.8
    parameters per root over the ``spectrum`` benchmark's cases
    (``BENCH_643cb46.json``).

    The search reads ``margin`` (through ``_search_region``) from the model's
    ``search`` settings and nothing else; another margin goes on a new model,
    as in ``replace(model, search=SearchSettings(margin=0.01))``.
    """
    return _per_model(model, "_discrete_spectrum", _search_roots)


def _search_roots(model):
    """The search of ``discrete_spectrum``, uncached.  The bookkeeping around the
    evaluator calls (the split loop, the gap-end test, the sub-scan's bracket pick
    and the exact zeros) runs per piece in Python floats, in the IEEE operations of
    the numpy form that ``tests/test_spectrum.py`` keeps as its reference, so every
    ``_count`` and ``delta_batch`` call, its parameters and their order, and every
    root are that form's, bit for bit; the sub-scan keeps its one ``np.linspace``."""
    _, gaps, _ = _search_region(model)
    size = model.n * model.m

    # det X = delta / lam^(mn), with lam = lm 2^le (frexp): delta times 2^(-mn le), exact, over
    # lm^(mn), so nothing overflows where delta does not (discrete_spectrum)
    def dvals(lams):
        lm, le = np.frexp(lams)
        return np.ldexp(delta_batch(model, lams).real, -size * le) / lm**size

    nu, vals = _count(model, gaps.ravel())
    # the open pieces (lo, hi, counts and values at both ends), in Python numbers
    ends, nu, vals = gaps.ravel().tolist(), nu.tolist(), vals.tolist()
    pieces = list(zip(ends[::2], ends[1::2], nu[::2], nu[1::2], vals[::2], vals[1::2]))
    multiple, simple = [], []
    while pieces:
        split = []
        for lo, hi, nlo, nhi, flo, fhi in pieces:
            count, mid = abs(nhi - nlo), lo + _SPLIT * (hi - lo)
            if count == 1:
                simple.append([lo, hi, flo, fhi])
            elif count > 1 and hi - lo > _ROOT_TOL and lo < mid < hi:
                split.append((lo, mid, hi, nlo, nhi, flo, fhi))
            elif count > 1:  # too narrow to split: one multiple eigenvalue
                multiple.append((0.5 * (lo + hi), count))
        nmid, fmid = (v.tolist() for v in _count(model, np.array([p[1] for p in split]))) if split else ((), ())
        pieces = [(lo, mid, nlo, nm, flo, fm) for (lo, mid, _, nlo, _, flo, _), nm, fm in zip(split, nmid, fmid)]
        pieces += [(mid, hi, nm, nhi, fm, fhi) for (_, mid, hi, _, nhi, _, fhi), nm, fm in zip(split, nmid, fmid)]

    # one eigenvalue per piece, which brackets it by its count values; a piece with an end at a
    # gap end is sub-scanned instead, and its first sign change is the bracket
    edge = [piece for piece in simple if piece[0] in ends or piece[1] in ends]
    ts = np.linspace([p[0] for p in edge], [p[1] for p in edge], _SUBSCAN_POINTS, axis=1)
    inner = dvals(ts[:, 1:-1].ravel()).reshape(len(edge), -1).tolist() if edge else []
    for piece, t, f in zip(edge, ts.tolist(), inner):
        f = [piece[2], *f, piece[3]]
        first = next((i for i in range(len(t) - 1) if _sign(f[i]) * _sign(f[i + 1]) <= 0.0), 0)
        piece[:] = t[first], t[first + 1], f[first], f[first + 1]
    # an exact zero is the root
    brackets = [(hi if fhi == 0.0 else lo, lo if flo == 0.0 else hi, flo, fhi) for lo, hi, flo, fhi in simple]
    refined = _refine_roots(dvals, *(list(zip(*brackets)) or [()] * 4), _ROOT_TOL)
    found = [(lam, 1) for lam in refined.tolist()] + multiple
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


def sigma_full(model):
    """Essential plus discrete spectrum with the search settings echoed back, ``root_tol``
    the fixed ``_ROOT_TOL`` (``discrete_spectrum`` says how to change the others).

    Margin neighborhoods of the essential set are not searched; they are
    reported as unresolved bands rather than as certified absence of
    eigenvalues.  Outside them the discrete list is complete, with
    multiplicities, as the slicing count certifies (see ``discrete_spectrum``
    for the search and its cost).  The essential set, the reduction plan and
    the roots are computed once per model and reused by every later call on it.
    """
    margin, _, unresolved = _search_region(model)
    settings = {**asdict(model.search), "margin": margin, "root_tol": _ROOT_TOL, "order": model.order}
    disc = discrete_spectrum(model)
    return SpectrumReport(sigma_ess(model), disc, model.bound, settings, unresolved)


def _multiplicity(model, lam):
    """Total multiplicity of the roots of ``discrete_spectrum(model)`` within
    ``om = operator_margin(model)`` of ``lam``, admitted by ``_admit``: the one eigenvalue
    decision of the solvers.  The search locates each root to ``_ROOT_TOL``, below ``om / 4``
    for every model, so a root lies within ``om / 8`` of its eigenvalue.  Where ``x = Re lam``
    lies within ``om`` of an unresolved band, which the roots do not cover, the slicing count at
    ``x -+ h`` decides, with ``h = min(om, (d - om)/2)`` and ``d`` the distance from ``x`` to the
    essential set, so both ends lie more than ``om`` from it and need no admission; it reads only
    ``nu``.  The eigenvalues are real, so there is none there if
    ``|Im lam| > om`` or ``h <= 0``."""
    ess = sigma_ess(model)
    _admit(ess, lam, model)
    margin, x = operator_margin(model), lam.real
    if any(lo - margin <= x <= hi + margin for lo, hi in _search_region(model)[2]):
        h = min(margin, (ess._distance(x) - margin) / 2)
        if abs(lam.imag) > margin or h <= 0:
            return 0
        below, above = _count(model, np.array([x - h, x + h]))[0]
        return abs(int(above - below))
    return sum(mult for root, mult in discrete_spectrum(model) if abs(lam - root) <= margin)


# --- eigenfunctions -----------------------------------------------------------


def eigenfunctions_T(model, lam0):
    """Orthonormal eigenfunctions of the sum at a discrete eigenvalue.

    The homogeneous equation reduces to ``c = KN^T c`` for the moments
    ``c_w = <B_w, f>``, the null space of ``_small_system`` at ``lam0``; the
    eigenfunction is rebuilt as ``f = (1/lam) sum_w c_w F_w`` by the plan's
    synthesis, for an orthonormal basis of that null space of dimension ``k``, the
    certified multiplicity (``_multiplicity``): exactly ``k`` functions.
    Raises ``DomainError`` for a complex ``lam0`` (``+0j`` too), ``SpectrumHit`` in/near
    the essential set, and ``NotAnEigenvalue`` for ``k = 0`` or a degenerate function.

    The basis comes from block inverse iteration at the known eigenvalue (Peters and
    Wilkinson, SIAM Rev. 21 (1979); Ipsen, SIAM Rev. 39 (1997)): two LU solves of the
    small system ``M`` from the fixed block ``cos(1 .. mn k)``, whose entries are all
    nonzero (kept on the model for each ``k``), then one QR (a norm for ``k = 1``), so
    the bytes are reproducible.  The solves multiply the block's parts along the
    eigenvectors of the ``k`` eigenvalues of ``M`` near 0 (within roundoff of it at an
    eigenvalue of T) by their inverse squares, and the rest far less.  So that an exactly
    singular ``M`` still factors (a model whose quadrature sums have one term, as fixture
    a at order 1 at 5, has the 1x1 zero), ``eps (1 + |M|_1)`` is added to its diagonal, as
    LAPACK's ``xLAEIN`` replaces a zero pivot.  On a 2-vCPU x86 host with one BLAS thread,
    a warm call on ramp-8 (``mn = 64``) takes about 0.15 ms, where a full SVD of ``M``
    took 0.5 ms.
    """
    lam0 = _numeric(lam0, "lam0", real=True)
    k = _multiplicity(model, lam0)
    if not k:
        raise NotAnEigenvalue(f"{lam0!r} is not within {operator_margin(model):.3e} of an eigenvalue")
    families, matrix = _small_system(model, lam0)
    size = matrix.shape[0]
    matrix.reshape(-1)[:: size + 1] += 2.0**-52 * (1.0 + np.abs(matrix).sum(axis=0).max())  # eps (1 + |M|_1)
    start = _per_model(model, f"_start{k}", lambda mod: np.cos(np.arange(1.0, size * k + 1)).reshape(size, k))
    block = np.linalg.solve(matrix, np.linalg.solve(matrix, start))
    # orthonormal columns, each divided by lam0: f = (1/lam) sum_w c_w F_w
    basis = np.linalg.qr(block)[0] / lam0 if k > 1 else block / (lam0 * math.sqrt(np.vdot(block, block)))

    out, plan = [], _reduction_plan(model)
    for coeff in basis.T:
        f = Grid2D(model.rule_x, model.rule_y, plan.synthesize(families, coeff))
        for g in out:  # grid Gram-Schmidt against what we already kept
            f = f - g.inner(f) * g
        norm = f.norm()
        if norm <= 1e-12:
            raise NotAnEigenvalue(f"reconstruction at {lam0!r} is degenerate")
        vals = f.values / norm
        # fix the free sign: largest-magnitude sample points up
        if vals.flat[np.argmax(np.abs(vals))].real < 0:
            vals = -vals
        out.append(Grid2D(model.rule_x, model.rule_y, vals))
    return out


def atom_eigenfunction(model, channel, j0, lam0):
    """Indicator-type eigenfunction for a weight that sits within ``operator_margin(model)`` of
    ``lam0`` on a set of positive measure; a complex or non-finite ``lam0`` raises ``DomainError``."""
    view = _oriented(model, channel)
    view._require_valid()
    lam0 = _numeric(lam0, "lam0", real=True)
    row = _member(view, j0)
    tol = operator_margin(view)
    pieces = _stored(view._samples1[1][row].pieces)
    level = [(lo, hi) for lo, hi, value, _, _ in pieces if value is not None and abs(value - lam0) <= tol]
    if not level:
        raise NoAtom(f"weight {row + 1} of channel {1 if view is model else 2} has no level set at {lam0!r}")
    measure = sum(hi - lo for lo, hi in level)
    ys = view.rule_y.nodes
    fy = np.any([(ys >= lo) & (ys <= hi) for lo, hi in level], axis=0) / np.sqrt(measure)
    grid = Grid2D(view.rule_x, view.rule_y, np.outer(view.phi_x[row], fy))
    return grid if view is model else grid.transposed()


# --- determinant trace --------------------------------------------------------


def delta_trace_rows(model, lmin, lmax, samples):
    """Rows (lambda, Re delta, Im delta) at ``samples`` equally spaced points
    from ``lmin`` to ``lmax``; NaN within the operator margin.  Path 2 is the trace
    of ``model.mirrored()``.  Ends that are not real numbers by ``_numeric``, ``lmin >= lmax``
    or a ``samples`` that is not a whole number >= 2 by ``_whole`` raise ``DomainError``."""
    lmin, lmax = _numeric(lmin, "lmin", real=True), _numeric(lmax, "lmax", real=True)
    samples = _whole(samples, "samples", lo=2, error=DomainError)
    if not lmin < lmax:
        raise DomainError(f"need lmin < lmax, got {lmin!r} and {lmax!r}")
    lams = np.linspace(lmin, lmax, samples)
    vals = np.full(lams.shape, complex(np.nan, np.nan))
    ok = sigma_ess(model).distances(lams) > operator_margin(model)
    vals[ok] = delta_batch(model, lams[ok])
    return [(float(lam), float(v.real), float(v.imag)) for lam, v in zip(lams, vals)]
