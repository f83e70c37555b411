"""Solve the second-kind equation f - tau * T f = g.

The equation is equivalent to (identity - tau T) f = g, and the same
three-factor split used for the resolvent turns it into two explicit
channel corrections followed by one small linear solve:

    u  = g + tau * S1(tau) g
    u' = u + tau * S2(tau) u
    (I - KN^T) c = d,   d_w = <B_w, u'>
    f  = u' + tau * sum_w c_w F_w(., .; 1/tau)

with ``KN = tau * Pi(1/tau)``: it, the moments ``d`` and the sum over ``F_w`` are
products on the Gram factors of the reduction plan (``spectrum``), which needs
orthonormal bases: a model that fails validation has no sampled arrays and
raises ``InvalidModel``, whatever ``tau`` is.

The small system is singular exactly when 1/tau is a discrete eigenvalue:
writing mu_i for the eigenvalues of Pi(lam) at lam = 1/tau,

    det(I - KN^T) = prod_i (1 - mu_i / lam)
                  = (-1/lam)^{m n} det(Pi(lam) - lam I),

so its zero set matches the determinant used by the spectral search.  The
parameter classification below names the failure modes; the solver refuses
them instead of returning one arbitrary member of the solution family.
CHANNEL_SINGULAR is the admission rule of ``spectrum._admit``, which the root
search obeys too (1/tau within ``operator_margin(model)`` of the essential
set), and EIGEN is the one eigenvalue decision, ``spectrum._multiplicity``.  Just
outside its window the small system is regular but ill-conditioned; it is solved,
and ``residual`` shows how well.
"""

from __future__ import annotations

import enum

from .errors import NonUniqueSolution, OutsideTheory, SpectrumHit
from .operators import _check_grid, _second_kind, apply_T
from .spectrum import _multiplicity, _plain, _reciprocal, _require_finite, _small_system

__all__ = ["TauClass", "classify_tau", "solve_pie", "residual"]


class TauClass(enum.Enum):
    """Where a parameter sits relative to the solvable range."""

    ZERO = "zero"
    CHANNEL_SINGULAR = "channel-singular"
    EIGEN = "eigen"
    REGULAR = "regular"


def _classify(model, tau):
    """``(class, spectrum._small_system at 1/tau)``; the system is None unless
    the class is REGULAR.  A model that fails validation is refused first,
    whatever ``tau`` is."""
    model._require_valid()
    _require_finite(tau, "tau")
    if tau == 0:
        return TauClass.ZERO, None
    lam = _reciprocal(tau)
    try:
        if _multiplicity(model, lam):
            return TauClass.EIGEN, None
    except SpectrumHit:
        return TauClass.CHANNEL_SINGULAR, None
    return TauClass.REGULAR, _small_system(model, lam)


def classify_tau(model, tau):
    """Classify the parameter of the second-kind equation.

    ZERO: tau = 0, the reduction (which works at lam = 1/tau) does not
    apply.  CHANNEL_SINGULAR: 1/tau is in or within the operator margin of
    the essential set, so a channel factor is not invertible.  EIGEN: 1/tau is
    within that margin of a certified discrete eigenvalue (``spectrum._multiplicity``).
    REGULAR: everything invertible.  A tau that is not finite, or nonzero with a
    reciprocal that overflows (``1e-310``), raises ``DomainError``.
    """
    return _classify(model, tau)[0]


def solve_pie(model, tau, g):
    """Unique solution of f - tau * T f = g for a REGULAR parameter.

    EIGEN parameters raise NonUniqueSolution (solutions exist only up to
    the eigenspace); ZERO and CHANNEL_SINGULAR raise OutsideTheory.  Path 2
    is ``solve_pie(model.mirrored(), tau, g.transposed()).transposed()``: the
    mirror applies the channel corrections in the opposite order, and both
    paths must agree.
    """
    _check_grid(model, g)
    kind, system = _classify(model, tau)
    if kind is TauClass.EIGEN:
        raise NonUniqueSolution(f"1/tau = {_plain(1.0 / tau)} is a discrete eigenvalue")
    if kind is not TauClass.REGULAR:
        raise OutsideTheory(f"parameter {_plain(tau)} is {kind.value}")
    return g.with_values(_second_kind(model, tau, g, *system))


def residual(model, tau, f, g):
    """Norm of f - tau * T f - g, the direct check of a claimed solution."""
    _require_finite(tau, "tau")
    _check_grid(model, f)
    _check_grid(model, g)
    return (f - tau * apply_T(model, f) - g).norm()
