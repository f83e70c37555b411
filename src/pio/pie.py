"""Solve the second-kind equation f - tau * T f = g.

The equation is equivalent to (identity - tau T) f = g, and the same
three-factor split used for the resolvent turns it into two explicit
channel corrections followed by one small linear solve:

    u  = g + tau * S1(tau) g
    u' = u + tau * S2(tau) u
    (I - tau * Pi(1/tau)^T) c = d,   d_w = <B_w, u'>
    f  = u' + tau * sum_w c_w F_w(., .; 1/tau)

The moments ``d`` and the sum over ``F_w`` are matrix products on the
one-variable factors held by the reduction plan (``spectrum``); neither
``F_w`` nor ``B_w`` is sampled on the grid.

The small system is singular exactly when 1/tau is a discrete eigenvalue:
writing mu_i for the eigenvalues of Pi(lam) at lam = 1/tau,

    det(I - tau * Pi^T) = prod_i (1 - mu_i / lam)
                        = (-1/lam)^{m n} det(Pi(lam) - lam I),

so its zero set matches the determinant used by the spectral search.  The
parameter classification below names the failure modes; the solver refuses
them instead of returning one arbitrary member of the solution family.
CHANNEL_SINGULAR is the admission rule of ``spectrum._admit`` (1/tau within
``operator_margin(model)`` of the essential set), and EIGEN counts null
directions with the model's ``search.rank_tol``.
"""

from __future__ import annotations

import enum

from .errors import NonUniqueSolution, OutsideTheory, SpectrumHit
from .model import _on_side
from .operators import _check_grid, _second_kind, apply_T
from .spectrum import _admit, _ReducedSystem, sigma_ess

__all__ = ["TauClass", "classify_tau", "solve_pie", "residual"]


class TauClass(enum.Enum):
    """Where a parameter sits relative to the solvable range."""

    ZERO = "zero"
    CHANNEL_SINGULAR = "channel-singular"
    EIGEN = "eigen"
    REGULAR = "regular"


def _classify(model, tau):
    """``(class, reduced system at 1/tau)``; the system is None when the
    reduction does not apply."""
    if tau == 0:
        return TauClass.ZERO, None
    lam = 1.0 / tau
    try:
        _admit(sigma_ess(model), lam, model)
    except SpectrumHit:
        return TauClass.CHANNEL_SINGULAR, None
    system = _ReducedSystem(model, lam, tau)
    kind = TauClass.EIGEN if system.nullity(model.search.rank_tol) else TauClass.REGULAR
    return kind, system


def classify_tau(model, tau):
    """Classify the parameter of the second-kind equation.

    ZERO: tau = 0, the reduction (which works at lam = 1/tau) does not
    apply.  CHANNEL_SINGULAR: 1/tau is in or within the operator margin of
    the essential set, so a channel factor is not invertible.  EIGEN: the
    reduced system is singular under the model's ``search.rank_tol``, 1/tau
    is a discrete eigenvalue.  REGULAR: everything invertible.
    """
    return _classify(model, tau)[0]


def _solve_pie(model, g, tau):
    _check_grid(model, g)
    kind, system = _classify(model, tau)
    if kind is TauClass.EIGEN:
        raise NonUniqueSolution(f"1/tau = {1.0 / tau!r} is a discrete eigenvalue")
    if kind is not TauClass.REGULAR:
        raise OutsideTheory(f"parameter {tau!r} is {kind.value}")
    return _second_kind(model, system, g)


def solve_pie(model, tau, g, path=1):
    """Unique solution of f - tau * T f = g for a REGULAR parameter.

    EIGEN parameters raise NonUniqueSolution (solutions exist only up to
    the eigenspace); ZERO and CHANNEL_SINGULAR raise OutsideTheory.  Path 2
    solves on the mirrored model, which applies the channel corrections in
    the opposite order; both paths must agree, and exposing the choice
    makes that easy to test.
    """
    return _on_side(_solve_pie, model, path, g, tau)


def residual(model, tau, f, g):
    """Norm of f - tau * T f - g, the direct check of a claimed solution."""
    _check_grid(model, f)
    _check_grid(model, g)
    return (f - tau * apply_T(model, f) - g).norm()
