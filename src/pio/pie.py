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

so its zero set matches the determinant used by the spectral search.  ``classify_tau``
names the failure modes without building that system; ``solve_pie`` refuses them
instead of returning one arbitrary member of the solution family.
CHANNEL_SINGULAR is the admission rule of ``spectrum._admit``, which the root
search obeys too (1/tau within ``operator_margin(model)`` of the essential
set), and EIGEN is the one eigenvalue decision, ``spectrum._multiplicity``.  Just
outside its window the small system is regular but ill-conditioned; it is solved,
and ``residual`` shows how well.  Each function converts ``tau`` once, by the numeric
rule of ``errors`` (``_numeric``), and passes the Python number on: ``solve_pie``
to ``classify_tau`` and, through ``operators._second_kind``, to ``apply_S``.
"""

from __future__ import annotations

import enum

from .errors import NonUniqueSolution, OutsideTheory, SpectrumHit, _numeric
from .operators import _check_grid, _second_kind, apply_T
from .spectrum import _multiplicity, _reciprocal

__all__ = ["TauClass", "classify_tau", "solve_pie", "residual"]


class TauClass(enum.Enum):
    """Where a parameter sits relative to the solvable range."""

    ZERO = "zero"
    CHANNEL_SINGULAR = "channel-singular"
    EIGEN = "eigen"
    REGULAR = "regular"


def classify_tau(model, tau):
    """Classify the parameter of the second-kind equation.

    ZERO: tau = 0, the reduction (which works at lam = 1/tau) does not
    apply.  CHANNEL_SINGULAR: 1/tau is in or within the operator margin of
    the essential set, so a channel factor is not invertible.  EIGEN: 1/tau is
    within that margin of a certified discrete eigenvalue (``spectrum._multiplicity``).
    REGULAR: everything invertible; no small system is built.  A tau that is not one finite
    number, or nonzero with a reciprocal that overflows (``1e-310``), raises ``DomainError``.
    """
    model._require_valid()
    tau = _numeric(tau, "tau")
    if tau == 0:
        return TauClass.ZERO
    try:
        if _multiplicity(model, _reciprocal(tau)):
            return TauClass.EIGEN
    except SpectrumHit:
        return TauClass.CHANNEL_SINGULAR
    return TauClass.REGULAR


def solve_pie(model, tau, g):
    """Unique solution of f - tau * T f = g for a REGULAR parameter.

    EIGEN parameters raise NonUniqueSolution (solutions exist only up to
    the eigenspace); ZERO and CHANNEL_SINGULAR raise OutsideTheory: the class of
    ``classify_tau``.  ``operators._second_kind`` builds the small system where it
    solves it.  Path 2 is ``solve_pie(model.mirrored(), tau, g.transposed()).transposed()``:
    the mirror applies the channel corrections in the opposite order, and both paths agree.
    """
    _check_grid(model, g)
    tau = _numeric(tau, "tau")
    kind = classify_tau(model, tau)
    if kind is TauClass.EIGEN:
        raise NonUniqueSolution(f"1/tau = {1.0 / tau!r} is a discrete eigenvalue")
    if kind is not TauClass.REGULAR:
        raise OutsideTheory(f"parameter {tau!r} is {kind.value}")
    return g.with_values(_second_kind(model, 1.0 / tau, tau, g))


def residual(model, tau, f, g):
    """Norm of f - tau * T f - g, the direct check of a claimed solution."""
    tau = _numeric(tau, "tau")
    _check_grid(model, f)
    _check_grid(model, g)
    return (f - tau * apply_T(model, f) - g).norm()
