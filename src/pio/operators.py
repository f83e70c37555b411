"""Apply the operator, its channel resolvents, and the full resolvent.

Everything here acts on `Grid2D` samples taken on the model's own
quadrature rules.  Channel 1 acts on the first variable only (a projection
onto its basis, reweighted along the second variable); channel 2 is channel
1 of the mirrored model, applied to the transposed grid.  Because each
channel has finite rank in its own variable, all resolvents are explicit
rank corrections and no dense linear algebra on the grid is ever needed; the
only solve is the small reduction system, whose matrix ``I - KN^T``, moments
and synthesis are products on the Gram factors of the reduction plan.
Projections are ``(phi * wx) @ f`` and back.  All of them read the sampled
arrays, so a model that fails validation is refused on either channel.

Every entry point admits its parameter by the one rule of
``spectrum._admit``: ``lam`` within ``operator_margin(model)`` of the
essential or channel spectrum, or ``1/tau`` that near the channel's weight
set (``spectrum._weight_ranges``), raises ``SpectrumHit``, and so does every
parameter at which the root search evaluates the determinant (``delta_batch``).
The search's slicing count (``spectrum._count``) does not admit: its parameters
lie at least twice that margin from the essential set.  A ``tau`` that is not
finite, or nonzero with an overflowing ``1/tau``, raises ``DomainError``.  The
eigenvalue refusal is the one eigenvalue decision, ``spectrum._multiplicity``;
no function takes a per-call margin or tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenvalueHit, GridMismatch
from .model import _member, _on_side
from .spectrum import _admit, _multiplicity, _plain, _reciprocal, _reduction_plan
from .spectrum import _require_finite, _small_system, _weight_ranges, sigma_channel

__all__ = [
    "apply_partial",
    "apply_T",
    "project",
    "resolvent_channel",
    "apply_S",
    "apply_W",
    "resolvent_T",
]


def _check_grid(model, f):
    if not (
        f.rule_x.same_rule(model.rule_x) and f.rule_y.same_rule(model.rule_y)
    ):
        raise GridMismatch("grid was not sampled on this model's quadrature rules")


# Each channel operation below is written for channel 1 and run through
# ``_on_side``, which hands channel 2 to channel 1 of the mirrored model.


def _coefficients(model, f):
    """Channel-1 basis coefficients of f, shape (n, Ny): coefficient k as a
    function of the second variable."""
    return (model.phi_x * model.rule_x.weights) @ f.values


def _apply_weighted(model, f, factors):
    """sum_k factors[k](y) * (projection onto channel-1 member k)."""
    return f.with_values(model.phi_x.T @ (factors * _coefficients(model, f)))


def _project(model, f, k):
    _check_grid(model, f)
    basis = model.phi_x  # the validation gate before the index check
    row = _member(model, k)
    return f.with_values(np.multiply.outer(basis[row], _coefficients(model, f)[row]))


def project(model, channel, k, f):
    """Rank-one projection onto the k-th basis member of a channel (1-based)."""
    return _on_side(_project, model, channel, f, k)


def _apply_partial(model, f):
    _check_grid(model, f)
    return _apply_weighted(model, f, model.h_y)


def apply_partial(model, channel, f):
    """Apply one channel of the operator."""
    return _on_side(_apply_partial, model, channel, f)


def apply_T(model, f):
    """Apply the full operator, the sum of both channels."""
    return apply_partial(model, 1, f) + apply_partial(model, 2, f)


def _resolvent_channel(model, g, lam):
    _check_grid(model, g)
    _admit(sigma_channel(model, 1), lam, model, where="the channel spectrum")
    weights = model.h_y
    correction = _apply_weighted(model, g, weights / (weights - lam))
    return (-1.0 / lam) * (g - correction)


def resolvent_channel(model, channel, lam, g):
    """Inverse of (channel operator - lam) applied to g.

    Uses the closed form -(1/lam) * (g - sum_k w_k/(w_k - lam) * proj_k g);
    refuses lam within the operator margin of that channel's spectrum.
    """
    return _on_side(_resolvent_channel, model, channel, g, lam)


def _apply_S(model, g, tau):
    _check_grid(model, g)
    _require_finite(tau, "tau")
    if tau != 0:
        _admit(_weight_ranges(model), _reciprocal(tau), model, name="1/tau", where="the weight ranges")
    weights = model.h_y
    return _apply_weighted(model, g, weights / (1.0 - tau * weights))


def apply_S(model, channel, tau, g):
    """Resolvent correction kernel of one channel:
    S(tau) g = sum_k w_k/(1 - tau w_k) proj_k g, so that the inverse of
    (identity - tau * channel) is identity + tau * S(tau).

    Refuses tau with 1/tau within the operator margin of the weight ranges,
    and a nonzero tau whose reciprocal overflows (``DomainError``).
    """
    return _on_side(_apply_S, model, channel, g, tau)


def apply_W(model, tau, f):
    """The closed composition used by the spectral reduction:
    W(tau) = (identity - tau * channel2)^{-1} S1(tau) channel2."""
    t2 = apply_partial(model, 2, f)
    s = apply_S(model, 1, tau, t2)
    return s + tau * apply_S(model, 2, tau, s)


def resolvent_T(model, lam, g):
    """Inverse of (T - lam) applied to g via the three-factor split.

    With tau = 1/lam,

        identity - tau T = (identity - tau T1)(identity - tau T2)
                           (identity - tau^2 W(tau)),

    so the resolvent is the product of the channel corrections and one
    finite correction: the last factor is solved through the reduction
    matrix.  Substituting f = u + tau * sum_w c_w F_w into
    (identity - tau^2 W) f = u and pairing with the B factors gives

        (I - tau * Pi(lam)^T) c = (I - KN^T) c = d,   d_w = <B_w, u>,

    the transpose entering because Pi[i, l] pairs F_i with B_l while the
    moments c pair with B.  Where lam is within the operator margin of a
    certified discrete eigenvalue (``spectrum._multiplicity``), that matrix is
    singular or nearly so and the solve is refused with ``EigenvalueHit``.
    """
    _check_grid(model, g)
    if _multiplicity(model, lam):
        raise EigenvalueHit(f"lambda {_plain(lam)} is a discrete eigenvalue")
    tau = 1.0 / lam
    return g.with_values(_second_kind(model, tau, g, *_small_system(model, lam)) * -tau)


def _second_kind(model, tau, g, families, matrix):
    """The values of the solution f of f - tau T f = g on the grid of ``g``, which the
    caller has checked, for a regular tau, given ``_small_system(model, 1/tau)``.

    Two channel corrections, then the small system for the moments of the
    finite correction; the steps are spelled out in the ``pie`` docstring.  The
    corrections go through ``apply_S``, which checks the grid; the sums around
    them act on value arrays, each product as values times scalar, as ``Grid2D``
    multiplies (with fused multiply-add, a complex product can round otherwise in
    the other order).  On a 2-vCPU x86 host with one BLAS thread, a warm
    ``solve_pie`` on fixture a takes about 0.15 ms, 45 us of it in the corrections.
    """
    u = g.values + apply_S(model, 1, tau, g).values * tau
    u = u + apply_S(model, 2, tau, g.with_values(u)).values * tau
    plan = _reduction_plan(model)
    c = np.linalg.solve(matrix, plan.moments(u))
    return u + tau * plan.synthesize(families, c)
