"""Model of a two-channel partial integral operator on a rectangle.

A model consists of two channels acting on L2 of ``[a, b] x [c, d]``:

* channel 1 integrates over the first variable and has kernel
  ``sum_k phi_k(x) phi_k(s) h_k(y)`` with an orthonormal family ``phi_k``
  on ``[a, b]`` and bounded real weights ``h_k`` on ``[c, d]``;
* channel 2 integrates over the second variable and has kernel
  ``sum_j p_j(x) psi_j(y) psi_j(t)`` with an orthonormal family ``psi_j``
  on ``[c, d]`` and bounded real weights ``p_j`` on ``[a, b]``.

Orthonormality is validated, never enforced.  Basis and weight entries are
expression strings; the shorthands ``legendre(k)`` and ``trig(k)`` expand to
explicit orthonormal polynomials / trigonometric functions on the interval
the entry lives on.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelFormatError, PioError
from .expr import Expression, parse_expr
from .quadrature import Grid2D, build_rule

__all__ = [
    "Channel",
    "PIOModel",
    "SearchSettings",
    "CheckResult",
    "ValidationReport",
    "make_model",
    "model_from_dict",
    "load_model_file",
    "validate_model",
    "eval_kernel",
    "norm_bound",
    "legendre_source",
    "trig_source",
]

DEFAULT_ORDER = 32
DEFAULT_ORTHO_TOL = 1e-8
_DENSE_SAMPLES = 1024


@dataclass(frozen=True)
class SearchSettings:
    """Root search policy, checked on construction (model files and call
    overrides alike); ``margin=None`` means ``1e-3 * (1 + norm bound)``."""

    margin: float | None = None
    scan_points: int = 512
    root_tol: float = 1e-10
    rank_tol: float = 1e-8

    def __post_init__(self):
        for label in ("margin", "root_tol", "rank_tol"):
            value = getattr(self, label)
            if value is not None and not value > 0:
                raise ModelFormatError(f"search.{label} must be positive")
        if self.scan_points < 2:
            raise ModelFormatError("search.scan_points must be >= 2")

    def resolved_margin(self, bound):
        if self.margin is not None:
            return self.margin
        return 1e-3 * (1.0 + bound)


@dataclass(frozen=True)
class Channel:
    """Orthonormal family together with one weight per member."""

    basis: tuple
    weights: tuple

    def __post_init__(self):
        if not self.basis or len(self.basis) != len(self.weights):
            raise ModelFormatError(
                "channel needs equally many basis functions and weights (at least one)"
            )

    def __len__(self):
        return len(self.basis)


@dataclass(frozen=True, eq=False)
class PIOModel:
    """Immutable model; quadrature rules and samples are derived lazily."""

    x_interval: tuple
    y_interval: tuple
    channel1: Channel
    channel2: Channel
    order: int = DEFAULT_ORDER
    extra_breakpoints_x: tuple = ()
    extra_breakpoints_y: tuple = ()
    search: SearchSettings = SearchSettings()

    @property
    def n(self):
        """Channel-1 rank."""
        return len(self.channel1)

    @property
    def m(self):
        """Channel-2 rank."""
        return len(self.channel2)

    @cached_property
    def rule_x(self):
        bps = _interior(
            [*_breaks(self.channel1.basis), *_breaks(self.channel2.weights),
             *self.extra_breakpoints_x],
            self.x_interval,
        )
        return build_rule(self.x_interval, self.order, bps)

    @cached_property
    def rule_y(self):
        bps = _interior(
            [*_breaks(self.channel1.weights), *_breaks(self.channel2.basis),
             *self.extra_breakpoints_y],
            self.y_interval,
        )
        return build_rule(self.y_interval, self.order, bps)

    @cached_property
    def phi_x(self):
        """Channel-1 basis sampled on the x rule, shape (n, Nx)."""
        return np.vstack([f(self.rule_x.nodes) for f in self.channel1.basis])

    @cached_property
    def h_y(self):
        """Channel-1 weights sampled on the y rule, shape (n, Ny)."""
        return np.vstack([w(self.rule_y.nodes) for w in self.channel1.weights])

    @cached_property
    def psi_y(self):
        """Channel-2 basis sampled on the y rule, shape (m, Ny)."""
        return np.vstack([f(self.rule_y.nodes) for f in self.channel2.basis])

    @cached_property
    def p_x(self):
        """Channel-2 weights sampled on the x rule, shape (m, Nx)."""
        return np.vstack([w(self.rule_x.nodes) for w in self.channel2.weights])

    @cached_property
    def bound(self):
        return norm_bound(self)

    def grid(self, f):
        """Sample a callable of (x, y) arrays on the model's tensor grid."""
        return Grid2D.from_function(self.rule_x, self.rule_y, f)

    def constant_grid(self, value=1.0):
        return self.grid(lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape), float(value)))

    def mirrored(self):
        """The model under the swap ``(x, y) -> (y, x)``.

        The swap exchanges the intervals, the channels and the extra
        breakpoints.  It is unitary on L2 of the rectangle and carries this
        operator onto the mirror's, so both have the same spectrum; channel 2
        and path 2 of this model are channel 1 and path 1 of its mirror.  The
        mirror shares this model's rules, sampled arrays and norm bound (and,
        through the spectrum module, its essential set) instead of computing
        them again.  It is made once and kept on the model; its own mirror is
        this model.
        """
        memo = self.__dict__
        if "_mirror" not in memo:
            twin = PIOModel(
                self.y_interval, self.x_interval, self.channel2, self.channel1, self.order,
                self.extra_breakpoints_y, self.extra_breakpoints_x, self.search,
            )
            for mine, theirs in _MIRRORED_ATTRS.items():
                twin.__dict__[mine] = getattr(self, theirs)
            twin.__dict__["_mirror"] = self
            memo["_mirror"] = twin
        return memo["_mirror"]


# each derived attribute of the mirror and the attribute of the model it equals
_MIRRORED_ATTRS = {
    "rule_x": "rule_y", "rule_y": "rule_x", "phi_x": "psi_y", "h_y": "p_x",
    "psi_y": "phi_x", "p_x": "h_y", "bound": "bound",
}


def _oriented(model, which):
    """The model for channel or path 1, its mirror for channel or path 2."""
    if which == 1:
        return model
    if which == 2:
        return model.mirrored()
    raise PioError(f"channel or path must be 1 or 2, got {which!r}")


def _on_side(act, model, which, f, *args):
    """``act(view, f, *args)`` with ``view = _oriented(model, which)``.

    On the mirror the grid function is transposed into the mirror's axis
    order and the grid result is transposed back.
    """
    view = _oriented(model, which)
    if view is model:
        return act(view, f, *args)
    return act(view, f.transposed(), *args).transposed()


def _breaks(exprs):
    out = []
    for e in exprs:
        out.extend(e.breakpoints)
    return out


def _interior(points, interval):
    lo, hi = interval
    return sorted({float(p) for p in points if lo < p < hi})


# --- shorthand generators -----------------------------------------------------


def legendre_source(k, interval):
    """Expression text of the degree-``k`` orthonormal polynomial on the interval."""
    lo, hi = (float(v) for v in interval)
    coeff = np.zeros(k + 1)
    coeff[k] = 1.0
    mono = np.polynomial.legendre.leg2poly(coeff)
    shift = np.polynomial.Polynomial([-(lo + hi) / (hi - lo), 2.0 / (hi - lo)])
    composed = np.polynomial.Polynomial(mono)(shift)
    scale = np.sqrt((2.0 * k + 1.0) / (hi - lo))
    terms = []
    for power, c in enumerate(np.atleast_1d(composed.coef) * scale):
        if c == 0.0:
            continue
        if power == 0:
            terms.append(repr(float(c)))
        elif power == 1:
            terms.append(f"{float(c)!r}*t")
        else:
            terms.append(f"{float(c)!r}*t^{power}")
    return " + ".join(terms) if terms else "0"


def trig_source(k, interval):
    """Expression text of the k-th orthonormal trigonometric function."""
    lo, hi = (float(v) for v in interval)
    length = hi - lo
    if k == 0:
        return repr(float(1.0 / np.sqrt(length)))
    amp = repr(float(np.sqrt(2.0 / length)))
    freq = repr(float(2.0 * np.pi * ((k + 1) // 2) / length))
    fn = "sin" if k % 2 == 1 else "cos"
    return f"{amp}*{fn}({freq}*(t - {lo!r}))"


_SHORTHAND_RE = re.compile(r"^\s*(legendre|trig)\s*\(\s*(\d+)\s*\)\s*$")


def _expand_source(text, interval):
    m = _SHORTHAND_RE.match(text)
    if m is None:
        return text
    kind, k = m.group(1), int(m.group(2))
    return legendre_source(k, interval) if kind == "legendre" else trig_source(k, interval)


def _parse_sources(sources, interval, where):
    out = []
    for src in sources:
        try:
            out.append(parse_expr(_expand_source(src, interval)))
        except PioError as err:
            raise ModelFormatError(f"{where}: cannot parse {src!r}: {err}") from err
    return tuple(out)


# --- construction ---------------------------------------------------------


def make_model(
    x_interval,
    y_interval,
    basis1,
    weights1,
    basis2,
    weights2,
    order=DEFAULT_ORDER,
    extra_breakpoints_x=(),
    extra_breakpoints_y=(),
    search=SearchSettings(),
):
    """Build a model from expression strings (shorthands allowed)."""
    xi = (float(x_interval[0]), float(x_interval[1]))
    yi = (float(y_interval[0]), float(y_interval[1]))
    channel1 = Channel(
        _parse_sources(basis1, xi, "channel1.basis"),
        _parse_sources(weights1, yi, "channel1.weights"),
    )
    channel2 = Channel(
        _parse_sources(basis2, yi, "channel2.basis"),
        _parse_sources(weights2, xi, "channel2.weights"),
    )
    model = PIOModel(
        xi,
        yi,
        channel1,
        channel2,
        int(order),
        tuple(float(b) for b in extra_breakpoints_x),
        tuple(float(b) for b in extra_breakpoints_y),
        search,
    )
    model.rule_x, model.rule_y  # noqa: B018 - fail fast on bad intervals/breakpoints
    return model


def _want(mapping, key, types, where, required=True, default=None):
    if key not in mapping:
        if required:
            raise ModelFormatError(f"{where}: missing key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ModelFormatError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def _number_pair(value, where):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ModelFormatError(f"{where}: expected [lo, hi] numbers")
    return float(value[0]), float(value[1])


def _string_list(value, where):
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) for v in value)
    ):
        raise ModelFormatError(f"{where}: expected a non-empty list of strings")
    return list(value)


def _number_list(value, where):
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ModelFormatError(f"{where}: expected a list of numbers")
    return [float(v) for v in value]


def _no_extras(mapping, allowed, where):
    extra = set(mapping) - set(allowed)
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {sorted(extra)}")


def model_from_dict(data):
    """Parse the documented JSON layout into a model."""
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    _no_extras(data, ("domain", "channel1", "channel2", "quadrature", "search"), "model")

    domain = _want(data, "domain", dict, "model")
    _no_extras(domain, ("x", "y"), "domain")
    xi = _number_pair(_want(domain, "x", list, "domain"), "domain.x")
    yi = _number_pair(_want(domain, "y", list, "domain"), "domain.y")

    channels = {}
    for name in ("channel1", "channel2"):
        ch = _want(data, name, dict, "model")
        _no_extras(ch, ("basis", "weights"), name)
        basis = _string_list(_want(ch, "basis", list, name), f"{name}.basis")
        weights = _string_list(_want(ch, "weights", list, name), f"{name}.weights")
        if len(basis) != len(weights):
            raise ModelFormatError(f"{name}: basis and weights lengths differ")
        channels[name] = (basis, weights)

    quad = _want(data, "quadrature", dict, "model", required=False, default={})
    _no_extras(quad, ("order", "extra_breakpoints_x", "extra_breakpoints_y"), "quadrature")
    order = _want(quad, "order", int, "quadrature", required=False, default=DEFAULT_ORDER)
    if order < 1:
        raise ModelFormatError("quadrature.order must be >= 1")
    extra_x = _number_list(
        _want(quad, "extra_breakpoints_x", list, "quadrature", required=False, default=[]),
        "quadrature.extra_breakpoints_x",
    )
    extra_y = _number_list(
        _want(quad, "extra_breakpoints_y", list, "quadrature", required=False, default=[]),
        "quadrature.extra_breakpoints_y",
    )

    sdata = _want(data, "search", dict, "model", required=False, default={})
    _no_extras(sdata, ("margin", "scan_points", "root_tol", "rank_tol"), "search")
    given = {}  # the defaults are SearchSettings' own
    for key in sdata:
        if key == "scan_points":
            given[key] = _want(sdata, key, int, "search")
        else:
            given[key] = float(_want(sdata, key, (int, float), "search"))
    search = SearchSettings(**given)

    try:
        return make_model(
            xi, yi, *channels["channel1"], *channels["channel2"],
            order=order, extra_breakpoints_x=extra_x, extra_breakpoints_y=extra_y,
            search=search,
        )
    except ModelFormatError:
        raise
    except PioError as err:
        raise ModelFormatError(str(err)) from err


def load_model_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ModelFormatError(f"cannot read model file: {err}") from err
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"model file is not valid JSON: {err}") from err
    return model_from_dict(data)


# --- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: tuple

    def as_dict(self):
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "deviation": c.deviation,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _dense_points(interval):
    lo, hi = interval
    return np.linspace(lo, hi, _DENSE_SAMPLES)


def _try_eval(exprs, points):
    """(values or None, error text) per expression."""
    out = []
    for e in exprs:
        try:
            out.append((e(points), ""))
        except PioError as err:
            out.append((None, str(err)))
    return out


def validate_model(model, ortho_tol=DEFAULT_ORTHO_TOL):
    """Check orthonormality of both bases and evaluability/boundedness of all pieces."""
    checks = []

    slots = (
        ("channel1.basis", model.channel1.basis, model.rule_x, model.x_interval),
        ("channel1.weights", model.channel1.weights, model.rule_y, model.y_interval),
        ("channel2.basis", model.channel2.basis, model.rule_y, model.y_interval),
        ("channel2.weights", model.channel2.weights, model.rule_x, model.x_interval),
    )
    evaluated = {}
    for name, exprs, rule, interval in slots:
        points = np.concatenate([rule.nodes, _dense_points(interval)])
        results = _try_eval(exprs, points)
        evaluated[name] = results
        bad = [f"#{i + 1}: {msg}" for i, (vals, msg) in enumerate(results) if vals is None]
        sup = max(
            (float(np.abs(vals).max()) for vals, _ in results if vals is not None),
            default=0.0,
        )
        checks.append(
            CheckResult(
                f"{name} evaluable",
                not bad,
                None,
                "; ".join(bad) if bad else f"finite on nodes and dense sample, sup {sup:.6g}",
            )
        )

    for name, rule in (("channel1.basis", model.rule_x), ("channel2.basis", model.rule_y)):
        results = evaluated[name]
        if any(vals is None for vals, _ in results):
            checks.append(
                CheckResult(f"{name} orthonormal", False, None, "skipped: basis not evaluable")
            )
            continue
        samples = np.vstack([vals[: len(rule)] for vals, _ in results])
        gram = (samples * rule.weights) @ samples.T
        dev = float(np.abs(gram - np.eye(len(results))).max())
        checks.append(
            CheckResult(
                f"{name} orthonormal",
                dev <= ortho_tol,
                dev,
                f"max Gram deviation {dev:.3e} (tolerance {ortho_tol:g})",
            )
        )

    return ValidationReport(all(c.passed for c in checks), tuple(checks))


# --- pointwise model queries ---------------------------------------------------


def eval_kernel(model, channel, x, s, y):
    """Kernel value; for channel 1 ``s`` pairs with x, for channel 2 with y."""
    view = _oriented(model, channel)
    if view is not model:
        x, y = y, x
    return sum(
        float(f(np.float64(x))) * float(f(np.float64(s))) * float(w(np.float64(y)))
        for f, w in zip(view.channel1.basis, view.channel1.weights)
    )


def norm_bound(model):
    """``max_k sup|h_k| + max_j sup|p_j|`` over nodes plus a dense sample."""

    def channel_sup(exprs, rule, interval):
        points = np.concatenate([rule.nodes, _dense_points(interval)])
        return max(float(np.abs(e(points)).max()) for e in exprs)

    return channel_sup(model.channel1.weights, model.rule_y, model.y_interval) + channel_sup(
        model.channel2.weights, model.rule_x, model.x_interval
    )
