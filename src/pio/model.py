"""Model of a two-channel partial integral operator on a rectangle.

A model consists of two channels acting on L2 of ``[a, b] x [c, d]``:

* channel 1 integrates over the first variable and has kernel
  ``sum_k phi_k(x) phi_k(s) h_k(y)`` with an orthonormal family ``phi_k``
  on ``[a, b]`` and bounded real weights ``h_k`` on ``[c, d]``;
* channel 2 integrates over the second variable and has kernel
  ``sum_j p_j(x) psi_j(y) psi_j(t)`` with an orthonormal family ``psi_j``
  on ``[c, d]`` and bounded real weights ``p_j`` on ``[a, b]``.

Orthonormality is validated, never enforced: every computation on a model's
samples refuses one that fails validation.  Basis and weight entries are expression
strings; the shorthand ``legendre(k)`` is the orthonormal polynomial on its
interval, evaluated by the Gauss rules' Legendre recurrence, and ``trig(k)``
expands to the text of the orthonormal trigonometric function there.  A weight's
range is exact on its polynomial pieces and sampled on the others (``_sample``).
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import re
import weakref
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import BadInterval, IndexOutOfRange, InvalidModel, ModelFormatError, PioError, _integer, _numeric, _whole
from .expr import _MAX_DEGREE, Expression, parse_expr
from .quadrature import Grid2D, _interval, _legendre_pair, build_rule

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
    "norm_bound",
]

DEFAULT_ORDER = 32
DEFAULT_ORTHO_TOL = 1e-8
_DENSE_SAMPLES = 1024
_RANGE_SAMPLES = 4096


@dataclass(frozen=True)
class SearchSettings:
    """Root search policy of a model, the only source of search settings,
    converted on construction (``margin`` by ``_numeric``, ``scan_points`` by
    ``_whole``, ``ModelFormatError``) since model files come from outside the program;
    ``margin=None`` means ``1e-3 * (1 + norm bound)``, and a margin below twice
    the operator margin ``1e-9 * (1 + norm bound)`` is raised to it
    (``spectrum._search_region``).  A model file sets it in its ``search``
    block, a program with
    ``dataclasses.replace(model, search=SearchSettings(margin=0.01))``.

    The discrete search reads ``margin`` only: it counts eigenvalues by
    inertia, so no scan resolution decides what it finds, and it locates each
    root to a fixed width (``spectrum._ROOT_TOL``), not a setting.
    ``scan_points`` is checked and echoed, nothing more.  The solvers have no setting:
    their eigenvalue decision (``spectrum._multiplicity``) reads this search's roots,
    and counts directly near the bands that ``margin`` leaves unresolved.
    """

    margin: float | None = None
    scan_points: int = 512

    def __post_init__(self):
        if self.margin is not None:
            margin = _numeric(self.margin, "search.margin", real=True, error=ModelFormatError)
            if not margin > 0:
                raise ModelFormatError("search.margin must be finite and positive")
            object.__setattr__(self, "margin", margin)
        scan_points = _whole(self.scan_points, "search.scan_points", 2, error=ModelFormatError)
        object.__setattr__(self, "scan_points", scan_points)


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
    """Immutable model; quadrature rules and samples are derived lazily.  Its fields are
    taken as given: ``make_model`` and ``model_from_dict`` convert and check them."""

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
        exprs = (*self.channel1.basis, *self.channel2.weights)
        return _rule(self.x_interval, self.order, exprs, self.extra_breakpoints_x)

    @cached_property
    def rule_y(self):
        exprs = (*self.channel1.weights, *self.channel2.basis)
        return _rule(self.y_interval, self.order, exprs, self.extra_breakpoints_y)

    @cached_property
    def _samples1(self):
        """Channel-1 basis and weights, the ``_Sample`` of each (``_sample_channel``)."""
        return _sample_channel(self.channel1, self.rule_x, self.x_interval, self.rule_y, self.y_interval)

    @cached_property
    def _samples2(self):
        return _sample_channel(self.channel2, self.rule_y, self.y_interval, self.rule_x, self.x_interval)

    @cached_property
    def phi_x(self):
        """Channel-1 basis sampled on the x rule, shape (n, Nx)."""
        return self._node_rows(self._samples1[0])

    @cached_property
    def h_y(self):
        """Channel-1 weights sampled on the y rule, shape (n, Ny)."""
        return self._node_rows(self._samples1[1])

    @cached_property
    def psi_y(self):
        """Channel-2 basis sampled on the y rule, shape (m, Ny)."""
        return self._node_rows(self._samples2[0])

    @cached_property
    def p_x(self):
        """Channel-2 weights sampled on the x rule, shape (m, Nx)."""
        return self._node_rows(self._samples2[1])

    @cached_property
    def bound(self):
        """``norm_bound(self)``, for a model that passes validation only."""
        self._require_valid()
        return norm_bound(self)

    def _require_valid(self):
        """The one validation gate, ``InvalidModel`` with the report unless the model passes
        ``validate_model``; the sampled arrays, ``bound`` and the weight ranges read it."""
        if not self._validation.ok:
            raise InvalidModel(self._validation)

    def _node_rows(self, samples):
        self._require_valid()
        return np.vstack([s.nodes for s in samples])

    @cached_property
    def _validation(self):
        """``validate_model(self)``, the report the library gates on."""
        return validate_model(self)

    def grid(self, f):
        """Sample a callable of (x, y) arrays on the model's tensor grid."""
        return Grid2D.from_function(self.rule_x, self.rule_y, f)

    def constant_grid(self, value=1.0):
        """The grid of one real or complex number ``value`` by ``_numeric`` (``DomainError``)."""
        value = _numeric(value, "value")
        return self.grid(lambda x, y: value)

    def mirrored(self):
        """The model under the swap ``(x, y) -> (y, x)``.

        The swap exchanges the intervals, the channels and the extra
        breakpoints.  It is unitary on L2 of the rectangle and carries this
        operator onto the mirror's, so both have the same spectrum.  Channel 2
        of this model is channel 1 of its mirror, and path 2 (the channels in
        the other order) is the mirror itself, passed to any computation.  The
        mirror shares this model's rules, sampled arrays, norm bound and
        validation report (and, through the spectrum module, its essential
        set) instead of computing them again, so a refusal names this model's
        channels; a model that fails validation has no mirror (``InvalidModel``).
        It is made once and kept on the model; its mirror is this, held weakly
        so that no cycle keeps a dropped model alive (a mirror left alone makes a new one).
        """
        twin = self.__dict__.get("_mirror")
        twin = twin() if isinstance(twin, weakref.ref) else twin
        if twin is None:
            twin = PIOModel(
                self.y_interval, self.x_interval, self.channel2, self.channel1, self.order,
                self.extra_breakpoints_y, self.extra_breakpoints_x, self.search,
            )
            for mine, theirs in _MIRRORED_ATTRS.items():
                twin.__dict__[mine] = getattr(self, theirs)
            twin.__dict__["_mirror"] = weakref.ref(self)
            self.__dict__["_mirror"] = twin
        return twin


# each derived attribute of the mirror and the attribute of the model it equals
_MIRRORED_ATTRS = {
    "rule_x": "rule_y", "rule_y": "rule_x", "phi_x": "psi_y", "h_y": "p_x",
    "psi_y": "phi_x", "p_x": "h_y", "bound": "bound", "_validation": "_validation",
    "_samples1": "_samples2", "_samples2": "_samples1",
}


def _oriented(model, channel):
    """The model for channel 1, its mirror for channel 2: ``channel`` is a whole number in 1..2."""
    return model if _whole(channel, "channel", 1, 2) == 1 else model.mirrored()


def _member(model, k):
    """Row of channel-1 member ``k``, a whole number in ``1..n``, else ``IndexOutOfRange``."""
    return _whole(k, "member index", 1, model.n, IndexOutOfRange) - 1


def _on_side(act, model, channel, f, *args):
    """``act(view, f, *args)`` with ``view = _oriented(model, channel)``.

    On the mirror the grid function is transposed into the mirror's axis
    order and the grid result is transposed back.
    """
    view = _oriented(model, channel)
    if view is model:
        return act(view, f, *args)
    return act(view, f.transposed(), *args).transposed()


def _rule(interval, order, exprs, extra):
    """The axis rule, split at its expressions' breakpoints inside the interval (a piecewise
    tiling may reach past it) and at the extra ones, which ``build_rule`` refuses outside it."""
    lo, hi = interval
    return build_rule(interval, order, [*(b for e in exprs for b in e.breakpoints if lo < b < hi), *extra])


def _sample_channel(channel, basis_rule, basis_interval, weight_rule, weight_interval):
    """``(basis, weights)`` of a channel, the ``_Sample`` of each; one dense sample per side, and
    one set of range samples per distinct sampled weight piece."""
    basis_dense = np.linspace(*basis_interval, _DENSE_SAMPLES)
    weight_dense = np.linspace(*weight_interval, _DENSE_SAMPLES)
    ranges = {}
    return (
        tuple(_sample(f, basis_rule.nodes, basis_dense, basis_interval) for f in channel.basis),
        tuple(_sample(w, weight_rule.nodes, weight_dense, weight_interval, ranges) for w in channel.weights),
    )


@dataclass(frozen=True)
class _Sample:
    """What a model keeps of one expression's one evaluation (``_sample``), no view of it:
    ``nodes``, a copy of the values on the rule's nodes, and ``sup``, the largest magnitude
    there and on the dense sample, or ``None`` and their ``PioError``; a weight's ``pieces``,
    ``(lo, hi, level, low, high)`` per piece (``level`` a constant piece's value, else ``None``
    and the piece's extrema), or the ``PioError`` of its range points."""

    nodes: object
    sup: object
    pieces: object = None


def _sample(expr, nodes, dense, interval, ranges=None):
    """The ``_Sample`` of ``expr`` from one evaluation on the point sets laid out here: the rule's
    ``nodes`` with the ``dense`` sample (both may be empty) and, for a weight, each piece's range
    points; if that evaluation raises, each set is evaluated on its own.  A piece ends just left
    of an interior breakpoint, which belongs to the piece on its right.

    A piece on which the expression is a polynomial (``expr.polynomials``) is ranged in closed
    form: its points are its ends and the real critical points inside it
    (``_critical_points``), so its extrema are the expression's own values at the points where
    a polynomial's extrema lie, exact to the rounding of those values.  Any other piece, and
    one whose critical points ``_critical_points`` cannot give, has 4,097 range samples, built
    on first use in ``ranges``, a dict by piece that the weights of one side share (a weight
    passes it), and its extrema are sampled.  ``_level`` reads the extrema of each piece."""
    parts = [nodes, dense]
    spans = []  # a weight's pieces, each ``(lo, hi, ranged in closed form)``
    if ranges is not None:
        lo, hi = interval
        cuts = [lo, *(b for b in expr.breakpoints if lo < b < hi), hi]
        for plo, phi in zip(cuts, cuts[1:]):
            end = phi if phi == hi else np.nextafter(phi, plo)  # interior breakpoint owns the right side
            poly = next((p[2:] for p in expr.polynomials if p[0] <= plo and phi <= p[1]), None)
            points = None if poly is None else _critical_points(*poly, plo, phi)
            if points is None:
                if (plo, phi) not in ranges:
                    ts = np.linspace(plo, phi, _RANGE_SAMPLES + 1)
                    ts[-1] = end
                    ranges[plo, phi] = ts
                parts.append(ranges[plo, phi])
            else:
                parts.append(np.array([plo, *points, end]))
            spans.append((plo, phi, points is not None))
    try:
        values = expr(np.concatenate(parts))
    except PioError:
        values = None
    ends = [0, *itertools.accumulate(map(len, parts))]

    def take(i, count=1):  # the values on ``parts[i : i + count]``
        span = slice(ends[i], ends[i + count])
        return expr(np.concatenate(parts[i : i + count])) if values is None else values[span]

    try:
        head = take(0, 2)  # the nodes and the dense sample, evaluated together in the fallback too
        kept, sup = head[: len(nodes)].copy(), float(np.abs(head).max(initial=0.0))
    except PioError as err:
        kept, sup = None, err.with_traceback(None)
    if ranges is None:
        return _Sample(kept, sup)
    try:
        pieces = tuple((plo, phi, *_level(take(i + 2), exact)) for i, (plo, phi, exact) in enumerate(spans))
    except PioError as err:
        pieces = err.with_traceback(None)
    return _Sample(kept, sup, pieces)


def _critical_points(coefficients, scale, shift, lo, hi):
    """The real roots ``t`` in ``lo < t < hi`` of the derivative of ``sum_i c_i u^i``,
    ``u = scale*t - shift``: in closed form for a linear derivative, else the eigenvalues of
    its companion matrix.  A rounded double root may come out as a complex pair, so the real
    part of every root is kept: a point of the piece that is no critical point only adds a
    value.  ``None`` where a derivative coefficient overflows or a root is not finite or
    cannot be computed, so the piece is sampled."""
    d = [i * c for i, c in enumerate(coefficients)][1:]
    while d and d[-1] == 0.0:
        d.pop()
    if not all(map(math.isfinite, d)):
        return None
    if len(d) <= 1:  # a constant or linear polynomial has its extrema at the ends
        roots = []
    elif len(d) == 2:
        roots = [-d[0] / d[1]]
    else:
        try:
            with np.errstate(all="ignore"):
                roots = np.polynomial.polynomial.polyroots(d).real.tolist()
        except np.linalg.LinAlgError:
            return None
    if not all(map(math.isfinite, roots)):
        return None
    ts = ((u + shift) / scale for u in roots)
    return [t for t in ts if lo < t < hi]


def _level(vals, exact):
    """``(level, None, None)`` for a piece whose values agree to ``1e-12 * (1 +
    max|value|)``, a constant piece, else ``(None, low, high)``, their extrema.  The level
    is the mean of the extrema of a piece ranged in closed form (``exact``; their common
    value, the sign of a zero included, where they are equal), else the mean of its range
    samples.  The extrema are taken once: ``max|value|`` is ``max(-low, high)``."""
    low, high = float(vals.min()), float(vals.max())
    if high - low < 1e-12 * (1.0 + max(-low, high)):
        if not exact:
            return float(vals.mean()), None, None
        return (low if low == high else low + (high - low) / 2), None, None
    return None, low, high


def _stored(value):
    """A ``_Sample`` field; a ``PioError`` in its place is raised as a copy (no traceback kept)."""
    if isinstance(value, PioError):
        raise copy.copy(value)
    return value


# --- shorthand generators -----------------------------------------------------


def _legendre(k, interval):
    """The degree-``k`` orthonormal polynomial ``top * P_k(u)`` in ``u = (2t - lo - hi)/(hi - lo)``,
    evaluated by ``_legendre_pair``; up to degree ``_MAX_DEGREE`` its coefficients in ``u``, by
    Bonnet's recurrence, place a weight's critical points (``_sample``).  Its ``source``,
    ``legendre(k) on [lo, hi]``, names the interval, so two intervals' members differ."""
    lo, hi = (float(v) for v in interval)
    top = math.sqrt((2.0 * k + 1.0) / (hi - lo))
    scale, shift = 2.0 / (hi - lo), (lo + hi) / (hi - lo)

    def evaluate(env):
        p, _ = _legendre_pair(k, scale * env["t"] - shift)
        p *= top
        return p

    polynomials = ()
    if k <= _MAX_DEGREE:
        prev, c = (), (top,)
        for deg in range(1, k + 1):
            prev, c = c, tuple(((2 * deg - 1) * a - (deg - 1) * b) / deg
                               for a, b in itertools.zip_longest((0.0, *c), prev, fillvalue=0.0))
        polynomials = ((-math.inf, math.inf, c, scale, shift),)
    return Expression(f"legendre({k}) on [{lo!r}, {hi!r}]", ("t",), evaluate, (), polynomials)


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


def _build(text, interval):
    """The expression of one source on the interval: ``legendre(k)`` by ``_legendre``,
    ``trig(k)`` parsed from its text, anything else parsed as written.  The degree ``k`` is
    converted by the whole rule, so one too large raises ``ModelFormatError``."""
    m = _SHORTHAND_RE.match(text)
    if m is None:
        return parse_expr(text)
    kind, digits = m.groups()
    k = _whole(_integer(digits), f"{kind} degree", lo=0, error=ModelFormatError)
    return _legendre(k, interval) if kind == "legendre" else parse_expr(trig_source(k, interval))


def _parse_sources(sources, interval, where, parsed):
    """The sources as expressions, built once per model (``parsed``) and interval."""
    for src in sources:
        if (src, interval) not in parsed:
            try:
                parsed[src, interval] = _build(src, interval)
            except PioError as err:
                raise ModelFormatError(f"{where}: cannot parse {src!r}: {err}") from err
    return tuple(parsed[src, interval] for src in sources)


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
    """Build a model from expression strings (shorthands allowed), parsing each distinct
    source once per interval.  The intervals (``BadInterval``), the ``order`` (a whole number
    >= 1, ``BadInterval``) and the extra breakpoints (real numbers, ``ModelFormatError``) are
    converted by the rules of ``errors``; an extra breakpoint not strictly inside its interval
    raises ``BadBreakpoint``."""
    xi, yi = _interval(x_interval, "x_interval"), _interval(y_interval, "y_interval")
    parsed = {}
    channel1 = Channel(
        _parse_sources(basis1, xi, "channel1.basis", parsed),
        _parse_sources(weights1, yi, "channel1.weights", parsed),
    )
    channel2 = Channel(
        _parse_sources(basis2, yi, "channel2.basis", parsed),
        _parse_sources(weights2, xi, "channel2.weights", parsed),
    )
    extra = [tuple(_numeric(b, f"extra_breakpoints_{axis}", real=True, error=ModelFormatError) for b in bps)
             for axis, bps in (("x", extra_breakpoints_x), ("y", extra_breakpoints_y))]
    order = _whole(order, "quadrature order", error=BadInterval)
    model = PIOModel(xi, yi, channel1, channel2, order, *extra, search)
    model.rule_x, model.rule_y  # noqa: B018 - fail fast on bad intervals/breakpoints
    return model


def _want(mapping, key, types, where, required=True, default=None):
    if key not in mapping:
        if required:
            raise ModelFormatError(f"{where}: missing key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, types):
        raise ModelFormatError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def _number_pair(value, where):
    if not isinstance(value, list) or len(value) != 2:
        raise ModelFormatError(f"{where}: expected [lo, hi] numbers")
    return tuple(_numeric(v, where, real=True, error=ModelFormatError) for v in value)


def _string_list(value, where):
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) for v in value)
    ):
        raise ModelFormatError(f"{where}: expected a non-empty list of strings")
    return list(value)


def _number_list(value, where):
    if not isinstance(value, list):
        raise ModelFormatError(f"{where}: expected a list of numbers")
    return [_numeric(v, where, real=True, error=ModelFormatError) for v in value]


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
    order = _whole(quad.get("order", DEFAULT_ORDER), "quadrature.order", error=ModelFormatError)
    extra_x = _number_list(
        _want(quad, "extra_breakpoints_x", list, "quadrature", required=False, default=[]),
        "quadrature.extra_breakpoints_x",
    )
    extra_y = _number_list(
        _want(quad, "extra_breakpoints_y", list, "quadrature", required=False, default=[]),
        "quadrature.extra_breakpoints_y",
    )

    sdata = _want(data, "search", dict, "model", required=False, default={})
    _no_extras(sdata, ("margin", "scan_points"), "search")
    given = dict(sdata)  # the defaults are SearchSettings' own
    if "margin" in given:  # where SearchSettings reads None as its default, a file's null is no number
        given["margin"] = _numeric(given["margin"], "search.margin", real=True, error=ModelFormatError)
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
    except ValueError as err:  # bad JSON, text not in UTF-8, or an integer of over 4,300 digits
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
        return {"ok": self.ok, "checks": [asdict(c) for c in self.checks]}


def validate_model(model):
    """Check orthonormality of both bases (to ``DEFAULT_ORTHO_TOL``, the one
    tolerance the library gates on) and evaluability/boundedness of all pieces
    on the nodes and the dense sample, read from each expression's ``_Sample``."""
    checks = []
    names = ("channel1.basis", "channel1.weights", "channel2.basis", "channel2.weights")
    evaluated = dict(zip(names, (*model._samples1, *model._samples2)))
    for name, samples in evaluated.items():
        bad = [f"#{i + 1}: {s.sup}" for i, s in enumerate(samples) if s.nodes is None]
        sup = max((s.sup for s in samples if s.nodes is not None), default=0.0)
        checks.append(
            CheckResult(
                f"{name} evaluable",
                not bad,
                None,
                "; ".join(bad) if bad else f"finite on nodes and dense sample, sup {sup:.6g}",
            )
        )

    for name, rule in (("channel1.basis", model.rule_x), ("channel2.basis", model.rule_y)):
        samples = evaluated[name]
        if any(s.nodes is None for s in samples):
            checks.append(
                CheckResult(f"{name} orthonormal", False, None, "skipped: basis not evaluable")
            )
            continue
        rows = np.vstack([s.nodes for s in samples])
        with np.errstate(all="ignore"):  # a Gram that overflows fails the check, not a warning
            gram = (rows * rule.weights) @ rows.T
            dev = float(np.abs(gram - np.eye(len(samples))).max())
        checks.append(
            CheckResult(
                f"{name} orthonormal",
                dev <= DEFAULT_ORTHO_TOL,
                dev,
                f"max Gram deviation {dev:.3e} (tolerance {DEFAULT_ORTHO_TOL:g})",
            )
        )

    return ValidationReport(all(c.passed for c in checks), tuple(checks))


def norm_bound(model):
    """``max_k sup|h_k| + max_j sup|p_j|`` over nodes plus a dense sample: the
    sups of the two weight slots that ``validate_model`` reads, from the same
    records; a weight that cannot be evaluated there raises its ``PioError``."""
    weights = (model._samples1[1], model._samples2[1])
    return sum(max(_stored(s.sup) for s in slot) for slot in weights)
