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
strings; the shorthands ``legendre(k)`` and ``trig(k)`` expand to explicit
orthonormal polynomials / trigonometric functions on their interval.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import numbers
import re
import weakref
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import IndexOutOfRange, InvalidModel, ModelFormatError, PioError
from .expr import parse_expr
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
    "norm_bound",
]

DEFAULT_ORDER = 32
DEFAULT_ORTHO_TOL = 1e-8
_DENSE_SAMPLES = 1024
_RANGE_SAMPLES = 4096


@dataclass(frozen=True)
class SearchSettings:
    """Root search policy of a model, the only source of search settings,
    checked on construction since model files come from outside the program;
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
        if self.margin is not None and not 0 < self.margin < np.inf:  # JSON reads Infinity
            raise ModelFormatError("search.margin must be finite and positive")
        if self.scan_points < 2:
            raise ModelFormatError("search.scan_points must be >= 2")


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
        return self.grid(lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape), float(value)))

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
    """The model for channel 1, its mirror for channel 2."""
    if channel == 1:
        return model
    if channel == 2:
        return model.mirrored()
    raise PioError(f"channel must be 1 or 2, got {channel!r}")


def _member(model, k):
    """Row of channel-1 member ``k``: an integer in ``1..n``, else ``IndexOutOfRange``."""
    if not (isinstance(k, numbers.Integral) and 1 <= k <= model.n):
        raise IndexOutOfRange(f"member index must be an integer in 1..{model.n}, got {k}")
    return int(k) - 1


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
    """The axis rule, split at the interior breakpoints of its expressions and the extra ones."""
    if not all(map(math.isfinite, extra)):
        raise ModelFormatError(f"quadrature: extra breakpoints must be finite, got {list(extra)}")
    lo, hi = interval
    points = [*(b for e in exprs for b in e.breakpoints), *extra]
    return build_rule(interval, order, sorted({float(p) for p in points if lo < p < hi}))


def _sample_channel(channel, basis_rule, basis_interval, weight_rule, weight_interval):
    """``(basis, weights)`` of a channel, the ``_Sample`` of each; one dense sample per side."""
    basis_dense = np.linspace(*basis_interval, _DENSE_SAMPLES)
    weight_dense = np.linspace(*weight_interval, _DENSE_SAMPLES)
    return (
        tuple(_sample(f, basis_rule.nodes, basis_dense, basis_interval) for f in channel.basis),
        tuple(_sample(w, weight_rule.nodes, weight_dense, weight_interval, weight=True)
              for w in channel.weights),
    )


@dataclass(frozen=True)
class _Sample:
    """What a model keeps of one expression's one evaluation (``_sample``), no view of it:
    ``nodes``, a copy of the values on the rule's nodes, and ``sup``, the largest magnitude
    there and on the dense sample, or ``None`` and their ``PioError``; a weight's ``pieces``,
    ``(lo, hi, level, low, high)`` per piece (``level`` a constant piece's value, else ``None``
    and the sampled extrema), or the ``PioError`` of its probes or range samples."""

    nodes: object
    sup: object
    pieces: object = None


def _sample(expr, nodes, dense, interval, weight=False):
    """The ``_Sample`` of ``expr`` from one evaluation on the point sets laid out here: the rule's
    ``nodes`` with the ``dense`` sample (both may be empty) and, for a weight that is not a
    literal, each piece's 257-point constancy probe and 4,097 range samples; if that
    evaluation raises, each set is evaluated on its own."""
    lo, hi = interval
    cuts = [lo, *(b for b in expr.breakpoints if lo < b < hi), hi]
    spans = list(zip(cuts, cuts[1:]))
    parts = [nodes, dense]
    ranged = weight and expr.constant is None
    for plo, phi in spans if ranged else ():
        ts = np.linspace(plo, phi, _RANGE_SAMPLES + 1)
        if phi < hi:
            ts[-1] = np.nextafter(phi, plo)  # interior breakpoint owns the right side
        parts += [plo + (phi - plo) * (np.arange(257) + 0.5) / 257.0, ts]  # probe strictly inside
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
    if not weight:
        return _Sample(kept, sup)
    try:  # every probe first, then the range samples of the pieces that are not constant
        levels = [_level(take(2 * i + 2)) if ranged else expr.constant for i in range(len(spans))]
        ranges = [None if level is not None else take(2 * i + 3) for i, level in enumerate(levels)]
        pieces = tuple(
            (plo, phi, level, None, None) if vals is None
            else (plo, phi, None, float(vals.min()), float(vals.max()))
            for (plo, phi), level, vals in zip(spans, levels, ranges)
        )
    except PioError as err:
        pieces = err.with_traceback(None)
    return _Sample(kept, sup, pieces)


def _level(vals):
    """The value of samples that agree to ``1e-12 * (1 + max|value|)``, else ``None``."""
    spread = float(vals.max() - vals.min())
    if spread < 1e-12 * (1.0 + float(np.abs(vals).max())):
        return float(vals.mean())
    return None


def _stored(value):
    """A ``_Sample`` field; a ``PioError`` in its place is raised as a copy (no traceback kept)."""
    if isinstance(value, PioError):
        raise copy.copy(value)
    return value


# --- shorthand generators -----------------------------------------------------


def legendre_source(k, interval):
    """Expression text of the degree-``k`` orthonormal polynomial on the interval,
    in powers of ``(2t - lo - hi)/(hi - lo)`` (in powers of ``t``, 14 members fail validation)."""
    lo, hi = (float(v) for v in interval)
    shift = (lo + hi) / (hi - lo)
    u = f"({2.0 / (hi - lo)!r}*t {'-' if shift >= 0 else '+'} {abs(shift)!r})"
    terms = []
    for power, c in enumerate(_leg2poly(k, math.sqrt((2.0 * k + 1.0) / (hi - lo)))):
        if c != 0.0:
            terms.append(repr(c) + ("" if power == 0 else f"*{u}" if power == 1 else f"*{u}^{power}"))
    return " + ".join(terms)


def _leg2poly(k, top):
    """``numpy.polynomial.legendre.leg2poly`` of ``top`` P_k in plain floats, with its
    operations in its order (no series it meets ends in a zero, so it never trims)."""

    def add(a, b):  # polyadd: the shorter series added into the longer
        short, long = (b, a) if len(a) > len(b) else (a, b)
        return [x + y for x, y in zip(long, short)] + long[len(short) :]

    if k < 2:
        return [0.0] * k + [top]
    c0, c1 = [0.0], [top]
    for i in range(k, 1, -1):  # polysub(0, s) is add([0.0], -s); polymulx prepends c[0] * 0
        c0, c1 = (add([0.0], [-(v * (i - 1) / i) for v in c1]),
                  add(c0, [v * (2 * i - 1) / i for v in [c1[0] * 0, *c1]]))
    return add(c0, [c1[0] * 0, *c1])


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


def _parse_sources(sources, interval, where, parsed):
    """The sources as expressions, parsed once per model (``parsed``) and interval."""
    for src in sources:
        if (src, interval) not in parsed:
            try:
                parsed[src, interval] = parse_expr(_expand_source(src, interval))
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
    source once per interval; refuses a fractional or non-finite ``order`` (``PioError``)
    and a non-finite extra breakpoint (``ModelFormatError``)."""
    xi = (float(x_interval[0]), float(x_interval[1]))
    yi = (float(y_interval[0]), float(y_interval[1]))
    parsed = {}
    channel1 = Channel(
        _parse_sources(basis1, xi, "channel1.basis", parsed),
        _parse_sources(weights1, yi, "channel1.weights", parsed),
    )
    channel2 = Channel(
        _parse_sources(basis2, yi, "channel2.basis", parsed),
        _parse_sources(weights2, xi, "channel2.weights", parsed),
    )
    if isinstance(order, numbers.Real) and not (math.isfinite(order) and order == int(order)):
        raise PioError(f"quadrature order must be a whole number, got {order}")
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
    _no_extras(sdata, ("margin", "scan_points"), "search")
    given = {}  # the defaults are SearchSettings' own
    if "margin" in sdata:
        given["margin"] = float(_want(sdata, "margin", (int, float), "search"))
    if "scan_points" in sdata:
        given["scan_points"] = _want(sdata, "scan_points", int, "search")
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
