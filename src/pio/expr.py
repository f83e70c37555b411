"""Tiny expression language for basis functions and weights.

Grammar (whitespace between tokens is ignored)::

    expr      := term (('+' | '-') term)*
    term      := factor (('*' | '/') factor)*
    factor    := unary ('^' factor)?
    unary     := '-'? atom
    atom      := NUMBER | VAR | 'pi' | FUNC '(' expr ')' | '(' expr ')' | piecewise
    piecewise := 'piecewise' '(' seg (';' seg)* ')'
    seg       := '[' NUMBER ',' NUMBER ']' ':' expr

``^`` is right associative and binds tighter than ``*``; a leading minus
binds tighter than ``^`` (so ``-2^2`` is ``(-2)^2``).  One-variable
expressions use the variable ``t``; two-variable expressions (right-hand
sides on the rectangle) use ``x`` and ``y`` and may not contain
``piecewise``.  Piecewise segments must tile an interval; each boundary
belongs to the segment on its right, except the last one.  Segment bounds
are numeric literals, optionally negated.

The parser compiles as it reads: each production returns a function of the
variable environment (name -> array), so an ``Expression`` holds its
evaluator, not a syntax tree.  Piecewise breakpoints are recorded while the
segments are checked to continue, and the domain tests of a literal exponent
are decided once.

Each production of a one-variable expression also carries its coefficients
in ``t`` (lowest power first) where it is a polynomial, else ``None``:
literals, ``t``, ``pi``, unary minus as the grammar binds it (``-t^2`` is
``t^2``), ``+ - *``, ``/`` by a nonzero constant, ``^`` by a whole literal
up to ``_MAX_DEGREE`` (the product's degree too), and ``piecewise`` per
segment, where a piecewise operand combines with a polynomial one segment by
segment.  They only locate a weight's extrema (``model._sample``): the value
of parsed text is always its closures', as the coefficients of a factored
form such as ``(t - 0.3)^8`` cancel.  ``_polynomial_expression`` builds an
expression from coefficients alone, evaluated by Horner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import math
import operator
import re

import numpy as np

from .errors import DomainError, EmptyPiecewise, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "Expression",
    "parse_expr",
    "parse_expr2",
]

# the highest degree whose coefficients a production carries; above it the product is no polynomial
_MAX_DEGREE = 32

# one scan per source: whitespace, then a token, or the character that starts none
_TOKEN_RE = re.compile(
    r"""\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)   # number
      | ([A-Za-z_][A-Za-z_0-9]*)                       # identifier
      | ([-+*/^()\[\],;:])                             # punctuation
      | (\S))                                          # no token
    """,
    re.VERBOSE,
)


# --- compiled expressions ----------------------------------------------------


@dataclass(frozen=True)
class Expression:
    """A parsed expression: its source, its evaluator and its breakpoints.

    ``evaluate`` maps a variable environment (name -> array) to the value;
    equality ignores it, since it is a function of the source.
    ``breakpoints`` are the piecewise segment boundaries that are interior
    to the segment tiling; smoothness may fail only there.  ``polynomials`` holds ``(lo, hi, coefficients, scale, shift)``
    for each stretch ``lo <= t <= hi`` (unbounded unless piecewise) on which
    the expression is ``sum_i c_i u^i`` with ``u = scale*t - shift``, all
    coefficients finite; it too is a function of the source.
    """

    source: str
    variables: tuple
    evaluate: object = field(compare=False)
    breakpoints: tuple
    polynomials: tuple = field(default=(), compare=False)

    def __call__(self, *values):
        """Evaluate on numpy arrays (broadcasting applies)."""
        if len(values) != len(self.variables):
            raise DomainError(
                f"expression over {self.variables} called with {len(values)} arguments"
            )
        arrays = [np.asarray(v) for v in values]
        with np.errstate(all="ignore"):  # overflow surfaces as the finite check below
            out = np.asarray(self.evaluate(dict(zip(self.variables, arrays))), dtype=float)
        shape = arrays[0].shape if len(arrays) == 1 else np.broadcast_shapes(*(a.shape for a in arrays))
        out = out.copy() if out.shape == shape else np.full(shape, out)
        if not np.isfinite(out).all():
            raise DomainError(f"expression {self.source!r} produced a non-finite value")
        return out


# --- tokenizer / parser -----------------------------------------------------


def _tokenize(text):
    """Kinds and texts of the tokens and an end sentinel (kind ``None``)."""
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ExprSyntaxError("non-ASCII character", bad)
    kinds, texts = [], []
    for number, ident, punct, bad in _TOKEN_RE.findall(text):
        if bad:
            raise ExprSyntaxError(f"unexpected character {bad!r}", _offsets(text)[len(kinds)])
        kinds.append(punct or ("number" if number else "ident"))
        texts.append(number or ident or punct)
    return kinds + [None], texts + [None]


def _offsets(text):
    """Offset of each token and of the end, for error messages."""
    return [m.start(m.lastindex) for m in _TOKEN_RE.finditer(text)] + [len(text)]


def _literal_value(kinds, texts, start, stop):
    """Value of tokens ``start..stop-1`` that are a numeric literal, maybe negated and parenthesized."""
    core = [i for i in range(start, stop) if kinds[i] != "(" and kinds[i] != ")"]
    if [kinds[i] for i in core] not in (["number"], ["-", "number"]):
        return None
    value = float(texts[core[-1]])
    return -value if len(core) == 2 else value


class _Parser:
    """Recursive descent; each production returns a function of the environment
    and its coefficients (``_poly``), ``None`` throughout a two-variable expression."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = variables
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0
        self.breakpoints = set()
        self.polynomial = len(variables) == 1  # coefficients are tracked in ``t`` alone

    @property
    def offsets(self):
        return _offsets(self.text)

    def expect(self, kind, what):
        if self.kinds[self.pos] != kind:
            raise ExprSyntaxError(f"expected {what}", self.offsets[self.pos])
        self.pos += 1
        return self.pos - 1

    def parse(self):
        node = self.expr()
        if self.kinds[self.pos] is not None:
            raise ExprSyntaxError("unexpected trailing input", self.offsets[self.pos])
        return node

    def expr(self):
        node, poly = self.term()
        while (kind := self.kinds[self.pos]) == "+" or kind == "-":
            self.pos += 1
            right, rpoly = self.term()
            node, poly = _binary(kind, node, right), _poly(kind, poly, rpoly)
        return node, poly

    def term(self):
        node, poly = self.factor()
        while (kind := self.kinds[self.pos]) == "*" or kind == "/":
            self.pos += 1
            right, rpoly = self.factor()
            node, poly = _binary(kind, node, right), _poly(kind, poly, rpoly)
        return node, poly

    def factor(self):
        node, poly = self.unary()
        if self.kinds[self.pos] == "^":
            start = self.pos = self.pos + 1
            exponent, _ = self.factor()
            value = _literal_value(self.kinds, self.texts, start, self.pos)
            if value is None:
                return _binary("^", node, exponent), None
            return _literal_power(node, value), _poly_power(poly, value)
        return node, poly

    def unary(self):
        if self.kinds[self.pos] == "-":
            self.pos += 1
            arg, poly = self.atom()
            return (lambda env: -arg(env)), _poly("*", (-1.0,), poly)
        return self.atom()

    def atom(self):
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind is None:
            raise ExprSyntaxError("unexpected end of input", self.offsets[pos])
        self.pos += 1
        if kind == "number":
            value = self._literal(pos)
            return (lambda env: value), (value,) if self.polynomial else None
        if kind == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "ident":
            if text in self.variables:
                return (lambda env: env[text]), (0.0, 1.0) if self.polynomial else None
            if text == "pi":
                return (lambda env: np.pi), (np.pi,) if self.polynomial else None
            if text in _FUNCS:
                self.expect("(", f"'(' after {text}")
                arg, _ = self.expr()
                self.expect(")", "')'")
                func = _FUNCS[text]
                return (lambda env: func(arg(env))), None
            if text == "piecewise":
                if len(self.variables) != 1:
                    raise ExprSyntaxError(
                        "piecewise is not allowed in two-variable expressions", self.offsets[pos]
                    )
                return self.piecewise()
            raise UnknownIdentifier(text, self.offsets[pos])
        raise ExprSyntaxError(f"unexpected {text!r}", self.offsets[pos])

    def piecewise(self):
        """The evaluator and, as a list, each segment's ``(lo, hi, coefficients)``."""
        self.expect("(", "'(' after piecewise")
        if self.kinds[self.pos] == ")":
            raise EmptyPiecewise("piecewise needs at least one segment")
        segments = [self.segment()]
        while self.kinds[self.pos] == ";":
            self.pos += 1
            segments.append(self.segment())
        self.expect(")", "')' or ';'")
        for (_, prev_hi, _), (lo, hi, _) in zip(segments, segments[1:]):
            if lo != prev_hi:
                raise ExprSyntaxError(
                    f"segment [{lo!r},{hi!r}] does not continue at {prev_hi!r}",
                    self.offsets[self.pos],
                )
            self.breakpoints.add(lo)
        return (_piecewise([(lo, hi, body) for lo, hi, (body, _) in segments]),
                [(lo, hi, poly) for lo, hi, (_, poly) in segments])

    def segment(self):
        self.expect("[", "'['")
        lo = self._signed_number()
        self.expect(",", "','")
        hi = self._signed_number()
        self.expect("]", "']'")
        self.expect(":", "':'")
        body = self.expr()
        if not lo < hi:
            raise ExprSyntaxError(
                f"segment bounds [{lo!r},{hi!r}] are not increasing", self.offsets[self.pos]
            )
        return lo, hi, body

    def _signed_number(self):
        sign = 1.0
        if self.kinds[self.pos] == "-":
            self.pos += 1
            sign = -1.0
        return sign * self._literal(self.expect("number", "a numeric segment bound"))

    def _literal(self, pos):
        value = float(self.texts[pos])
        if not np.isfinite(value):
            raise ExprSyntaxError("numeric literal overflows", self.offsets[pos])
        return value


def parse_expr(text):
    """Parse a one-variable expression in ``t``."""
    return _parse(text, ("t",))


def parse_expr2(text):
    """Parse a two-variable expression in ``x`` and ``y`` (no piecewise)."""
    return _parse(text, ("x", "y"))


def _parse(text, variables):
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, variables)
    evaluate, poly = parser.parse()
    segments = poly if isinstance(poly, list) else [(-math.inf, math.inf, poly)]
    polynomials = tuple(
        (lo, hi, c, 1.0, 0.0) for lo, hi, c in segments
        if isinstance(c, tuple) and all(map(math.isfinite, c))
    )
    return Expression(text, variables, evaluate, tuple(sorted(parser.breakpoints)), polynomials)


def _polynomial_expression(source, coefficients, scale, shift):
    """The expression ``sum_i c_i u^i`` in ``t``, with ``u = scale*t - shift``
    and ``coefficients`` lowest power first, evaluated by Horner; ``source``
    names it in messages and in comparisons."""
    top, *rest = coefficients[::-1]

    def evaluate(env):
        if not rest:
            return top
        u = scale * env["t"] - shift
        value = top * u + rest[0]  # a new array: the later steps work in place
        for c in rest[1:]:
            value *= u
            value += c
        return value

    stretch = (-math.inf, math.inf, tuple(coefficients), scale, shift)
    return Expression(source, ("t",), evaluate, (), (stretch,))


# --- coefficients -------------------------------------------------------------


def _poly(op, a, b):
    """Coefficients of ``a op b`` for ``+ - * /``, each operand a coefficient tuple, a
    piecewise list of ``(lo, hi, coefficients)`` or ``None``: a piecewise operand combines
    with a tuple segment by segment, and anything else gives ``None``."""
    if isinstance(a, list) or isinstance(b, list):
        if isinstance(a, tuple):
            return [(lo, hi, _poly(op, a, c)) for lo, hi, c in b]
        if isinstance(b, tuple):
            return [(lo, hi, _poly(op, c, b)) for lo, hi, c in a]
        return None
    if a is None or b is None:
        return None
    if op == "*":
        if len(a) + len(b) - 2 > _MAX_DEGREE:
            return None
        out = [0.0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return tuple(out)
    if op == "/":
        return tuple(c / b[0] for c in a) if b[0] != 0.0 and not any(b[1:]) else None
    return tuple(_BINARY[op](x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0.0))


def _poly_power(poly, e):
    """Coefficients of ``poly ^ e`` for a whole literal ``0 <= e <= _MAX_DEGREE`` (of each
    segment of a piecewise ``poly``), else ``None``."""
    if isinstance(poly, list):
        return [(lo, hi, _poly_power(c, e)) for lo, hi, c in poly]
    if poly is None or not (e == math.floor(e) and 0.0 <= e <= _MAX_DEGREE):
        return None
    out = (1.0,)
    for _ in range(int(e)):
        out = _poly("*", out, poly)
    return out


# --- evaluation -------------------------------------------------------------


def _binary(op, left, right):
    func = _BINARY[op]
    return lambda env: func(left(env), right(env))


def _divide(left, right):
    if np.any(np.asarray(right) == 0.0):
        raise DomainError("division by zero")
    return left / right


def _power(base, exponent):
    b = np.asarray(base, dtype=float)
    e = np.asarray(exponent, dtype=float)
    if np.any((b == 0.0) & (e < 0.0)):
        raise DomainError("zero raised to a negative power")
    if np.any((b < 0.0) & (e != np.floor(e))):
        raise DomainError("negative base with a non-integer exponent")
    mag = np.power(np.abs(b), e)
    return np.where(np.mod(e, 2.0) == 1.0, np.copysign(mag, b), mag)


def _literal_power(base, e):
    """``base ^ e`` for a literal ``e``, whose tests are decided here, with ``_power``'s
    arithmetic: ``|base| ^ e``, with the sign of ``base`` for an odd ``e`` (``-0.0`` too, as
    ``np.power`` gives it)."""
    exponent = np.asarray(e, dtype=float)
    negative, whole, odd = e < 0.0, e == math.floor(e), e % 2.0 == 1.0  # as np.floor, np.mod

    def evaluate(env):
        b = np.asarray(base(env), dtype=float)
        if negative and np.any(b == 0.0):
            raise DomainError("zero raised to a negative power")
        if not whole and np.any(b < 0.0):
            raise DomainError("negative base with a non-integer exponent")
        mag = np.power(np.abs(b), exponent)
        return np.copysign(mag, b) if odd else mag

    return evaluate


def _log(arg):
    if np.any(np.asarray(arg) <= 0.0):
        raise DomainError("log of a non-positive value")
    return np.log(arg)


def _sqrt(arg):
    if np.any(np.asarray(arg) < 0.0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(arg)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": _log, "sqrt": _sqrt, "abs": np.abs}


def _piecewise(segments):
    lo, hi = segments[0][0], segments[-1][1]
    bounds = np.array([seg[0] for seg in segments] + [hi])
    bodies = [lambda t, body=body: body({"t": t}) for _, _, body in segments]

    def evaluate(env):
        t = np.asarray(env["t"], dtype=float)
        if np.any(t < lo) or np.any(t > hi):
            raise DomainError(f"point outside piecewise coverage [{lo!r},{hi!r}]")
        idx = np.searchsorted(bounds, t, side="right") - 1
        idx = np.minimum(idx, len(segments) - 1)  # t == hi belongs to the last segment
        return np.piecewise(t, [idx == i for i in range(len(segments))], bodies)

    return evaluate

