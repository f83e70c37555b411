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
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import math
import operator
import re

import numpy as np

from .errors import DomainError, EmptyPiecewise, ExprSyntaxError, PioError, UnknownIdentifier

__all__ = [
    "Expression",
    "parse_expr",
    "parse_expr2",
]

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
    to the segment tiling; smoothness may fail only there.  ``constant`` is
    the value of a source that is a numeric literal or a negated one, else
    ``None``.
    """

    source: str
    variables: tuple
    evaluate: object = field(compare=False)
    breakpoints: tuple
    constant: float | None

    def __call__(self, *values):
        """Evaluate on numpy arrays (broadcasting applies)."""
        arrays = [np.asarray(v) for v in values]
        if len(arrays) != len(self.variables):
            raise DomainError(
                f"expression over {self.variables} called with {len(arrays)} arguments"
            )
        with np.errstate(all="ignore"):  # overflow surfaces as the finite check below
            out = self.evaluate(dict(zip(self.variables, arrays)))
        shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else ()
        out = np.broadcast_to(np.asarray(out, dtype=float), shape)
        if not np.all(np.isfinite(out)):
            raise DomainError(f"expression {self.source!r} produced a non-finite value")
        return out.copy()


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
    """Recursive descent; each production returns a function of the environment."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = variables
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0
        self.breakpoints = set()

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
        node = self.term()
        while (kind := self.kinds[self.pos]) == "+" or kind == "-":
            self.pos += 1
            node = _binary(kind, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (kind := self.kinds[self.pos]) == "*" or kind == "/":
            self.pos += 1
            node = _binary(kind, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if self.kinds[self.pos] == "^":
            start = self.pos = self.pos + 1
            exponent = self.factor()
            value = _literal_value(self.kinds, self.texts, start, self.pos)
            node = _binary("^", node, exponent) if value is None else _literal_power(node, value)
        return node

    def unary(self):
        if self.kinds[self.pos] == "-":
            self.pos += 1
            arg = self.atom()
            return lambda env: -arg(env)
        return self.atom()

    def atom(self):
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind is None:
            raise ExprSyntaxError("unexpected end of input", self.offsets[pos])
        self.pos += 1
        if kind == "number":
            value = self._literal(pos)
            return lambda env: value
        if kind == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "ident":
            if text in self.variables:
                return lambda env: env[text]
            if text == "pi":
                return lambda env: np.pi
            if text in _FUNCS:
                self.expect("(", f"'(' after {text}")
                arg = self.expr()
                self.expect(")", "')'")
                func = _FUNCS[text]
                return lambda env: func(arg(env))
            if text == "piecewise":
                if len(self.variables) != 1:
                    raise ExprSyntaxError(
                        "piecewise is not allowed in two-variable expressions", self.offsets[pos]
                    )
                return self.piecewise()
            raise UnknownIdentifier(text, self.offsets[pos])
        raise ExprSyntaxError(f"unexpected {text!r}", self.offsets[pos])

    def piecewise(self):
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
        return _piecewise(segments)

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
    evaluate = parser.parse()
    # a numeric literal, possibly negated and parenthesized, is constant by construction
    constant = _literal_value(parser.kinds, parser.texts, 0, len(parser.kinds) - 1)
    return Expression(text, variables, evaluate, tuple(sorted(parser.breakpoints)), constant)


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
    neg = b < 0.0
    if np.any(neg & (e != np.floor(e))):
        raise DomainError("negative base with a non-integer exponent")
    if np.any(neg):
        b, e = np.broadcast_arrays(b, e)
        return _signed_power(b, e, neg, np.mod(e[neg], 2.0) == 1.0)
    return np.power(b, e)


def _signed_power(b, e, neg, odd):
    """Integer exponents on negative bases: route through the sign by hand."""
    out = np.empty_like(b)
    out[~neg] = np.power(b[~neg], e[~neg])
    mag = np.power(-b[neg], e[neg])
    out[neg] = np.where(odd, -mag, mag)
    return out


def _literal_power(base, e):
    """``base ^ e`` for a literal ``e``, whose tests are decided here; each
    call makes ``_power``'s ``np.power`` calls on the same operands."""
    exponent = np.asarray(e, dtype=float)
    negative, whole, odd = e < 0.0, e == math.floor(e), e % 2.0 == 1.0  # as np.floor, np.mod

    def evaluate(env):
        b = np.asarray(base(env), dtype=float)
        if negative and np.any(b == 0.0):
            raise DomainError("zero raised to a negative power")
        neg = b < 0.0
        if not np.any(neg):
            return np.power(b, exponent)
        if not whole:
            raise DomainError("negative base with a non-integer exponent")
        return _signed_power(b, np.broadcast_to(exponent, b.shape), neg, odd)

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

    def evaluate(env):
        t = np.asarray(env["t"], dtype=float)
        if np.any(t < lo) or np.any(t > hi):
            raise DomainError(f"point outside piecewise coverage [{lo!r},{hi!r}]")
        idx = np.searchsorted(bounds, t, side="right") - 1
        idx = np.minimum(idx, len(segments) - 1)  # t == hi belongs to the last segment
        tv = np.atleast_1d(t)
        iv = np.atleast_1d(idx)
        out = np.empty(tv.shape, dtype=float)
        for i, (_, _, body) in enumerate(segments):
            mask = iv == i
            if np.any(mask):
                out[mask] = np.asarray(body({"t": tv[mask]}), dtype=float)
        return out[0] if t.ndim == 0 else out

    return evaluate


# --- analysis helpers -------------------------------------------------------

_RANGE_SAMPLES = 4096


def _sampled(expr, parts):
    """``sample(i, j)``: ``expr`` on point sets ``i`` to ``j - 1`` (default ``i``) from one evaluation
    on all sets; if that raises, each request evaluates its own sets and gets their values or error."""
    try:
        values = expr(np.concatenate(parts)) if parts else None
    except PioError:
        return lambda i, j=None: expr(np.concatenate(parts[i : j or i + 1]))
    ends = [0, *itertools.accumulate(map(len, parts))]
    return lambda i, j=None: values[ends[i] : ends[j or i + 1]]


def _pieces(expr, interval):
    """The pieces of the interval between the expression's breakpoints."""
    lo, hi = interval
    cuts = [lo, *(b for b in expr.breakpoints if lo < b < hi), hi]
    return list(zip(cuts, cuts[1:]))


def _range_parts(expr, interval):
    """Per piece of a non-literal weight, the probe of the constancy test
    (``spectrum._piece_levels``) and the range samples."""
    if expr.constant is not None:
        return []
    pieces = _pieces(expr, interval)
    parts = []
    for pos, (plo, phi) in enumerate(pieces):
        ts = np.linspace(plo, phi, _RANGE_SAMPLES + 1)
        if pos < len(pieces) - 1:
            ts[-1] = np.nextafter(phi, plo)  # interior breakpoint owns the right side
        parts += [plo + (phi - plo) * (np.arange(257) + 0.5) / 257.0, ts]  # probe strictly inside
    return parts
