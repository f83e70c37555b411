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
segments are checked to continue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import operator
import re

import numpy as np

from .errors import DomainError, EmptyPiecewise, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "Expression",
    "parse_expr",
    "parse_expr2",
    "constant_value",
]

_TOKEN_RE = re.compile(
    r"""(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?   # number
      | [A-Za-z_][A-Za-z_0-9]*                 # identifier
      | [-+*/^()\[\],;:]                       # punctuation
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


class _Token:
    __slots__ = ("text", "offset", "kind")

    def __init__(self, text, offset):
        self.text = text
        self.offset = offset
        if text[0].isdigit() or text[0] == ".":
            self.kind = "number"
        elif text[0].isalpha() or text[0] == "_":
            self.kind = "ident"
        else:
            self.kind = text


def _tokenize(text):
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ExprSyntaxError("non-ASCII character", bad)
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append(_Token(m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent; each production returns a function of the environment."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.pos = 0
        self.breakpoints = set()

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", self.offset())
        return self.next()

    def offset(self):
        tok = self.peek()
        return tok.offset if tok is not None else len(self.text)

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExprSyntaxError("unexpected trailing input", self.offset())
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in ("+", "-"):
            self.next()
            node = _binary(tok.kind, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in ("*", "/"):
            self.next()
            node = _binary(tok.kind, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if (tok := self.peek()) is not None and tok.kind == "^":
            self.next()
            node = _binary("^", node, self.factor())
        return node

    def unary(self):
        if (tok := self.peek()) is not None and tok.kind == "-":
            self.next()
            arg = self.atom()
            return lambda env: -arg(env)
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", self.offset())
        if tok.kind == "number":
            self.next()
            value = self._literal(tok)
            return lambda env: value
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name in self.variables:
                return lambda env: env[name]
            if name == "pi":
                return lambda env: np.pi
            if name in _FUNCS:
                self.expect("(", f"'(' after {name}")
                arg = self.expr()
                self.expect(")", "')'")
                func = _FUNCS[name]
                return lambda env: func(arg(env))
            if name == "piecewise":
                if len(self.variables) != 1:
                    raise ExprSyntaxError(
                        "piecewise is not allowed in two-variable expressions",
                        tok.offset,
                    )
                return self.piecewise()
            raise UnknownIdentifier(name, tok.offset)
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.offset)

    def piecewise(self):
        self.expect("(", "'(' after piecewise")
        if (tok := self.peek()) is not None and tok.kind == ")":
            raise EmptyPiecewise("piecewise needs at least one segment")
        segments = [self.segment()]
        while (tok := self.peek()) is not None and tok.kind == ";":
            self.next()
            segments.append(self.segment())
        self.expect(")", "')' or ';'")
        for (_, prev_hi, _), (lo, hi, _) in zip(segments, segments[1:]):
            if lo != prev_hi:
                raise ExprSyntaxError(
                    f"segment [{lo!r},{hi!r}] does not continue at {prev_hi!r}",
                    self.offset(),
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
            raise ExprSyntaxError(f"segment bounds [{lo!r},{hi!r}] are not increasing", self.offset())
        return lo, hi, body

    def _signed_number(self):
        sign = 1.0
        if (tok := self.peek()) is not None and tok.kind == "-":
            self.next()
            sign = -1.0
        tok = self.expect("number", "a numeric segment bound")
        return sign * self._literal(tok)

    def _literal(self, tok):
        value = float(tok.text)
        if not np.isfinite(value):
            raise ExprSyntaxError("numeric literal overflows", tok.offset)
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
    core = [tok for tok in parser.tokens if tok.kind not in ("(", ")")]
    constant = None
    if [tok.kind for tok in core] in (["number"], ["-", "number"]):
        value = float(core[-1].text)
        constant = -value if len(core) == 2 else value
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
        out = np.empty_like(b)
        out[~neg] = np.power(b[~neg], e[~neg])
        # integer exponents on negative bases: route through the sign by hand
        odd = np.mod(e[neg], 2.0) == 1.0
        mag = np.power(-b[neg], e[neg])
        out[neg] = np.where(odd, -mag, mag)
        return out
    return np.power(b, e)


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


def constant_value(e, lo, hi):
    """Value of ``e`` on ``[lo, hi]`` if it is constant there, else ``None``.

    A literal (``e.constant``) is constant by construction; otherwise 257
    samples strictly inside the interval must agree to within
    ``1e-12 * (1 + max|value|)``.
    """
    if e.constant is not None:
        return e.constant
    ts = lo + (hi - lo) * (np.arange(257) + 0.5) / 257.0
    vals = e(ts)
    spread = float(vals.max() - vals.min())
    if spread < 1e-12 * (1.0 + float(np.abs(vals).max())):
        return float(vals.mean())
    return None
