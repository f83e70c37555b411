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
"""

from __future__ import annotations

from dataclasses import dataclass
import re

import numpy as np

from .errors import DomainError, EmptyPiecewise, ExprSyntaxError, UnknownIdentifier

__all__ = [
    "Expression",
    "parse_expr",
    "parse_expr2",
    "constant_value",
]

_FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")

_TOKEN_RE = re.compile(
    r"""(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?   # number
      | [A-Za-z_][A-Za-z_0-9]*                 # identifier
      | [-+*/^()\[\],;:]                       # punctuation
    """,
    re.VERBOSE,
)


# --- syntax tree ------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class PiConst:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float
    body: object


@dataclass(frozen=True)
class Piecewise:
    segments: tuple


@dataclass(frozen=True)
class Expression:
    """A parsed expression together with its source and breakpoints.

    ``breakpoints`` are the piecewise segment boundaries that are interior
    to the segment tiling; smoothness may fail only there.
    """

    source: str
    variables: tuple
    ast: object
    breakpoints: tuple

    def __call__(self, *values):
        """Evaluate on numpy arrays (broadcasting applies)."""
        arrays = [np.asarray(v) for v in values]
        if len(arrays) != len(self.variables):
            raise DomainError(
                f"expression over {self.variables} called with {len(arrays)} arguments"
            )
        env = dict(zip(self.variables, arrays))
        with np.errstate(all="ignore"):  # overflow surfaces as the finite check below
            out = _eval(self.ast, env)
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
    def __init__(self, text, variables):
        self.text = text
        self.variables = variables
        self.tokens = _tokenize(text)
        self.pos = 0

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
            node = BinOp(tok.kind, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in ("*", "/"):
            self.next()
            node = BinOp(tok.kind, node, self.factor())
        return node

    def factor(self):
        node = self.unary()
        if (tok := self.peek()) is not None and tok.kind == "^":
            self.next()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self):
        if (tok := self.peek()) is not None and tok.kind == "-":
            self.next()
            return Neg(self.atom())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", self.offset())
        if tok.kind == "number":
            self.next()
            return Num(self._literal(tok))
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name in self.variables:
                return Var(name)
            if name == "pi":
                return PiConst()
            if name in _FUNCS:
                self.expect("(", f"'(' after {name}")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(name, arg)
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
        for prev, cur in zip(segments, segments[1:]):
            if cur.lo != prev.hi:
                raise ExprSyntaxError(
                    f"segment [{cur.lo!r},{cur.hi!r}] does not continue at {prev.hi!r}",
                    self.offset(),
                )
        return Piecewise(tuple(segments))

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
        return Segment(lo, hi, body)

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


def _collect_breakpoints(node, acc):
    if isinstance(node, Piecewise):
        for seg in node.segments[1:]:
            acc.add(seg.lo)
        for seg in node.segments:
            _collect_breakpoints(seg.body, acc)
    elif isinstance(node, Neg):
        _collect_breakpoints(node.arg, acc)
    elif isinstance(node, BinOp):
        _collect_breakpoints(node.left, acc)
        _collect_breakpoints(node.right, acc)
    elif isinstance(node, Call):
        _collect_breakpoints(node.arg, acc)


def parse_expr(text):
    """Parse a one-variable expression in ``t``."""
    return _parse(text, ("t",))


def parse_expr2(text):
    """Parse a two-variable expression in ``x`` and ``y`` (no piecewise)."""
    return _parse(text, ("x", "y"))


def _parse(text, variables):
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    ast = _Parser(text, variables).parse()
    bps = set()
    _collect_breakpoints(ast, bps)
    return Expression(text, variables, ast, tuple(sorted(bps)))


# --- evaluation -------------------------------------------------------------


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, PiConst):
        return np.pi
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        if node.func == "log":
            if np.any(np.asarray(arg) <= 0.0):
                raise DomainError("log of a non-positive value")
            return np.log(arg)
        if node.func == "sqrt":
            if np.any(np.asarray(arg) < 0.0):
                raise DomainError("sqrt of a negative value")
            return np.sqrt(arg)
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}[node.func](arg)
    if isinstance(node, BinOp):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(np.asarray(right) == 0.0):
                raise DomainError("division by zero")
            return left / right
        return _power(left, right)
    if isinstance(node, Piecewise):
        return _eval_piecewise(node, env)
    raise TypeError(f"unexpected node {node!r}")


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


def _eval_piecewise(node, env):
    t = np.asarray(env["t"], dtype=float)
    segs = node.segments
    lo, hi = segs[0].lo, segs[-1].hi
    if np.any(t < lo) or np.any(t > hi):
        raise DomainError(f"point outside piecewise coverage [{lo!r},{hi!r}]")
    bounds = np.array([s.lo for s in segs] + [hi])
    idx = np.searchsorted(bounds, t, side="right") - 1
    idx = np.minimum(idx, len(segs) - 1)  # t == hi belongs to the last segment
    scalar = t.ndim == 0
    tv = np.atleast_1d(t)
    iv = np.atleast_1d(idx)
    out = np.empty(tv.shape, dtype=float)
    for i, seg in enumerate(segs):
        mask = iv == i
        if not np.any(mask):
            continue
        sub = dict(env)
        sub["t"] = tv[mask]
        out[mask] = np.asarray(_eval(seg.body, sub), dtype=float)
    return out[0] if scalar else out


# --- analysis helpers -------------------------------------------------------


def constant_value(e, lo, hi):
    """Value of ``e`` on ``[lo, hi]`` if it is constant there, else ``None``.

    A literal is constant by construction; otherwise 257 samples strictly
    inside the interval must agree to within ``1e-12 * (1 + max|value|)``.
    """
    if isinstance(e.ast, Num):
        return e.ast.value
    if isinstance(e.ast, Neg) and isinstance(e.ast.arg, Num):
        return -e.ast.arg.value
    ts = lo + (hi - lo) * (np.arange(257) + 0.5) / 257.0
    vals = e(ts)
    spread = float(vals.max() - vals.min())
    if spread < 1e-12 * (1.0 + float(np.abs(vals).max())):
        return float(vals.mean())
    return None
