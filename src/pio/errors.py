"""Exception types shared by the whole package.

Every error raised on purpose by this package derives from :class:`PioError`,
so callers (and the command line front end) can tell deliberate refusals from
genuine bugs.  It also holds the two input rules, ``_numeric`` and ``_whole``, by which
every public entry point converts its numbers and indices once, so that one bad value
gets one refusal, in one wording, whatever function it is given to.
"""

import cmath
import numbers

import numpy as np

__all__ = [
    "PioError",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "EmptyPiecewise",
    "DomainError",
    "BadInterval",
    "BadBreakpoint",
    "GridMismatch",
    "IndexOutOfRange",
    "ModelFormatError",
    "InvalidModel",
    "SpectrumHit",
    "EigenvalueHit",
    "NotAnEigenvalue",
    "NoAtom",
    "ConvergenceFailure",
    "NonUniqueSolution",
    "OutsideTheory",
]


class PioError(Exception):
    """Base class for all deliberate errors of this package."""


class ExprSyntaxError(PioError):
    """Expression text does not match the grammar.

    Carries the byte offset of the offending character in ``offset``.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(PioError):
    """Identifier other than the declared variable, ``pi`` or a known function."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class EmptyPiecewise(PioError):
    """``piecewise`` with no segments."""


class DomainError(PioError):
    """A value or parameter is outside a function's domain or not finite."""


class BadInterval(PioError):
    """Interval endpoints are not finite reals with lo < hi."""


class BadBreakpoint(PioError):
    """Breakpoint does not lie strictly inside the target interval."""


class GridMismatch(PioError):
    """Grid function was built on different quadrature rules than expected."""


class IndexOutOfRange(PioError):
    """1-based channel member index outside the channel."""


class ModelFormatError(PioError):
    """Model description does not match the documented JSON layout."""


class InvalidModel(PioError):
    """Model fails ``validate_model``; ``report`` holds the ``ValidationReport``."""

    def __init__(self, report):
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"model failed validation: {failed}")
        self.report = report


class SpectrumHit(PioError):
    """Requested spectral parameter is inside (or too close to) the spectrum."""


class EigenvalueHit(PioError):
    """Requested resolvent point is a discrete eigenvalue of the full operator."""


class NotAnEigenvalue(PioError):
    """Requested point is not a discrete eigenvalue."""


class NoAtom(PioError):
    """Weight attains the requested value only on a null set."""


class ConvergenceFailure(PioError):
    """An iterative numerical routine did not converge."""


class NonUniqueSolution(PioError):
    """Second-kind equation is solvable at best up to a nontrivial kernel."""


class OutsideTheory(PioError):
    """Parameter combination is outside the supported theory."""


def _numeric(value, name, real=False, ndim=0, finite=True, error=DomainError):
    """The numeric rule: ``value`` as one Python ``float`` or ``complex`` (``ndim`` 0) or as a
    one-dimensional ``float64`` or ``complex128`` array (``ndim`` 1), else ``error`` naming ``name``.

    A number is a Python or numpy number or numeric array of that dimension, or another
    ``numbers.Complex`` such as ``Fraction``, taken as its nearest float or complex; a string,
    ``None``, a ``Decimal``, a boolean and an array of booleans, strings or objects are not.  It
    must be real if ``real`` (``+0j`` and a complex array are complex), finite unless ``finite``
    is false, and within the range of a double: ``10**400``, ``Fraction(10**400)`` and
    ``np.longdouble("1e4000")`` are refused, not rounded to infinity; a numpy number is computed
    in double from its value.
    Python floats, ints and complex numbers take a fast path, since every operator call runs it.
    """
    try:
        if ndim == 0 and type(value) in (float, int, complex):
            number = float(value) if type(value) is int else value
        else:
            if isinstance(value, numbers.Complex) and not isinstance(value, (bool, np.generic)):
                value = float(value) if isinstance(value, numbers.Real) else complex(value)
            try:
                array = np.asarray(value)
            except ValueError:  # a ragged nesting of sequences, not a number either
                array = np.asarray(None)
            if array.dtype.kind not in "iufc":
                raise error(f"{name} must be a number, got {value!r}")
            if array.ndim != ndim:
                raise error(f"{name} must be {'a one-dimensional array' if ndim else 'one number'}, "
                            f"got shape {array.shape}")
            double = array
            if array.dtype.char not in "dD":  # not float64 or complex128: convert
                with np.errstate(over="ignore"):
                    double = array.astype(np.complex128 if array.dtype.kind == "c" else np.float64)
            ok = np.isfinite(double)
            if np.count_nonzero(ok) < ok.size:
                first = ok.argmin()  # the first value that is not finite
                if np.isfinite(array.reshape(-1)[first]):
                    raise OverflowError  # a long double beyond double range became inf
                if ndim and finite:
                    raise error(f"{name} {double[first].item()!r} is not finite")
            if ndim:
                if real and double.dtype.kind == "c":
                    raise error(f"{name} must be real, got a complex array")
                return double
            number = double.item()
    except OverflowError:
        raise error(f"{name} is beyond the range of a double") from None
    if finite and not cmath.isfinite(number):
        raise error(f"{name} {number!r} is not finite")
    if real and type(number) is complex:
        raise error(f"{name} {number!r} is not real")
    return number


def _whole(value, name, lo=1, hi=2**63 - 1, error=PioError):
    """The whole rule: ``value`` as a Python ``int`` in ``lo..hi``, else ``error`` naming ``name``.
    A whole number is one real number by the numeric rule with no fractional part, so a
    whole-valued float such as ``3.0`` is taken and a boolean is not."""
    if type(value) is int and lo <= value <= hi:
        return value
    number = _numeric(value, name, real=True, error=error)
    if not number.is_integer():
        raise error(f"{name} must be a whole number, got {number!r}")
    if not lo <= number <= hi:
        bound = f">= {lo}" if number < lo else f"<= {hi}"
        raise error(f"{name} must be {bound}, got {int(number) if abs(number) < 2**53 else number}")
    return int(number)
