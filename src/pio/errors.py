"""Exception types shared by the whole package.

Every error raised on purpose by this package derives from :class:`PioError`,
so callers (and the command line front end) can tell deliberate refusals from
genuine bugs.
"""

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
