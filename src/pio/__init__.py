"""Spectral toolkit for self-adjoint partial integral operators.

The operator acts on square-integrable functions on a rectangle as a sum of
two channels, each integrating over one variable against a finite
orthonormal basis and reweighting along the other.  The package computes
the full spectrum (essential part from the weight ranges, discrete part
from a finite determinant), eigenfunctions, resolvents, and solutions of
the associated second-kind equation, plus a brute-force discretization
oracle to check all of it.
"""

from .errors import (
    BadBreakpoint,
    BadInterval,
    ConvergenceFailure,
    DomainError,
    EigenvalueHit,
    EmptyPiecewise,
    ExprSyntaxError,
    GridMismatch,
    IndexOutOfRange,
    ModelFormatError,
    NoAtom,
    NonUniqueSolution,
    NotAnEigenvalue,
    OutsideTheory,
    PioError,
    SpectrumHit,
    UnknownIdentifier,
)
from .expr import Expression, eval_expr, format_expr, parse_expr, parse_expr2
from .quadrature import Grid2D, QuadRule1D, build_rule, gauss_legendre, integrate_1d, integrate_2d
from .model import (
    Channel,
    CheckResult,
    PIOModel,
    SearchSettings,
    ValidationReport,
    eval_kernel,
    load_model_file,
    make_model,
    model_from_dict,
    validate_model,
)
from .spectrum import (
    EssRange,
    PiMatrix,
    SpectralSet,
    SpectrumReport,
    atom_eigenfunction,
    delta,
    delta_batch,
    delta_trace_rows,
    discrete_spectrum,
    eigenfunctions_T,
    essential_range,
    pi_matrix,
    sigma_channel,
    sigma_ess,
    sigma_full,
)
from .operators import (
    apply_partial,
    apply_S,
    apply_T,
    apply_W,
    project,
    resolvent_channel,
    resolvent_T,
)
from .pie import TauClass, classify_tau, residual, solve_pie
from .oracle import (
    ComparisonReport,
    NystromSystem,
    compare_spectra,
    nystrom_matrix,
    oracle_eigs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PioError", "ExprSyntaxError", "UnknownIdentifier", "EmptyPiecewise",
    "DomainError", "BadInterval", "BadBreakpoint", "GridMismatch",
    "IndexOutOfRange", "ModelFormatError", "SpectrumHit", "EigenvalueHit",
    "NotAnEigenvalue", "NoAtom", "ConvergenceFailure", "NonUniqueSolution",
    "OutsideTheory",
    # expressions
    "Expression", "parse_expr", "parse_expr2", "eval_expr", "format_expr",
    # quadrature
    "QuadRule1D", "Grid2D", "gauss_legendre", "build_rule", "integrate_1d",
    "integrate_2d",
    # model
    "Channel", "PIOModel", "SearchSettings", "CheckResult", "ValidationReport",
    "make_model", "model_from_dict", "load_model_file", "validate_model",
    "eval_kernel",
    # spectrum
    "EssRange", "SpectralSet", "PiMatrix", "SpectrumReport", "essential_range",
    "sigma_channel", "sigma_ess", "pi_matrix", "delta", "delta_batch",
    "discrete_spectrum", "sigma_full", "eigenfunctions_T", "atom_eigenfunction",
    "delta_trace_rows",
    # operators
    "apply_partial", "apply_T", "project", "resolvent_channel", "apply_S",
    "apply_W", "resolvent_T",
    # second-kind equation
    "TauClass", "classify_tau", "solve_pie", "residual",
    # oracle
    "NystromSystem", "nystrom_matrix", "oracle_eigs", "ComparisonReport",
    "compare_spectra",
]
