"""Spectral toolkit for self-adjoint partial integral operators.

The operator acts on square-integrable functions on a rectangle as a sum of
two channels, each integrating over one variable against a finite
orthonormal basis and reweighting along the other.  The package computes
the full spectrum (essential part from the weight ranges, discrete part
from a finite determinant), eigenfunctions, resolvents, and solutions of
the associated second-kind equation, plus a brute-force discretization
oracle to check all of it.

Each module's ``__all__`` is the one declaration of what it makes public;
the package exports exactly those names.
"""

from . import errors, expr, quadrature, model, spectrum, operators, pie, oracle
from .errors import *  # noqa: F403
from .expr import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .model import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .operators import *  # noqa: F403
from .pie import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for module in (errors, expr, quadrature, model, spectrum, operators, pie, oracle)
                            for name in module.__all__)]
