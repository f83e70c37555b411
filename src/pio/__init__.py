"""Spectral toolkit for self-adjoint partial integral operators.

The operator acts on square-integrable functions on a rectangle as a sum of
two channels, each integrating over one variable against a finite
orthonormal basis and reweighting along the other.  The package computes
the full spectrum (essential part from the weight ranges, discrete part
from a finite determinant), eigenfunctions, resolvents, and solutions of
the associated second-kind equation, plus a brute-force discretization
oracle to check all of it.

Each module's ``__all__`` is the one declaration of what it makes public;
the package exports exactly those names.  Modules load on first use: ``import
pio`` loads none of them, ``pio.<name>`` imports the modules in the order below
until one declares ``name``, and reading ``pio.__all__`` (as ``from pio import
*`` does) imports them all.  So a ``pio`` command compiles and runs only the
modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("errors", "expr", "quadrature", "model", "spectrum", "operators", "pie", "oracle")


def _module(name):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        global __all__
        __all__ = ["__version__", *(item for module in _MODULES for item in _module(module).__all__)]
        return __all__
    for module in map(_module, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    exported = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *_MODULES, *exported})
