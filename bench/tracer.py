"""In-memory spans around the library's public functions.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every ``pio`` module that holds it by name (for example both
``pio.operators.apply_S`` and ``pio.pie.apply_S``), and the lazily sampled
arrays of ``PIOModel`` with timed cached properties.  ``uninstall()`` puts every
original back; a tracer can be installed and uninstalled many times.  Spans
stay in memory until the run ends, when the runner writes them out.

A span is ``[name, start, end, parent, op, info]``: ``parent`` indexes the
enclosing span (or -1), ``op`` is the operation id the runner set, and
``info`` holds counts taken at the boundary (lambdas per determinant batch,
roots found, whether a call raised).
"""

from __future__ import annotations

import functools
import sys
import time

NAME, START, END, PARENT, OP, INFO = range(6)


def _lams(args, kwargs):
    lams = kwargs.get("lams", args[1] if len(args) > 1 else ())
    return len(lams)


# (home module, function name, span name, label-and-info hook or None)
TARGETS = [
    ("pio.model", "model_from_dict", "model.build", None),
    ("pio.model", "parse_expr", "expr.parse", None),
    ("pio.model", "build_rule", "quadrature.build_rule", None),
    ("pio.model", "validate_model", "model.validate", None),
    ("pio.spectrum", "sigma_full", "spectrum.sigma_full", None),
    ("pio.spectrum", "discrete_spectrum", "spectrum.discrete_spectrum", "roots"),
    ("pio.spectrum", "delta_batch", "spectrum.delta_batch", "lams"),
    ("pio.spectrum", "sigma_ess", "spectrum.sigma_ess", None),
    ("pio.spectrum", "eigenfunctions_T", "spectrum.eigenfunctions_T", None),
    ("pio.operators", "apply_S", "operators.apply_S", None),
    ("pio.operators", "resolvent_T", "operators.resolvent_T", None),
    ("pio.pie", "classify_tau", "pie.classify_tau", None),
    ("pio.pie", "solve_pie", "pie.solve_pie", None),
    ("pio.oracle", "nystrom_matrix", "oracle.nystrom_matrix", None),
    ("pio.oracle", "oracle_eigs", "oracle.oracle_eigs", "eig_path"),
    ("pio.oracle", "compare_spectra", "oracle.compare_spectra", None),
    ("pio.cli", "main", "cli.main", None),
]
SAMPLED = ("phi_x", "h_y", "psi_y", "p_x", "bound")


class Tracer:
    """Collects spans; ``callers`` are extra modules that import traced names."""

    def __init__(self, callers=()):
        self.callers = list(callers)
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    # --- recording ---------------------------------------------------------

    def _open(self, name, info):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, info])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = {}
            label = name
            if hook == "lams":
                info["lams"] = _lams(args, kwargs)
                label = f"{name}.{'single' if info['lams'] == 1 else 'scan'}"
            span = self._open(label, info)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["raised"] = type(exc).__name__
                self._close(span)
                raise
            self._close(span)
            if hook == "roots":
                info["roots"] = len(result)
            elif hook == "eig_path":
                system = args[0] if args else kwargs["sys"]
                # the dense path materializes the cached ``matrix`` property
                dense = "matrix" in vars(system)
                span[NAME] = f"{name}.{'dense' if dense else 'compressed'}"
                # size of the span matrix the compressed path factors
                cols = system.a.shape[0] * system.ny + system.b.shape[0] * system.nx
                info["span_mb"] = 8 * system.size * cols / 1e6
            return result

        return traced

    # --- installation ------------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pio" or key.startswith("pio."))]
        modules += self.callers
        for home, attr, name, hook in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        from pio.model import PIOModel

        for attr in SAMPLED:
            original = PIOModel.__dict__[attr]
            timed = functools.cached_property(self._wrap(original.func, "model.sample", None))
            timed.__set_name__(PIOModel, attr)
            setattr(PIOModel, attr, timed)
            self._undo.append((PIOModel, attr, original))
        return self

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
