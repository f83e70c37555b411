"""The four benchmark workloads.

Each workload is a single-client closed loop: the runner asks for a round of
operations, times ``run(op)`` for each one in turn and checks the output
with ``check(op, out)`` after the timer has stopped.  A round holds every
case of the workload once, in an order drawn from the seed, so whole rounds
always have the same mix.  Inputs that vary (right-hand sides, ``tau``,
``lambda``, windows) are drawn from the seeded generator when a round is
made, never inside the timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

import pio.cli
from pio.errors import NonUniqueSolution
from pio.model import model_from_dict, validate_model
from pio.operators import resolvent_T
from pio.oracle import compare_spectra, nystrom_matrix, oracle_eigs
from pio.pie import solve_pie
from pio.spectrum import eigenfunctions_T, sigma_full

import cases as C

SOLVE_RTOL = 1e-9  # relative residual of solve_pie / resolvent_T outputs
EIGEN_RTOL = 1e-7  # ||T f - lam f|| of a unit eigenfunction
ORACLE_TOL = 5e-3  # tol_disc = tol_ess, the CLI defaults
CHILD_TIMEOUT_S = 60.0


@dataclass
class Op:
    label: str
    case: C.Case
    kind: str = ""
    args: dict = field(default_factory=dict)


def _off_spectrum(rng, case):
    """A lambda at least 0.3 away from every reference spectral value."""
    top = max([0.0, *case.ess_points, *(hi for _, hi in case.ess_intervals), *case.eigenvalues])
    if rng.random() < 0.5:
        return float(rng.uniform(-1.5, -0.3))
    return float(rng.uniform(top + 0.3, top + 1.5))


def _rhs(rng):
    """Coefficients and numpy form of a smooth right-hand side in x and y."""
    c = [float(v) for v in rng.uniform(-1.0, 1.0, size=6)]

    def g(x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * np.sin(3 * x) + c[5] * y * y

    text = (f"({c[0]!r}) + ({c[1]!r})*x + ({c[2]!r})*y + ({c[3]!r})*x*y"
            f" + ({c[4]!r})*sin(3*x) + ({c[5]!r})*y^2")
    return g, text


class Workload:
    name = ""
    speed_kernel = "compute"  # the ``speed.KERNELS`` entry that probes machine speed
    # and the entries that scale set-up: it starts an interpreter and imports,
    # and only the oracle's set-up also computes for most of its time
    setup_kernels = ("start",)

    def __init__(self, root, rng):
        self.root = root
        self.rng = rng
        self.refs = C.load_refs()

    def setup(self):
        """Build what every operation shares; runs again for a traced phase."""

    def ops(self):
        """All operations of one round, before shuffling."""
        raise NotImplementedError

    def round(self):
        ops = self.ops()
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def warmup(self):
        return self.ops()[:2]

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


# --- spectrum ----------------------------------------------------------------


class Spectrum(Workload):
    """Fresh model from its JSON dict, then ``sigma_full``."""

    name = "spectrum"

    def setup(self):
        self.cases = [
            *(C.fixture(self.root, w) for w in "abc"),
            C.sumrule(2), C.sumrule(4),
            *(C.ramp(n, refs=self.refs) for n in (1, 2, 4, 8)),
            C.coarse4(self.refs),
        ]

    def ops(self):
        return [Op(c.name, c) for c in self.cases]

    def run(self, op):
        return sigma_full(model_from_dict(op.case.data))

    def check(self, op, report):
        if isinstance(report, Exception):
            return "fail"
        ess = report.essential
        if not C.essential_matches(op.case, ess.intervals, ess.points):
            return "fail"
        return C.match_eigenvalues(op.case, report.discrete)


# --- solve -------------------------------------------------------------------


class Solve(Workload):
    """Warm one-lambda calls on six models built in set-up."""

    name = "solve"
    KINDS = ("regular", "eigen", "resolvent", "eigenfunction")

    def setup(self):
        self.cases = [
            C.fixture(self.root, "a"), C.fixture(self.root, "b"),
            C.ramp(2, refs=self.refs), C.ramp(4, refs=self.refs),
            C.ramp(4, order=64, refs=self.refs), C.ramp(8, refs=self.refs),
        ]
        self.models, self.grids = {}, {}
        for case in self.cases:
            model = model_from_dict(case.data)
            if not validate_model(model).ok:
                raise RuntimeError(f"{case.name} fails validation")
            check = C.GridCheck(case)
            if not check.same_nodes(model.rule_x.nodes, model.rule_y.nodes):
                raise RuntimeError(f"{case.name}: model grid is not the Gauss grid")
            self.models[case.name], self.grids[case.name] = model, check

    def ops(self):
        out = []
        for case in self.cases:
            model = self.models[case.name]
            for kind in self.KINDS:
                args = {}
                if kind != "eigenfunction":
                    args["g"] = model.grid(_rhs(self.rng)[0])
                if kind in ("regular", "resolvent"):
                    args["lam"] = _off_spectrum(self.rng, case)
                else:
                    args["lam"] = float(self.rng.choice(case.eigenvalues))
                out.append(Op(f"{kind}.{case.name}", case, kind, args))
        return out

    def warmup(self):
        return self.ops()[:4]

    def run(self, op):
        model, lam = self.models[op.case.name], op.args["lam"]
        if op.kind in ("regular", "eigen"):
            return solve_pie(model, 1.0 / lam, op.args["g"])
        if op.kind == "resolvent":
            return resolvent_T(model, lam, op.args["g"])
        return eigenfunctions_T(model, lam)

    def check(self, op, out):
        grid, lam = self.grids[op.case.name], op.args["lam"]
        if op.kind == "eigen":
            return "pass" if isinstance(out, NonUniqueSolution) else "fail"
        if isinstance(out, Exception):
            return "fail"
        if op.kind == "eigenfunction":
            return "pass" if len(out) == 1 and _is_eigenfunction(grid, out[0].values, lam) else "fail"
        f, g = out.values, op.args["g"].values
        if op.kind == "regular":
            resid = f - grid.apply(f) / lam - g
        else:
            resid = grid.apply(f) - lam * f - g
        return "pass" if grid.norm(resid) <= SOLVE_RTOL * grid.norm(g) else "fail"


def _is_eigenfunction(grid, f, lam):
    norm = grid.norm(f)
    return abs(norm - 1.0) <= 1e-9 and grid.norm(grid.apply(f) - lam * f) <= EIGEN_RTOL


# --- oracle ------------------------------------------------------------------


class Oracle(Workload):
    """``nystrom_matrix`` -> ``oracle_eigs`` -> ``compare_spectra``."""

    name = "oracle"
    speed_kernel = "linalg"
    setup_kernels = ("start", "linalg")
    GRIDS = (40, 60, 80)

    def setup(self):
        self.cases = [
            *(C.fixture(self.root, w) for w in "abc"),
            C.ramp(2, refs=self.refs), C.ramp(4, refs=self.refs),
        ]
        self.models, self.reports = {}, {}
        for case in self.cases:
            model = model_from_dict(case.data)
            if not validate_model(model).ok:
                raise RuntimeError(f"{case.name} fails validation")
            self.models[case.name] = model
            self.reports[case.name] = sigma_full(model)

    def ops(self):
        return [Op(f"{c.name}.N{n}", c, args={"N": n}) for c in self.cases for n in self.GRIDS]

    def warmup(self):
        return [op for op in self.ops() if op.case.name == "fixture-a"][:2]

    def run(self, op):
        n = op.args["N"]
        eigs = oracle_eigs(nystrom_matrix(self.models[op.case.name], n, n))
        return eigs, compare_spectra(self.reports[op.case.name], eigs, ORACLE_TOL, ORACLE_TOL)

    def check(self, op, out):
        if isinstance(out, Exception):
            return "fail"
        eigs, cmp = out
        report = self.reports[op.case.name]
        ok = (cmp.ok and C.match_eigenvalues(op.case, report.discrete) == "pass"
              and len(eigs) == op.args["N"] ** 2
              and C.oracle_matches(op.case, eigs, ORACLE_TOL))
        return "pass" if ok else "fail"


# --- cli ---------------------------------------------------------------------


class Cli(Workload):
    """One fresh ``python -m pio.cli`` process per operation.

    With ``inprocess`` set (the traced run), ``pio.cli.main(argv)`` is called
    in this process instead, with stdout and stderr captured.
    """

    name = "cli"
    speed_kernel = "start"
    inprocess = False
    PLAN = (  # (subcommand, model) pairs of one round
        ("validate", "fixture-c"), ("validate", "ramp-4"),
        ("spectrum", "fixture-b"), ("spectrum", "ramp-4"),
        ("discrete", "fixture-c"), ("discrete", "ramp-2"),
        ("solve", "fixture-a"), ("solve", "ramp-2"), ("solve-eigen", "fixture-a"),
        ("delta-trace", "fixture-a"), ("delta-trace", "ramp-2"),
        ("eigenfunction", "fixture-b"), ("eigenfunction", "ramp-2"),
        ("oracle-check", "fixture-a"), ("oracle-check", "ramp-2"),
    )
    TRACE_SAMPLES = 200

    def setup(self):
        self.workdir = getattr(self, "workdir", None) or tempfile.mkdtemp(
            prefix="cli-", dir=os.path.join(self.root, ".bench_work"))
        self.cases, self.files = {}, {}
        for w in "abc":
            case = C.fixture(self.root, w)
            self.cases[case.name] = case
            self.files[case.name] = os.path.join(self.root, "models", f"fixture_{w}.json")
        for n in (2, 4):
            case = C.ramp(n, refs=self.refs)
            path = os.path.join(self.workdir, f"ramp_{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case.data, fh)
            self.cases[case.name], self.files[case.name] = case, path
        self.grids = {name: C.GridCheck(self.cases[name])
                      for name in ("fixture-a", "fixture-b", "ramp-2")}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.max_child_rss_mb = 0.0

    def ops(self):
        out = []
        for sub, name in self.PLAN:
            case = self.cases[name]
            argv = [sub, "--model", self.files[name]]
            args = {}
            if sub == "solve":
                fn, text = _rhs(self.rng)
                args["g"], args["tau"] = fn, 1.0 / _off_spectrum(self.rng, case)
                argv += ["--tau", repr(args["tau"]), "--rhs", text]
            elif sub == "solve-eigen":
                argv = ["solve", "--model", self.files[name],
                        "--tau", repr(1.0 / float(self.rng.choice(case.eigenvalues))), "--rhs", "1"]
            elif sub == "delta-trace":
                lo, hi = min(case.eigenvalues), max(case.eigenvalues)
                top = max([*case.ess_points, *(b for _, b in case.ess_intervals)])
                args["lmin"] = float(self.rng.uniform(top + 0.1, lo - 0.2))
                args["lmax"] = float(self.rng.uniform(hi + 0.2, hi + 1.5))
                argv += ["--lmin", repr(args["lmin"]), "--lmax", repr(args["lmax"]),
                         "--samples", str(self.TRACE_SAMPLES)]
            elif sub == "eigenfunction":
                args["lam"] = float(self.rng.choice(case.eigenvalues))
                argv += ["--lambda", repr(args["lam"])]
            out.append(Op(f"{sub}.{name}", case, sub, {**args, "argv": argv}))
        return out

    def warmup(self):
        return self.ops()[:1]

    def run(self, op):
        return self._inprocess(op) if self.inprocess else self._child(op)

    def _inprocess(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pio.cli.main(op.args["argv"])
        return code, out.getvalue(), err.getvalue()

    def _child(self, op):
        cmd = [sys.executable, "-m", "pio.cli", *op.args["argv"]]
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_child_rss_mb = max(self.max_child_rss_mb, usage.ru_maxrss / 1024.0)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode()

    def peak_rss_mb(self):
        return self.max_child_rss_mb

    def close(self):
        if getattr(self, "workdir", None):
            shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, op, out):
        if isinstance(out, Exception):
            return "fail"
        code, stdout, stderr = out
        try:
            ok = getattr(self, "_check_" + op.kind.replace("-", "_"))(op, code, stdout, stderr)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        return "pass" if ok else "fail"

    def _check_validate(self, op, code, stdout, stderr):
        return code == 0 and json.loads(stdout)["ok"] is True

    def _check_spectrum(self, op, code, stdout, stderr):
        report = json.loads(stdout)
        ess = report["essential"]
        return (code == 0 and C.essential_matches(op.case, ess["intervals"], ess["points"])
                and C.match_eigenvalues(op.case, report["discrete"]) == "pass")

    def _check_discrete(self, op, code, stdout, stderr):
        return code == 0 and C.match_eigenvalues(op.case, json.loads(stdout)) == "pass"

    def _grid_values(self, op, stdout, columns):
        grid = self.grids[op.case.name]
        rows = np.loadtxt(io.StringIO(stdout), delimiter=",", skiprows=1, ndmin=2)
        size = len(grid.nodes)
        if rows.shape != (size * size, 2 + columns):
            raise ValueError("unexpected CSV shape")
        if not grid.same_nodes(rows[::size, 0], rows[:size, 1]):
            raise ValueError("CSV nodes are not the Gauss grid")
        return grid, [rows[:, 2 + k].reshape(size, size) for k in range(columns)]

    def _check_solve(self, op, code, stdout, stderr):
        if code != 0 or json.loads(stderr)["residual"] > SOLVE_RTOL:
            return False
        grid, (f,) = self._grid_values(op, stdout, 1)
        g = grid.grid(op.args["g"])
        resid = f - op.args["tau"] * grid.apply(f) - g
        return grid.norm(resid) <= SOLVE_RTOL * grid.norm(g)

    def _check_solve_eigen(self, op, code, stdout, stderr):
        return code == 3 and "NonUniqueSolution" in stderr and not stdout

    def _check_delta_trace(self, op, code, stdout, stderr):
        rows = np.loadtxt(io.StringIO(stdout), delimiter=",", skiprows=1, ndmin=2)
        if code != 0 or rows.shape != (self.TRACE_SAMPLES, 4) or not np.isfinite(rows).all():
            return False
        lam, re = rows[:, 0], rows[:, 1]
        inside = [e for e in op.case.eigenvalues if op.args["lmin"] < e < op.args["lmax"]]
        if int(np.sum(np.sign(re[1:]) != np.sign(re[:-1]))) != len(inside):
            return False
        if op.case.name == "fixture-a":
            closed = lam**2 * (5.0 - lam) / ((lam - 2.0) * (lam - 3.0))
            return bool(np.all(np.abs(re - closed) <= 1e-9 * (1.0 + np.abs(closed))))
        return True

    def _check_eigenfunction(self, op, code, stdout, stderr):
        if code != 0 or stdout.splitlines()[0] != "x,y,f1":
            return False
        grid, (f,) = self._grid_values(op, stdout, 1)
        return _is_eigenfunction(grid, f, op.args["lam"])

    def _check_oracle_check(self, op, code, stdout, stderr):
        payload = json.loads(stdout)
        return (code == 0 and payload["ok"] is True and not payload["mismatches"]
                and C.oracle_matches(op.case, payload["eigs_head"], ORACLE_TOL))


WORKLOADS = {w.name: w for w in (Spectrum, Solve, Oracle, Cli)}
