"""Benchmark of the pio-spectral pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``spectrum``, ``solve``,
``oracle`` and ``cli``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs each round once untraced and once
traced, reports the per-layer metrics, including the tracing overhead, and
writes the spans to ``.bench_work/``.  Every output is checked against an
independent reference after its timer stops.  End-to-end times are scaled
to a reference machine speed (``speed.py``); the unscaled ones are printed
too.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7  # fresh processes timed for setup_s
CLI_START_REPEATS = 5  # fresh processes timed for cli.interp_ms and cli.import_ms

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_share", "1"),
]
SCALED = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")  # by machine speed
ORACLE_LABELS = [f"{m}.N{n}" for m in ("fixture-a", "fixture-b", "fixture-c", "ramp-2", "ramp-4")
                 for n in (40, 60, 80)]
PER_LAYER = [
    ("model.build_ms", "ms"),
    ("model.sample_ms", "ms"),
    ("model.validate_ms", "ms"),
    ("expr.parse_ms", "ms"),
    ("quadrature.build_rule_ms", "ms"),
    ("spectrum.delta_batch.calls", "count/op"),
    ("spectrum.delta_batch.lams", "count/op"),
    ("spectrum.delta_batch.single_ms", "ms"),
    ("spectrum.delta_batch.scan_ms", "ms"),
    ("spectrum.discrete_spectrum.self_ms", "ms"),
    ("spectrum.sigma_ess_ms", "ms"),
    ("spectrum.lams_per_root", "count"),
    ("spectrum.eigenfunctions_T_ms", "ms"),
    ("pie.classify_tau_ms", "ms"),
    ("pie.solve_pie.self_ms", "ms"),
    ("pie.refusals", "count/op"),
    ("operators.apply_S.calls", "count/op"),
    ("operators.apply_S_ms", "ms"),
    ("operators.resolvent_T_ms", "ms"),
    ("oracle.nystrom_matrix_ms", "ms"),
    ("oracle.oracle_eigs.dense_ms", "ms"),
    ("oracle.oracle_eigs.compressed_ms", "ms"),
    *((f"oracle.oracle_eigs_ms.{label}", "ms") for label in ORACLE_LABELS),
    ("oracle.compare_spectra_ms", "ms"),
    ("oracle.span_mb", "MB_computed"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectrum", "solve", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, print READY and exit (times setup_s)")
    return parser.parse_args(argv)


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def git_sha():
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# --- running ---------------------------------------------------------------


class Recorder:
    """Latencies and check outcomes of the operations of one loop.

    With a ``Speed`` the machine speed is probed between operations, so the
    latencies can be scaled to the kernel's reference speed afterwards.
    """

    def __init__(self, speed=None):
        self.speed = speed
        self.labels = []
        self.starts = []
        self.latencies_ms = []
        self.outcomes = []
        self.first_failure = None

    def round(self, wl, ops, tracer=None, labels=None):
        for op in ops:
            if tracer is not None:
                tracer.op = len(labels)
                labels.append(op)
            if self.speed is not None:
                self.speed.due()
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # checked below like any output
                out = exc
            self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            self.starts.append(t0)
            self.labels.append(op.label)
            self.outcomes.append(wl.check(op, out))
            if self.outcomes[-1] == "fail" and self.first_failure is None:
                self.first_failure = f"{op.label}: {out!r:.300}"

    def scaled_ms(self):
        return [ms * self.speed.scale(t) for ms, t in zip(self.latencies_ms, self.starts)]


def loop(seconds, one_round, between=None):
    """Whole rounds until ``seconds`` have passed, not counting ``between(elapsed)``."""
    start = time.perf_counter()
    paused = 0.0
    while True:
        one_round()
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds:
            return
        if between is not None:
            t0 = time.perf_counter()
            between(elapsed)
            paused += time.perf_counter() - t0


def warm_up(wl):
    """Untimed operations after set-up; returns their check outcomes."""
    outcomes = []
    for op in wl.warmup():
        try:
            out = wl.run(op)
        except Exception as exc:
            out = exc
        outcomes.append(wl.check(op, out))
    return outcomes


class SetupTimer:
    """Seconds from spawning a fresh process to its READY line.

    The ``SETUP_REPEATS`` processes are spread evenly over the measured loop,
    so they see the same mix of machine states as the operations do.  Each
    is scaled by the kernels in ``kernels`` (see ``Workload.setup_kernels``),
    each timed just before and just after it; with two kernels, by the
    geometric mean of their factors.
    """

    def __init__(self, args, kernels):
        from speed import Speed

        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        self.seconds = args.seconds
        self.speeds = [Speed(k) for k in kernels]
        self.times = []

    def sample(self):
        for speed in self.speeds:
            speed.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        self.times.append(time.perf_counter() - t0)
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "READY":
            raise RuntimeError("set-up process failed")
        for speed in reversed(self.speeds):
            speed.probe()

    def due(self, elapsed):
        while (len(self.times) < SETUP_REPEATS
               and elapsed >= len(self.times) * self.seconds / SETUP_REPEATS):
            self.sample()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.sample()

    def raw(self):
        return statistics.median(self.times)

    def scaled(self):
        def factor(i):
            logs = [math.log(sp.ref_s * 2 / (sp.seconds[2 * i] + sp.seconds[2 * i + 1]))
                    for sp in self.speeds]
            return math.exp(statistics.fmean(logs))

        return statistics.median(t * factor(i) for i, t in enumerate(self.times))


def time_start(code):
    times = []
    for _ in range(CLI_START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# --- metrics ---------------------------------------------------------------


def case_quantile(labels, latencies, q):
    """Geometric mean over the cases of each case's ``q``-quantile latency.

    Every case weighs the same whatever its share of operations, and the
    figure moves smoothly with each case's time; a quantile of the pooled
    latencies would jump between the bands of neighbouring cases.
    """
    import numpy as np

    by_case = {}
    for label, ms in zip(labels, latencies):
        by_case.setdefault(label, []).append(ms)
    logs = [math.log(float(np.quantile(v, q))) for v in by_case.values()]
    return math.exp(statistics.fmean(logs))


def end_to_end(wl, rec, setup_s, latencies):
    passed = rec.outcomes.count("pass")
    values = {
        "ops_per_s": passed / (sum(latencies) / 1e3),
        "latency_p50_ms": case_quantile(rec.labels, latencies, 0.5),
        "latency_p90_ms": case_quantile(rec.labels, latencies, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": wl.peak_rss_mb(),
        "correct_share": passed / len(latencies),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(spans, ops, extra):
    """Per-layer numbers from the traced spans; see README.md for definitions."""
    from tracer import INFO, NAME, OP, PARENT, END, START, self_times

    own = self_times(spans)
    at_op = [isinstance(s[OP], int) for s in spans]
    n_ops = max(len(ops), 1)

    def select(name, everywhere=False, pred=None):
        return [i for i, s in enumerate(spans)
                if (s[NAME] == name or s[NAME].startswith(name + "."))
                and (everywhere or at_op[i]) and (pred is None or pred(s))]

    def incl(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx) * 1e3

    def mean(idx, self_time=False):
        if not idx:
            return 0.0
        return (sum(own[i] for i in idx) * 1e3 if self_time else incl(idx)) / len(idx)

    built = len(select("model.build", everywhere=True))

    def per_model(name):
        return incl(select(name, everywhere=True)) / built if built else 0.0

    def under(i, name):
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
            if spans[i][NAME] == name:
                return True
        return False

    batches = select("spectrum.delta_batch")
    search = [i for i in batches if under(i, "spectrum.discrete_spectrum")]
    roots = sum(spans[i][INFO]["roots"] for i in select("spectrum.discrete_spectrum")
                if "roots" in spans[i][INFO])
    compressed = select("oracle.oracle_eigs.compressed")
    m = {
        "model.build_ms": mean(select("model.build", everywhere=True)),
        "model.sample_ms": per_model("model.sample"),
        "model.validate_ms": mean(select("model.validate", everywhere=True)),
        "expr.parse_ms": per_model("expr.parse"),
        "quadrature.build_rule_ms": per_model("quadrature.build_rule"),
        "spectrum.delta_batch.calls": len(batches) / n_ops,
        "spectrum.delta_batch.lams": sum(spans[i][INFO]["lams"] for i in batches) / n_ops,
        "spectrum.delta_batch.single_ms": mean(select("spectrum.delta_batch.single")),
        "spectrum.delta_batch.scan_ms": mean(select("spectrum.delta_batch.scan")),
        "spectrum.discrete_spectrum.self_ms": mean(select("spectrum.discrete_spectrum"), True),
        "spectrum.sigma_ess_ms": mean(select("spectrum.sigma_ess")),
        "spectrum.lams_per_root":
            sum(spans[i][INFO]["lams"] for i in search) / max(roots, 1),
        "spectrum.eigenfunctions_T_ms": mean(select("spectrum.eigenfunctions_T")),
        "pie.classify_tau_ms": mean(select("pie.classify_tau")),
        "pie.solve_pie.self_ms": mean(select("pie.solve_pie"), True),
        "pie.refusals": len(select("pie.solve_pie", pred=lambda s: "raised" in s[INFO])) / n_ops,
        "operators.apply_S.calls": len(select("operators.apply_S")) / n_ops,
        "operators.apply_S_ms": mean(select("operators.apply_S")),
        "operators.resolvent_T_ms": mean(select("operators.resolvent_T")),
        "oracle.nystrom_matrix_ms": mean(select("oracle.nystrom_matrix")),
        "oracle.oracle_eigs.dense_ms": mean(select("oracle.oracle_eigs.dense")),
        "oracle.oracle_eigs.compressed_ms": mean(compressed),
        "oracle.compare_spectra_ms": mean(select("oracle.compare_spectra")),
        "oracle.span_mb": max((spans[i][INFO]["span_mb"] for i in compressed), default=0.0),
        "cli.main_ms": mean(select("cli.main")),
        **extra,
    }
    for label in ORACLE_LABELS:
        m[f"oracle.oracle_eigs_ms.{label}"] = mean(
            select("oracle.oracle_eigs", pred=lambda s: ops[s[OP]].label == label))
    return {name: {"value": m.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}


def print_table(metrics, counts):
    for name, metric in metrics.items():
        note = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}{note}")


# --- main ------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pio" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        sys.stderr.write(f"no pio sources under {ROOT}: run from a repository checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    (ROOT / ".bench_work").mkdir(exist_ok=True)

    import numpy as np

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](str(ROOT), np.random.default_rng(args.seed))
    try:
        return run(args, wl)
    finally:
        wl.close()


def run(args, wl):
    from speed import Speed

    if args.setup_only:
        wl.setup()
        warm_up(wl)
        print("READY", flush=True)
        return 0

    if args.trace:
        rec, warm, metrics, spans_file = traced_run(args, wl)
        counts = {}
    else:
        wl.setup()
        warm = warm_up(wl)
        speed = Speed(wl.speed_kernel)
        setup = SetupTimer(args, wl.setup_kernels)
        setup.sample()
        rec = Recorder(speed)
        loop(args.seconds, lambda: rec.round(wl, wl.round()), setup.due)
        setup.finish()
        metrics = end_to_end(wl, rec, setup.scaled(), rec.scaled_ms())
        raw = end_to_end(wl, rec, setup.raw(), rec.latencies_ms)
        n = len(rec.latencies_ms)
        counts = {"latency_p50_ms": n, "latency_p90_ms": n, "ops_per_s": n,
                  "setup_s": len(setup.times)}

    if rec.first_failure:
        sys.stderr.write(f"first failed operation: {rec.first_failure}\n")
    outcomes = warm + rec.outcomes
    attempted, failed, known = len(outcomes), outcomes.count("fail"), outcomes.count("known")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"checks: {attempted} attempted, {failed} failed, {known} known-defect "
          f"(failed_share {(failed + known) / max(attempted, 1):.4f})")
    if args.trace:
        print(f"spans: {spans_file.relative_to(ROOT)}")
    print_table(metrics, counts)
    if not args.trace:
        print(f"unscaled (speed kernel {speed.name} {speed.kernel_ms():.4f} ms, "
              f"reference {speed.ref_s * 1e3:g} ms, {len(speed.seconds)} probes):")
        print_table({k: raw[k] for k in SCALED}, counts)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def traced_run(args, wl):
    """Set-up under the tracer, then each round once untraced and once traced.

    The two passes of a round run the same operations back to back, in an
    order that alternates from round to round, so drift in machine speed
    falls on both sides of the tracing overhead alike.
    """
    import workloads
    from tracer import Tracer

    if hasattr(wl, "inprocess"):
        wl.inprocess = True
    tracer = Tracer(callers=[workloads])
    with tracer:
        tracer.op = "setup"
        wl.setup()
        tracer.op = "warmup"
        warm = warm_up(wl)
    plain, traced, ops = Recorder(), Recorder(), []

    def traced_round(round_ops):
        with tracer:
            traced.round(wl, round_ops, tracer, ops)

    traced_first = itertools.cycle([False, True])

    def pair():
        round_ops = wl.round()
        if next(traced_first):
            traced_round(round_ops)
            plain.round(wl, round_ops)
        else:
            plain.round(wl, round_ops)
            traced_round(round_ops)

    loop(args.seconds, pair)
    extra = {
        "trace.untraced_op_ms": statistics.fmean(plain.latencies_ms),
        "trace.traced_op_ms": statistics.fmean(traced.latencies_ms),
    }
    extra["trace.overhead_ms"] = extra["trace.traced_op_ms"] - extra["trace.untraced_op_ms"]
    if args.workload == "cli":
        interp = time_start("pass")
        extra["cli.interp_ms"] = interp
        extra["cli.import_ms"] = time_start("import pio.cli") - interp
    spans_file = write_spans(args, tracer.spans, ops)
    rec = Recorder()
    rec.latencies_ms = plain.latencies_ms + traced.latencies_ms
    rec.outcomes = plain.outcomes + traced.outcomes
    rec.first_failure = plain.first_failure or traced.first_failure
    return rec, warm, per_layer(tracer.spans, ops, extra), spans_file


def write_spans(args, spans, ops):
    """The traced run's spans as JSON lines, one span per line after a header."""
    from tracer import END, INFO, NAME, OP, PARENT, START

    path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "ops": [op.label for op in ops]}) + "\n")
        for s in spans:
            fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                 "parent": s[PARENT], "op": s[OP], "info": s[INFO]}) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
