"""Machine speed, from a fixed kernel timed between operations.

A shared virtual machine changes speed for seconds to minutes at a time, so
the raw time of the same operation can differ by 1.5x between two runs.  The
runner therefore times a short fixed kernel about every ``EVERY_S`` seconds
of the measured loop and scales each operation's time by ``ref / t``, where
``t`` is the mean time of the ``WINDOW`` kernel runs nearest to that
operation and ``ref`` is the kernel's time on the machine the benchmark was
tuned on.  The kernels do not touch ``pio``, so a change to the library
moves the scaled times by the same ratio as the raw ones.
"""

from __future__ import annotations

import bisect
import functools
import statistics
import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.05  # seconds of the loop between two kernel runs
WINDOW = 4  # kernel runs whose mean scales one operation: 2 before, 2 after



@functools.cache
def _inputs(kernel):
    """A kernel's fixed inputs, made on first use so no other run holds them."""
    rng = np.random.default_rng(0)
    if kernel == "compute":
        a = rng.standard_normal((40, 40))
        return {
            "A": a + a.T,
            "B": rng.standard_normal((160, 160)),
            "V": rng.standard_normal(4096),
            "W": rng.standard_normal(1 << 18),  # 2 MiB, beyond the private caches
        }
    big = rng.standard_normal((300, 300))
    return {
        "L": big + big.T,
        "S": rng.standard_normal((1600, 60)),
        "M": rng.standard_normal(1 << 21),  # 16 MiB, beyond the shared cache
    }


def compute():
    """Interpreted Python, small LAPACK calls, ufuncs and a 2 MiB stream."""
    x = _inputs("compute")
    s = 0.0
    for i in range(1500):
        s += (i % 7) * 0.5
    for _ in range(4):
        np.linalg.eigvalsh(x["A"])
    for _ in range(2):
        s += float((x["B"] @ x["B"])[0, 0])
    for _ in range(20):
        s += float(np.sum(np.sin(x["V"]) * x["V"]))
    for _ in range(3):
        s += float(np.dot(x["W"], x["W"]))
    return s


def linalg():
    """Dense LAPACK and a 16 MiB stream, like the oracle's large eigensolves."""
    x = _inputs("linalg")
    s = 0.0
    for _ in range(2):
        s += float(np.linalg.eigvalsh(x["L"])[0])
    s += float(np.linalg.svd(x["S"], compute_uv=False)[0])
    for _ in range(2):
        s += float((x["L"] @ x["L"])[0, 0])
    for _ in range(3):
        s += float(np.dot(x["M"], x["M"]))
    return s


def start():
    """A bare interpreter started and ended, as each ``cli`` operation starts one."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


KERNELS = {  # name: (kernel, untimed warm-up run first, reference seconds)
    "compute": (compute, True, 2.0e-3),
    "linalg": (linalg, False, 18.0e-3),
    "start": (start, False, 70.0e-3),
}


class Speed:
    """Kernel timings of one run and the scale factor they give at a time."""

    def __init__(self, kernel="compute"):
        self.name = kernel
        self.kernel, self.warm, self.ref_s = KERNELS[kernel]
        self.starts = []
        self.seconds = []
        self.last = float("-inf")

    def probe(self):
        if self.warm:
            self.kernel()  # so the timed run starts from warm caches
        t0 = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.starts.append(t0)
        self.seconds.append(self.last - t0)

    def due(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.probe()

    def scale(self, t):
        """The reference time over the mean kernel time of the runs nearest ``t``."""
        n = len(self.seconds)
        lo = min(max(bisect.bisect(self.starts, t) - WINDOW // 2, 0), max(n - WINDOW, 0))
        return self.ref_s / statistics.fmean(self.seconds[lo:lo + WINDOW])

    def kernel_ms(self):
        return statistics.median(self.seconds) * 1e3
