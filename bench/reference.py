"""Host-speed reference: a fixed kernel, timed between ops, that runs no
``ldpmean`` code.

The machine the benchmark was written on runs a process at a speed that
drifts by tens of percent over minutes (a fixed pure-Python loop and a
fixed numpy kernel slow down and speed up together, with little steal time
recorded). Such a drift lasts longer than a run, so no statistic inside a
run removes it. The runner therefore times this kernel at regular intervals
through each run, in its own thread (timed in a helper process, it did not
follow the workload's speed), and divides the run's timings by the
kernel's slowdown against its nominal time (``Reference.factor``).

The kernel has two parts: a pure-Python scalar loop with ``math`` calls
(the interpreter, as in the scalar special functions and the CLI) and a
numpy pass of Gaussian draws and elementwise arithmetic over two 2 MB
arrays (as in the samplers). Their slowdowns are combined as a geometric
mean. The arrays are allocated once and stay allocated through the run,
4 MB of every ``peak_rss_mb``.

    python3 bench/reference.py --calibrate 30   # part medians over 30 s on this host
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

# Set from ``--calibrate`` runs on the machine of README.md's baseline, whose
# Python-part medians ranged from 0.013 to 0.021 s from one run to another.
# They only set the scale of the divided times; a change of either changes
# every benchmark time by the same ratio, so it needs a new baseline.
PY_NOMINAL_S = 0.0170
NP_NOMINAL_S = 0.0200
NP_ELEMS = 1 << 18  # 2 MB per array
NP_PASSES = 4


def py_kernel() -> float:
    x = s = 0.0
    for i in range(1, 60_000):
        x = math.lgamma(i * 0.5 + 1.0) * 1e-3 + x * 0.5
        s += x if x < 10.0 else -x
    return s


class Reference:
    """Samples of the kernel's two parts, timed in this thread."""

    def __init__(self):
        self.a, self.b = np.empty(NP_ELEMS), np.empty(NP_ELEMS)
        self.rng = np.random.default_rng(0)
        self.np_kernel()  # first touch of the arrays
        self.samples: list[tuple[float, float]] = []

    def np_kernel(self) -> float:
        a, b = self.a, self.b
        s = 0.0
        for _ in range(NP_PASSES):
            self.rng.standard_normal(out=a)
            np.multiply(a, 1.5, out=b)
            np.subtract(b, a, out=b)
            s += float(b.sum())
        return s

    def sample(self) -> None:
        t0 = time.perf_counter()
        py_kernel()
        t1 = time.perf_counter()
        self.np_kernel()
        self.samples.append((t1 - t0, time.perf_counter() - t1))

    def parts(self) -> dict[str, float]:
        """Each part's median time over the samples against its nominal
        time: 1 at the nominal speed, 2 when the host runs at half of it."""
        return {"py": statistics.median(p for p, _ in self.samples) / PY_NOMINAL_S,
                "np": statistics.median(n for _, n in self.samples) / NP_NOMINAL_S}

    def factor(self) -> float:
        """Geometric mean of the two parts' slowdowns."""
        slow = self.parts()
        return math.sqrt(slow["py"] * slow["np"])


def calibrate(seconds: float) -> None:
    ref = Reference()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ref.sample()
    py_med = statistics.median(p for p, _ in ref.samples)
    np_med = statistics.median(n for _, n in ref.samples)
    print(f"{len(ref.samples)} samples: PY_NOMINAL_S = {py_med:.4g}, NP_NOMINAL_S = {np_med:.4g}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--calibrate"] or len(sys.argv) != 3:
        sys.exit("usage: reference.py --calibrate SECONDS")
    calibrate(float(sys.argv[2]))
