"""ldpmean benchmark driver.

    python3 bench/run.py --workload envelope --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Imports ``ldpmean`` from ``src/`` of that
checkout and runs ops back to back for ``--seconds`` (``envelope``: for a
fixed number of whole sweeps; one closed-loop client, no extra threads),
checking every output. Set-up (import, tuning,
inputs) is repeated at even intervals through the run; ``setup_s`` is the
median of those repetitions. ``setup_s`` and ``op_p50_ms`` are divided by
the run's host-speed factor (``reference.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates the
workload's fixed traced set of ops untraced and traced (span wrappers from
``spans.py``) and prints the per-layer metrics. The last stdout line is the
result object; the line before it is a report with the environment, sizes,
failure types and extra statistics. See README.md for the rationale.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_REPEATS = 21
REF_EVERY_S = 0.5  # host-speed reference sampled this often, between ops
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it
FAILURE_KINDS = ("NumericsError", "ValueError", "DegenerateParameterError", "exit_nonzero", "check")


def fresh_import():
    """Import ldpmean from this checkout's src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "ldpmean" or n.startswith("ldpmean.")]:
        del sys.modules[name]
    ldp = importlib.import_module("ldpmean")
    importlib.import_module("ldpmean.cli")
    if Path(ldp.__file__).resolve().parent != (SRC / "ldpmean").resolve():
        raise ImportError(f"ldpmean imported from {ldp.__file__}, not from {SRC}")
    return ldp


def setup(workload, seed: int, scratch: str, tiny: bool):
    """Re-import ldpmean and set the workload up on it; return (package,
    seconds). Set-up is idempotent: a repeat rebinds the workload to the new
    package and regenerates the same inputs."""
    t0 = time.perf_counter()
    ldp = fresh_import()
    workload.setup(ldp, seed, scratch, tiny)
    return ldp, time.perf_counter() - t0


class Runner:
    """Runs ops, times their steps, checks outputs and tallies failures."""

    def __init__(self, between_steps=None):
        self.between_steps = between_steps  # called, untimed, between an op's steps
        self.latencies: list[float] = []  # seconds per op; inf for a failed op
        self.by_key: dict[int, list[float]] = {}  # the same, per distinct op
        self.busy_s = 0.0  # time inside timed calls, successful or not
        self.reports = 0
        self.failures: dict[str, int] = {}
        self.messages: dict[str, int] = {}  # distinct failure messages, counted

    def run_op(self, steps, pool: bool, key: int) -> float:
        total, failed = 0.0, False
        for k, step in enumerate(steps):
            if k and self.between_steps:
                self.between_steps()
            dt, ok = self._run_step(step, pool)
            total += dt
            failed = failed or not ok
        latency = math.inf if failed else total
        self.latencies.append(latency)
        self.by_key.setdefault(key, []).append(latency)
        return total

    def op_p50(self) -> float:
        """Median over the distinct ops of each one's median latency.

        Where ops repeat (``envelope``'s sweeps), the latencies of the 101
        distinct ops lie 10-30% apart near their middle; a median of all
        samples pooled would move between neighbouring ops as noise
        reorders single samples. Where every op is distinct this is the
        plain median.
        """
        return statistics.median(statistics.median(v) for v in self.by_key.values())

    def _run_step(self, step, pool: bool) -> tuple[float, bool]:
        """Time and check one call; its output is released on return, so it
        is not held while the next step runs."""
        t0 = time.perf_counter()
        try:
            out = step.call()
        except Exception as exc:  # a program failure is a measured outcome
            self.busy_s += time.perf_counter() - t0
            self._fail(type(exc).__name__, f"{step.label}: {type(exc).__name__}: {exc}")
            return 0.0, False
        dt = time.perf_counter() - t0
        self.busy_s += dt
        if isinstance(out, tuple) and isinstance(out[0], int) and out[0] != 0:
            self._fail("exit_nonzero", f"{step.label}: exit code {out[0]}: {out[2].strip()}")
            return dt, False
        try:
            step.check(out, pool)
        except CheckFailed as exc:
            self._fail("check", f"{step.label}: check failed: {exc}")
            return dt, False
        self.reports += step.reports
        return dt, True

    def _fail(self, kind: str, message: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.messages[message] = self.messages.get(message, 0) + 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for x in self.latencies if x == math.inf)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; inf entries (failed ops) sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = blas_threads()
    try:
        libc = ctypes.CDLL(None)
        # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        for key, code in (("l1d_bytes", 188), ("l2_bytes", 191), ("l3_bytes", 194)):
            env[key] = int(libc.sysconf(code))
    except (OSError, AttributeError):
        pass
    return env


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, read (never set) through
    its exported getter; None where that library is not found."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def assert_untraced(ldp) -> None:
    leftover = spans.installed_wrappers(ldp)
    if leftover:
        raise RuntimeError(f"span wrappers installed before an untraced run: {leftover}")


def measure(workload, seed: int, scratch: str, seconds: float, tiny: bool,
            ref: Reference) -> tuple[Runner, float]:
    """Run ops back to back for ``seconds``; return the runner and the
    median set-up time. The host-speed reference is sampled every
    REF_EVERY_S between ops, set-ups and an op's steps, and once more at
    the end.

    Set-up runs SETUP_REPEATS times, the first before the first op and the
    rest spread evenly over the run, so that ``setup_s`` samples the host
    over the same span as the ops: all made at the start, they would see
    about one second of a host whose speed shifts, and move twice as much
    from run to run as ``op_p50_ms``. Ops always run on the latest set-up.
    """
    next_ref = 0.0

    def sample_ref() -> None:
        nonlocal next_ref
        if time.perf_counter() >= next_ref:
            ref.sample()
            next_ref = time.perf_counter() + REF_EVERY_S

    runner = Runner(between_steps=sample_ref)
    setup_times: list[float] = []
    fixed = workload.fixed_ops(seconds)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0

    def more_ops() -> bool:
        return i < fixed if fixed else i == 0 or time.perf_counter() < deadline

    while more_ops() or len(setup_times) < SETUP_REPEATS:
        sample_ref()
        due = start + len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and (time.perf_counter() >= due or not more_ops()):
            ldp, dt = setup(workload, seed, scratch, tiny)
            setup_times.append(dt)
            assert_untraced(ldp)
            continue
        runner.run_op(workload.op(i), pool=True, key=workload.op_key(i))
        i += 1
    ref.sample()
    return runner, statistics.median(setup_times)


def end_to_end(runner: Runner, setup_s: float, speed: float) -> tuple[dict, dict]:
    """The result metrics, times divided by the run's host-speed factor
    ``speed`` (see reference.py), and the report's wall-clock statistics."""
    lat_ms = [x * 1e3 for x in runner.latencies]
    op_p50_ms = runner.op_p50() * 1e3
    metrics = {
        "setup_s": {"value": setup_s / speed, "unit": "s"},
        "op_p50_ms": {"value": op_p50_ms / speed, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    n = runner.attempted
    p90 = percentile(lat_ms, 0.9) if n >= P90_MIN_OPS else None
    extra = {
        "host_speed_factor": speed,
        "setup_wall_s": setup_s,
        "op_p50_wall_ms": op_p50_ms,
        "ops": n,
        "op_p90_ms": p90 if p90 is not None and math.isfinite(p90) else "missing",
        "op_p90_samples": n,
        "fail_frac": runner.failed / n,
        "reports_per_s": runner.reports / runner.busy_s if runner.reports else None,
        "reports": runner.reports,
    }
    return metrics, extra


def traced(workload, ldp, seconds: float) -> tuple[dict, dict, Runner, list[str]]:
    """Alternate the fixed traced set untraced and traced until ``seconds``
    pass, or, for a workload with a fixed op count, for that many ops in
    all; counts must repeat exactly between traced repetitions."""
    tracer = spans.Tracer()
    runner = Runner()
    ops = [(workload.op(i), workload.op_key(i)) for i in range(workload.trace_ops)]
    fixed = workload.fixed_ops(seconds)
    passes = max(1, fixed // (2 * len(ops))) if fixed else None
    untraced_s, traced_s, traced_total = [], [], 0.0
    self_s: dict[str, float] = {}
    counts = None
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while not traced_s or (len(traced_s) < passes if passes else time.perf_counter() < deadline):
        first = not traced_s
        assert_untraced(ldp)
        untraced_s.append(sum(runner.run_op(op, pool=first, key=key) for op, key in ops))
        workload.counters.clear()
        failures_before = dict(runner.failures)
        tracer.reset()
        tracer.install(ldp)
        try:
            t = sum(runner.run_op(op, pool=False, key=key) for op, key in ops)
        finally:
            tracer.uninstall()
        traced_s.append(t)
        traced_total += t
        for name, s in tracer.self_s.items():
            self_s[name] = self_s.get(name, 0.0) + s
        fails = {k: v - failures_before.get(k, 0) for k, v in runner.failures.items()}
        rep = (dict(tracer.calls), dict(tracer.volume), dict(workload.counters),
               {k: v for k, v in fails.items() if v})
        if counts is None:
            counts = rep
        elif rep != counts:
            problems.append("exact counts differ between traced passes over the same ops")
    calls, volume, counters, fails = counts
    m = {}
    for name in spans.SPAN_NAMES:
        m[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
        m[f"{name}.self_s"] = {"value": self_s.get(name, 0.0) / len(traced_s), "unit": "s"}
    for key in spans.VOLUME_NAMES:
        m[key] = {"value": volume.get(key, 0), "unit": "count"}
    tunes = calls.get("tuner.tune", 0)
    evals = calls.get("privunit.analytic_err", 0) + calls.get("privunitg.analytic_err_g", 0)
    m["tuner.evals_per_tune"] = {"value": evals / tunes if tunes else 0.0, "unit": "evals/tune"}
    m["tuner.budget_over_eps"] = {"value": counters.get("tuner.budget_over_eps", 0), "unit": "count"}
    for kind in FAILURE_KINDS:
        m[f"fail.{kind}"] = {"value": fails.get(kind, 0), "unit": "count"}
    other = sum(v for k, v in fails.items() if k not in FAILURE_KINDS)
    m["fail.other"] = {"value": other, "unit": "count"}
    m["trace.ops"] = {"value": len(ops), "unit": "count"}
    m["trace.overhead_frac"] = {
        "value": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0, "unit": "ratio"}
    draw = self_s.get("sphere.RngStream.draw", 0.0)
    extra = {
        "trace_repetitions": len(traced_s),
        "failures_per_set": fails,
        "rng.nonrng_per_rng": (traced_total - draw) / draw if draw else None,
        "self_frac": {k: v / traced_total for k, v in sorted(self_s.items())},
    }
    return m, extra, runner, problems


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run in this process; returns (result, report)."""
    workload = WORKLOADS[name]()
    scratch = tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR)
    try:
        problems = []
        if trace:
            ldp, setup_s = setup(workload, seed, scratch, tiny)
            metrics, extra, runner, problems = traced(workload, ldp, seconds)
        else:
            ref = Reference()
            runner, setup_s = measure(workload, seed, scratch, seconds, tiny, ref)
            metrics, extra = end_to_end(runner, setup_s, ref.factor())
            extra["host_speed_parts"] = ref.parts()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems += workload.pool.problems()
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_s": setup_s,
        "sizes": workload.sizes(),
        "environment": environment(),
        "failures": dict(sorted(runner.failures.items())),
        "problems": problems,
        "failure_messages": runner.messages,
        "pooled_z": workload.pool.z(),
        "counters": dict(workload.counters),
        **extra,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ldpmean" / "__init__.py").is_file():
        print(f"error: no ldpmean sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
