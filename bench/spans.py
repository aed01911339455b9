"""Span tracing installed from outside the package.

``install`` replaces selected ``ldpmean`` functions with timing wrappers:
every binding of the original function in every loaded ``ldpmean`` module
(so names imported by value, such as ``tuner.inv_reg_inc_beta``, are caught
too) and the ``RngStream`` methods on the class. Spans nest on one stack;
a span's self time is its duration minus the durations of its child spans.
Nothing under ``src/`` is changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

_MARK = "_bench_span"


def _size(size=None) -> int:
    if size is None:
        return 1
    if isinstance(size, tuple):
        return math.prod(size)
    return int(size)


def _first_len(x, *args, **kwargs) -> int:
    return int(getattr(x, "size", 1))


def _draw_values(self, size=None) -> int:
    return _size(size)


# (module, attribute, span name, volume counter or None, volume key)
FUNCTION_SPANS = [
    ("specfun", "reg_inc_beta", "specfun.reg_inc_beta", None, None),
    ("specfun", "inv_reg_inc_beta", "specfun.inv_reg_inc_beta", None, None),
    ("specfun", "inv_std_normal_cdf", "specfun.inv_std_normal_cdf", None, None),
    ("specfun", "_inv_reg_inc_beta_vec", "specfun.inv_reg_inc_beta_vec", _first_len, "elems"),
    ("specfun", "_inv_std_normal_cdf_vec", "specfun.inv_std_normal_cdf_vec", _first_len, "elems"),
    ("sphere", "sample_cap", "sphere.sample_cap", None, None),
    ("sphere", "rotate_from_e1", "sphere.rotate_from_e1", None, None),
    ("sphere", "sample_uniform_sphere", "sphere.sample_uniform_sphere", None, None),
    ("privunit", "_build", "privunit.build", None, None),
    ("privunit", "analytic_err", "privunit.analytic_err", None, None),
    ("privunit", "randomize", "privunit.randomize", None, None),
    ("privunit", "randomize_batch", "privunit.randomize_batch", None, None),
    ("privunitg", "_build_gauss", "privunitg.build", None, None),
    ("privunitg", "analytic_err_g", "privunitg.analytic_err_g", None, None),
    ("privunitg", "randomize_g", "privunitg.randomize_g", None, None),
    ("privunitg", "randomize_g_batch", "privunitg.randomize_g_batch", None, None),
    ("tuner", "tune", "tuner.tune", None, None),
    ("estimator", "run_trials", "estimator.run_trials", None, None),
    ("estimator", "estimate_mean", "estimator.estimate_mean", None, None),
    ("capstruct_lp", "solve_greedy", "capstruct_lp.solve_greedy", None, None),
    ("capstruct_lp", "verify_cap_structure", "capstruct_lp.verify_cap_structure", None, None),
    ("cli", "main", "cli.main", None, None),
]

# (RngStream method, span name, volume counter or None, volume key)
METHOD_SPANS = [
    ("__init__", "sphere.RngStream.init", None, None),
    ("uniform", "sphere.RngStream.draw", _draw_values, "values"),
    ("normal", "sphere.RngStream.draw", _draw_values, "values"),
]

SPAN_NAMES = sorted({s[2] for s in FUNCTION_SPANS} | {s[1] for s in METHOD_SPANS})
VOLUME_NAMES = sorted(
    {f"{s[2]}.{s[4]}" for s in FUNCTION_SPANS if s[4]} | {f"{s[1]}.{s[3]}" for s in METHOD_SPANS if s[3]}
)


class Tracer:
    """Per-span call counts, self times and volume counts for one process.

    Single-threaded by construction: the benchmark is one closed-loop
    client, so one span stack suffices.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.volume: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack = [0.0]  # child time accumulated by each open frame
        self._undo: list = []

    def reset(self) -> None:
        self.calls.clear()
        self.volume.clear()
        self.self_s.clear()
        self._stack = [0.0]

    def wrap(self, name, fn, volume=None, volume_key=None):
        calls, self_s, vol, clock = self.calls, self.self_s, self.volume, time.perf_counter
        vkey = f"{name}.{volume_key}"

        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                calls[name] += 1
                self_s[name] += dur - child
                if volume is not None:
                    vol[vkey] += volume(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self, pkg) -> None:
        """Wrap the spans of FUNCTION_SPANS and METHOD_SPANS in the loaded
        package ``pkg``; every module binding of a wrapped function moves."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = package_modules(pkg)
        for modname, attr, name, volume, key in FUNCTION_SPANS:
            orig = getattr(mods[modname], attr)
            wrapped = self.wrap(name, orig, volume, key)
            for mod in mods.values():
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, binding, wrapped)
                        self._undo.append((mod, binding, orig))
        cls = mods["sphere"].RngStream
        for meth, name, volume, key in METHOD_SPANS:
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, orig, volume, key))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, binding, orig in reversed(self._undo):
            setattr(owner, binding, orig)
        self._undo = []


def package_modules(pkg) -> dict:
    prefix = pkg.__name__ + "."
    mods = {name[len(prefix):]: mod for name, mod in sys.modules.items() if name.startswith(prefix)}
    mods[""] = pkg
    return mods


def installed_wrappers(pkg) -> list[str]:
    """Names of every span wrapper reachable from the package's modules or
    the RngStream class; empty when tracing is off."""
    mods = package_modules(pkg)
    found = [
        f"{modname}.{binding}"
        for modname, mod in mods.items()
        for binding, value in vars(mod).items()
        if hasattr(value, _MARK)
    ]
    found += [f"RngStream.{k}" for k, v in vars(mods["sphere"].RngStream).items() if hasattr(v, _MARK)]
    return found
