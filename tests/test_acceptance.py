"""Headline acceptance checks, one test per guaranteed behavior. Run with
``pytest -v`` to get a single pass/fail line for each. Statistical checks
use fixed seeds and 4-standard-error bands; analytic checks carry their
stated tolerances and wall-clock budgets."""

import ast
import importlib
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ldpmean
from ldpmean import capstruct_lp, cli, errors, estimator, privunit, privunitg, sphere, tuner
from ldpmean.sphere import RngStream, sample_uniform_sphere
from ldpmean.specfun import (
    inv_std_normal_cdf,
    reg_inc_beta,
    std_normal_cdf,
    std_normal_pdf,
)

from oracles import beta_cdf_quad, trunc_gauss_moments


def test_tuned_constant_near_limit(capsys):
    # eps * err / d at eps 35, d = 50000 reads 0.625; it passes 0.614 near eps
    # 38.5 and keeps falling (0.548 at eps 100)
    t0 = time.perf_counter()
    rc = cli.main(["tune", "--eps", "35", "--d", "50000", "--alg", "privunitg"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.splitlines()
    assert header.split(",")[-1] == "c_const"
    c_const = float(row.split(",")[-1])
    assert 0.594 <= c_const <= 0.634
    assert elapsed < 1.0


def test_scaled_constant_converges_in_dimension():
    # successive dimension-doubling gaps of eps*err/d shrink strictly at eps=8
    t0 = time.perf_counter()
    c = {d: tuner.tune(8.0, d, "privunitg").c_const for d in (512, 1024, 2048, 4096, 8192)}
    gaps = [abs(c[d] - c[2 * d]) for d in (512, 1024, 2048, 4096)]
    elapsed = time.perf_counter() - t0
    for wide, narrow in zip(gaps, gaps[1:]):
        assert narrow < wide
    assert elapsed < 1.0


def test_gaussian_error_overhead_decays_with_dimension():
    # err ratio of the Gaussian to the cap randomizer at the shared tuned
    # split approaches 1 from above as d grows
    t0 = time.perf_counter()

    def ratio(eps, d):
        tuned = tuner.tune(eps, d, "privunitg")
        pu_params = tuner._params_at(tuned.split, d, "privunit")
        return tuned.err_star / privunit.analytic_err(pu_params).err

    for eps in (4.0, 8.0, 16.0):
        r_small, r_large = ratio(eps, 64), ratio(eps, 4096)
        assert r_large <= r_small
        assert r_large <= 1.25
    assert time.perf_counter() - t0 < 5.0


def test_unbiased_mean_both_randomizers():
    # sample mean of 2e5 draws stays within 4 predicted standard errors of v
    t0 = time.perf_counter()
    d, draws, chunk = 64, 200_000, 100_000
    v = sample_uniform_sphere(d, RngStream(2024, 5))
    for stream_id, alg in ((1, "privunit"), (2, "privunitg")):
        tuned = tuner.tune(4.0, d, alg)
        total = np.zeros(d)
        for i in range(draws // chunk):
            rng = RngStream(77, (stream_id << 32) + i + 1)
            if alg == "privunit":
                out = privunit.randomize_batch(v, tuned.params, chunk, rng)
            else:
                out = privunitg.randomize_g_batch(v, tuned.params, chunk, rng)
            total += out.sum(axis=0)
        deviation = float(np.linalg.norm(total / draws - v))
        assert deviation <= 4.0 * math.sqrt(tuned.err_star / draws)
    assert time.perf_counter() - t0 < 30.0


def test_empirical_error_matches_analytic():
    # per-draw squared error over 1e6 draws matches the closed form within 2%
    t0 = time.perf_counter()
    d, draws, chunk = 32, 1_000_000, 100_000
    v = sample_uniform_sphere(d, RngStream(2024, 6))
    for stream_id, alg in ((11, "privunit"), (12, "privunitg")):
        tuned = tuner.tune(8.0, d, alg)
        total_sq = 0.0
        for i in range(draws // chunk):
            rng = RngStream(501, (stream_id << 32) + i + 1)
            if alg == "privunit":
                out = privunit.randomize_batch(v, tuned.params, chunk, rng)
            else:
                out = privunitg.randomize_g_batch(v, tuned.params, chunk, rng)
            total_sq += float(np.sum((out - v) ** 2))
        mse = total_sq / draws
        assert abs(mse / tuned.err_star - 1.0) <= 0.02
    assert time.perf_counter() - t0 < 120.0


def test_density_ratio_certificates():
    # the sup density ratio read off log_density reproduces the exact
    # two-level certificate and never exceeds the configured e^eps
    d = 16
    v = np.zeros(d)
    v[0] = 1.0
    for eps in (1.0, 2.0, 4.0, 8.0, 16.0):
        pp = tuner.tune(eps, d, "privunit").params
        u = v / pp.m  # inside the cap around v, outside the cap around -v
        sup_log = privunit.log_density(u, v, pp) - privunit.log_density(u, -v, pp)
        certificate = privunit.privacy_eps(pp.p, pp.q, pp.p_comp, pp.q_comp)
        assert math.exp(sup_log) == math.exp(certificate)
        assert math.exp(sup_log) <= math.exp(eps) * (1.0 + 1e-12)

        pg = tuner.tune(eps, d, "privunitg").params
        u_g = (pg.gamma + pg.sigma) / pg.m * v
        sup_log_g = privunit.log_density(u_g, v, pg) - privunit.log_density(u_g, -v, pg)
        certificate_g = privunit.privacy_eps(pg.p, pg.q, pg.p_comp, pg.q_comp)
        assert math.exp(pg.budget) == math.exp(certificate_g)
        # the Gaussian base term cancels up to the rounding of two sums
        assert abs(sup_log_g - certificate_g) <= 1e-13 * max(1.0, certificate_g)
        assert math.exp(sup_log_g) <= math.exp(eps) * (1.0 + 1e-12)


def test_aggregation_error_scales_inversely_with_users():
    # n times the n-user MSE is constant within 4 combined standard errors
    t0 = time.perf_counter()
    reports = {
        n: estimator.run_trials(n=n, d=32, eps=4.0, alg="privunitg", trials=800, seed=9)
        for n in (1, 4, 16)
    }
    scaled = {n: (r.empirical_mse * n, r.standard_error * n) for n, r in reports.items()}
    for a, b in ((1, 4), (1, 16), (4, 16)):
        (mse_a, se_a), (mse_b, se_b) = scaled[a], scaled[b]
        assert abs(mse_a - mse_b) <= 4.0 * math.hypot(se_a, se_b)
    assert time.perf_counter() - t0 < 60.0


def test_circle_solver_matches_enumeration_and_tuned_error():
    # greedy vertex choice agrees exactly with literal enumeration, passes
    # the structure certificate, and implies the tuned d=2 error within 2%
    t0 = time.perf_counter()
    inst = capstruct_lp.lp_instance(360, 4.0)
    sol = capstruct_lp.solve_greedy(inst)

    K, w = inst.K, inst.arc_measure
    hi_f, lo_f = math.exp(0.5 * inst.eps), math.exp(-0.5 * inst.eps)
    best_k, best_alpha = None, -math.inf
    for k in range(K // 2 + 1):
        base = 1.0 / (w * (2 * k * hi_f + (K - 2 * k) * lo_f))
        j = np.arange(K)
        levels = np.where((j < k) | (j >= K - k), hi_f * base, lo_f * base)
        alpha = float(w * np.dot(levels, inst.arc_mean_x))
        if alpha > best_alpha:
            best_k, best_alpha = k, alpha

    assert sol.threshold_count == 2 * best_k
    assert sol.alpha == best_alpha
    assert capstruct_lp.verify_cap_structure(sol)
    err_star = tuner.tune(4.0, 2, "privunit").err_star
    assert abs(sol.err_implied / err_star - 1.0) <= 0.02
    assert time.perf_counter() - t0 < 1.0


def test_repetition_never_beats_direct_tuning():
    # spending eps as k runs of eps/k is never better, and the scaled
    # constant is monotone under budget multiplication
    t0 = time.perf_counter()
    for eps in (4.0, 8.0, 16.0):
        for d in (256, 2048):
            direct = tuner.tune(eps, d).err_star
            for k in (2, 4):
                assert tuner.repetition_err(eps, k, d) >= direct
    c_at = {e: tuner.c_eps(e) for e in (4.0, 8.0, 16.0, 32.0, 64.0)}
    for eps in (4.0, 8.0, 16.0):
        for k in (2, 4):
            assert c_at[k * eps] <= c_at[eps] + 1e-9
    assert time.perf_counter() - t0 < 2.0


_E1 = np.eye(8)[0]
_CAP8 = privunit.cap_params(8, 0.9, 0.3)
_GAUSS8 = privunitg.gauss_params(8, 0.9, 0.8)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: tuner.tune(4.0, math.inf), id="tune-d-inf"),
    pytest.param(lambda: tuner.tune(4.0, math.nan), id="tune-d-nan"),
    pytest.param(lambda: tuner.tune(4.0, 16.5), id="tune-d-fraction"),
    pytest.param(lambda: privunitg.gauss_params(math.inf, 0.9, 0.8), id="gauss_params-d-inf"),
    pytest.param(lambda: privunit.cap_params(math.inf, 0.9, 0.3), id="cap_params-d-inf"),
    pytest.param(lambda: sphere.marginal_cdf(0.1, math.inf), id="marginal_cdf-d-inf"),
    pytest.param(lambda: tuner.repetition_err(4.0, math.inf, 8), id="repetition_err-k-inf"),
    pytest.param(lambda: tuner.repetition_err(4.0, math.nan, 8), id="repetition_err-k-nan"),
    pytest.param(lambda: tuner.repetition_err(4.0, 2.5, 8), id="repetition_err-k-fraction"),
    pytest.param(lambda: estimator.run_trials(2, 8, 4.0, "privunitg", 2.5, 0), id="run_trials-trials-fraction"),
    pytest.param(lambda: estimator.run_trials(2, 8, 4.0, "privunitg", math.inf, 0), id="run_trials-trials-inf"),
    pytest.param(lambda: estimator.run_trials(2, 8, 4.0, "privunitg", math.nan, 0), id="run_trials-trials-nan"),
    pytest.param(lambda: estimator.run_trials(2.5, 8, 4.0, "privunitg", 1, 0), id="run_trials-n-fraction"),
    pytest.param(lambda: estimator.run_trials(math.inf, 8, 4.0, "privunitg", 1, 0), id="run_trials-n-inf"),
    pytest.param(lambda: estimator.run_trials(math.nan, 8, 4.0, "privunitg", 1, 0), id="run_trials-n-nan"),
    pytest.param(lambda: capstruct_lp.lp_instance(math.inf, 4.0), id="lp_instance-K-inf"),
    pytest.param(lambda: privunit.randomize_batch(_E1, _CAP8, 2.5, RngStream(0)), id="randomize_batch-size-fraction"),
    pytest.param(lambda: privunit.randomize_batch(_E1, _CAP8, math.inf, RngStream(0)), id="randomize_batch-size-inf"),
    pytest.param(lambda: privunit.randomize_batch(_E1, _CAP8, math.nan, RngStream(0)), id="randomize_batch-size-nan"),
    pytest.param(lambda: privunitg.randomize_g_batch(_E1, _GAUSS8, 2.5, RngStream(0)), id="randomize_g_batch-size-fraction"),
    pytest.param(lambda: privunitg.randomize_g_batch(_E1, _GAUSS8, math.inf, RngStream(0)), id="randomize_g_batch-size-inf"),
    pytest.param(lambda: privunitg.randomize_g_batch(_E1, _GAUSS8, math.nan, RngStream(0)), id="randomize_g_batch-size-nan"),
])
def test_integer_arguments_reject_nan_inf_and_fractions(call):
    # the range is checked before int(), so inf raises ValueError (a usage
    # error), never OverflowError, which the CLI would map to exit code 3
    with pytest.raises(ValueError):
        call()


_Z8 = _E1 + 0.5j * np.eye(8)[1]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: privunit.randomize(_Z8, _CAP8, RngStream(0)), id="randomize"),
    pytest.param(lambda: privunit.randomize_batch(_Z8, _GAUSS8, 3, RngStream(0)), id="randomize_batch"),
    pytest.param(lambda: estimator.estimate_mean(np.stack([_Z8, _E1]), _CAP8, RngStream(0)), id="estimate_mean"),
])
def test_complex_inputs_raise_value_error(call):
    # a float cast would drop the imaginary part and serve the real part,
    # e_1 here, with only a ComplexWarning
    with pytest.raises(ValueError, match="must be real"):
        call()


def test_batch_size_accepts_integral_floats():
    # an integral size of any type is the integer it names, as for every
    # other integer argument
    for size in (3.0, np.float64(3.0)):
        assert privunit.randomize_batch(_E1, _CAP8, size, RngStream(0)).shape == (3, 8)
        assert privunitg.randomize_g_batch(_E1, _GAUSS8, size, RngStream(0)).shape == (3, 8)


def test_kernel_oracles():
    # symmetric incomplete beta I_x(a, a) against panelled quadrature on 100 cases
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        a = float(np.exp(rng.uniform(math.log(0.6), math.log(500.0))))
        x = float(rng.uniform(0.02, 0.98))
        assert abs(reg_inc_beta(x, a) - beta_cdf_quad(x, a, a)) <= 1e-8

    # normal quantile round trip across |x| <= 6; on the positive side the
    # rounded cdf value itself limits resolution to spacing(p)/pdf(x)
    for x in np.linspace(-6.0, 6.0, 241):
        x = float(x)
        p = std_normal_cdf(x)
        r = inv_std_normal_cdf(p)
        tol = 1e-9 if x <= 0.0 else max(1e-9, float(np.spacing(p)) / std_normal_pdf(x))
        assert abs(r - x) <= tol

    # truncated moments reassemble the untruncated mean and variance
    for g_std in (-2.0, -0.5, 0.0, 0.3, 1.0, 3.0):
        for sigma in (0.05, 0.2, 1.0):
            gamma = g_std * sigma
            m_above, s_above, m_below, s_below = trunc_gauss_moments(gamma, sigma)
            mass_above = 0.5 * math.erfc(g_std / math.sqrt(2.0))
            mass_below = 0.5 * math.erfc(-g_std / math.sqrt(2.0))
            assert abs(mass_above * m_above + mass_below * m_below) <= 1e-10
            assert abs(mass_above * s_above + mass_below * s_below - sigma * sigma) <= 1e-10


def test_numpy_is_the_only_runtime_dependency():
    # every import in the package is the standard library, numpy, or the
    # package itself
    for path in sorted(Path(privunit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name} imports {name}"


def test_every_exported_name_resolves():
    # every name in the package's and each module's __all__ exists, so a
    # deleted definition cannot leave a stale export behind
    for path in sorted(Path(privunit.__file__).parent.glob("*.py")):
        modname = "ldpmean" if path.stem == "__init__" else f"ldpmean.{path.stem}"
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{modname}.__all__ names {name!r}, which is not defined"
    # each public name is declared once, in its module's __all__: the
    # package's list is their union plus __version__, with no name in two
    # modules (specfun and cli stay module-level APIs)
    declared = ["__version__"]
    for mod in (capstruct_lp, errors, estimator, privunit, privunitg, sphere, tuner):
        declared += mod.__all__
    assert len(set(declared)) == len(declared), "a name is in two modules' __all__"
    assert sorted(ldpmean.__all__) == sorted(declared)


def test_documented_module_references_resolve():
    # every <module>.<name> that the package's source or the README names,
    # for one of the package's modules, is an attribute of that module, so a
    # docstring cannot keep naming a deleted or renamed function. Paths such
    # as tests/oracles.c_inf and file names such as privunit.py are skipped
    src = Path(privunit.__file__).parent
    modules = sorted(path.stem for path in src.glob("*.py") if path.stem != "__init__")
    ref = re.compile(r"(?<![\w/])(" + "|".join(modules) + r")\.([A-Za-z_]\w*)")
    found = 0
    for path in sorted(src.glob("*.py")) + [Path(__file__).resolve().parent.parent / "README.md"]:
        for m in ref.finditer(path.read_text()):
            if m.group(2) != "py":
                found += 1
                mod = importlib.import_module(f"ldpmean.{m.group(1)}")
                assert hasattr(mod, m.group(2)), f"{path.name} names {m.group(0)}, which is not defined"
    assert found, "the pattern matched no reference"
