"""Tests for budget splitting and tuning: the returned split must beat naive
splits, match a dense-grid oracle, dominate interior (non-saturated)
budgets, and produce the monotone scaled constant."""

import math

import numpy as np
import pytest

from ldpmean import privunit, privunitg, specfun, sphere, tuner
from ldpmean.errors import DegenerateParameterError, NumericsError
from ldpmean.privunit import CapParams
from ldpmean.privunitg import GaussParams
from ldpmean.sphere import RngStream

from oracles import gauss_tuned_err_scan


# --- budget splits ----------------------------------------------------------

def test_budget_split_levels_and_complements():
    s = tuner.budget_split(6.0, 2.0)
    assert s.eps0 == 4.0 and s.eps1 == 2.0
    assert s.p == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), rel=1e-15)
    assert s.q == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-15)
    assert abs(s.p + s.p_comp - 1.0) <= 2e-16
    assert abs(s.q + s.q_comp - 1.0) <= 2e-16


def test_budget_split_validation():
    with pytest.raises(ValueError):
        tuner.budget_split(0.0, 0.0)
    with pytest.raises(ValueError):
        tuner.budget_split(4.0, -0.1)
    with pytest.raises(ValueError):
        tuner.budget_split(4.0, 4.1)
    with pytest.raises(ValueError):
        tuner.budget_split(math.inf, 1.0)


# --- tune -------------------------------------------------------------------

def test_tune_validation():
    with pytest.raises(ValueError):
        tuner.tune(-1.0, 64)
    with pytest.raises(ValueError):
        tuner.tune(4.0, 1)
    with pytest.raises(ValueError):
        tuner.tune(4.0, 64, alg="gauss")
    with pytest.raises(ValueError):
        tuner.tune(701.0, 64)


@pytest.mark.parametrize("alg,cls", [("privunit", CapParams), ("privunitg", GaussParams)])
def test_tune_result_consistency(alg, cls):
    eps, d = 4.0, 128
    res = tuner.tune(eps, d, alg)
    assert isinstance(res.params, cls)
    assert res.alg == alg
    assert res.split.eps0 + res.split.eps1 == pytest.approx(eps, abs=1e-12)
    assert res.c_const == eps * res.err_star / d
    if alg == "privunit":
        err = privunit.analytic_err(res.params).err
    else:
        err = privunitg.analytic_err_g(res.params).err
    assert err == pytest.approx(res.err_star, rel=1e-12)
    # the full budget is spent, up to log-space rounding
    assert res.params.budget == pytest.approx(eps, rel=1e-12)


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_tune_beats_naive_splits(alg):
    eps, d = 8.0, 256
    res = tuner.tune(eps, d, alg)
    for eps1 in (0.0, eps / 4.0, eps / 2.0):
        err, _ = tuner._err_at(tuner.budget_split(eps, eps1), d, alg)
        assert res.err_star <= err + 1e-15


@pytest.mark.parametrize(
    "alg,eps,d,grid_n,rel",
    [
        # the original (8, 1024) cases keep their ids
        pytest.param("privunitg", 8.0, 1024, 100001, 1e-6, id="privunitg-100001-1e-06"),
        pytest.param("privunit", 8.0, 1024, 10001, 1e-5, id="privunit-10001-1e-05"),
    ]
    + [
        (alg, eps, d, 2049, 1e-5)
        for alg in ("privunit", "privunitg")
        for eps, d in ((1e-3, 16), (1.0, 2), (32.0, 3), (256.0, 1024), (64.0, 100_000))
    ],
)
def test_tune_matches_dense_grid(alg, eps, d, grid_n, rel):
    best = math.inf
    for i in range(grid_n):
        try:
            err, _ = tuner._err_at(tuner.budget_split(eps, eps * i / (grid_n - 1)), d, alg)
        except Exception:
            continue
        best = min(best, err)
    res = tuner.tune(eps, d, alg)
    assert res.err_star <= best * (1.0 + 1e-9)
    assert abs(res.err_star - best) <= rel * best


# the advertised envelope: 126 points with both algorithms
_ENVELOPE_D = [2, 3, 16, 1024, 50_000, 100_000, 1_000_000]
_ENVELOPE_EPS = [1e-3, 0.1, 1.0, 8.0, 32.0, 64.0, 256.0, 512.0, 700.0]


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
@pytest.mark.parametrize("d", _ENVELOPE_D)
@pytest.mark.parametrize("eps", _ENVELOPE_EPS)
def test_tune_envelope_contract(eps, d, alg):
    # every point of the advertised envelope either tunes to a finite,
    # positive error within its budget or raises a typed numeric error
    try:
        res = tuner.tune(eps, d, alg)
    except (NumericsError, DegenerateParameterError):
        return
    assert math.isfinite(res.err_star) and res.err_star > 0.0
    assert res.params.budget <= eps
    assert res.params.d == d
    # the certified masses are those of the stored threshold, bit for bit
    if alg == "privunit":
        assert res.params.q_comp == sphere.marginal_cdf(-res.params.gamma, d)
    else:
        assert res.params.q_comp == specfun.std_normal_cdf(-res.params.g_std)
    # the reported split is the one the stored mechanism spends
    assert res.split.p == res.params.p
    assert res.split.q == pytest.approx(res.params.q, rel=1e-12)
    assert res.split.eps0 + res.split.eps1 == pytest.approx(res.params.budget, rel=1e-12)


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
@pytest.mark.parametrize("d", _ENVELOPE_D)
@pytest.mark.parametrize("eps", _ENVELOPE_EPS)
def test_sampler_envelope_contract(eps, d, alg):
    # every tuned envelope point draws finite reports around a general v and
    # around e_1; PrivUnit's lie on the radius-1/m sphere and read at one of
    # its two density levels. The count of reports with m <u, v> >= gamma
    # lies within 4 binomial standard errors of n p, except where the cap is
    # all but certain (n p_comp < 1e-6): there rounding may read a report
    # drawn in the cap below gamma, by at most 2 * np.spacing(gamma), the
    # band that log_density states
    try:
        params = tuner.tune(eps, d, alg).params
    except (NumericsError, DegenerateParameterError):
        return
    n = max(1, 2**14 // d)
    e1 = np.zeros(d)
    e1[0] = 1.0
    band = params.gamma - 2.0 * np.spacing(params.gamma)
    for v in (sphere.sample_uniform_sphere(d, RngStream(16, d)), e1):
        out = privunit.randomize_batch(v, params, n, RngStream(17, d))
        assert out.shape == (n, d) and np.all(np.isfinite(out))
        reads = [privunit.log_density(u, v, params) for u in out[:16]]
        if alg == "privunit":
            norms = np.linalg.norm(out, axis=1)
            assert np.all(np.abs(norms - 1.0 / params.m) <= 1e-14 / params.m)
            assert set(reads) <= {params.log_level_hi, params.log_level_lo}
        else:
            assert np.all(np.isfinite(reads))
        along = params.m * (out @ v)
        if n * params.p_comp >= 1e-6:
            closed = np.count_nonzero(along >= params.gamma)
            assert abs(closed - n * params.p) <= 4.0 * math.sqrt(n * params.p * params.p_comp)
        else:
            # log_density's np.dot sums in another order than out @ v
            along_dot = params.m * np.array([float(np.dot(u, v)) for u in out])
            assert np.all(along >= band) and np.all(along_dot >= band)


@pytest.mark.parametrize("eps,d", [(64.0, 2), (512.0, 2), (700.0, 2), (256.0, 3), (512.0, 3), (700.0, 3)])
def test_tiny_privunit_errors_tune(eps, d):
    # where 1/m^2 - 1 cancelled to <= 0, the error is evaluated through
    # 1 - m, so these points tune and meet the envelope contract
    res = tuner.tune(eps, d, "privunit")
    assert 0.0 < res.err_star < 1e-15
    assert res.params.budget <= eps
    assert res.params.q_comp == sphere.marginal_cdf(-res.params.gamma, d)
    assert res.split.eps0 + res.split.eps1 == pytest.approx(res.params.budget, rel=1e-12)


@pytest.mark.parametrize(
    "eps,d,bound,edge",
    [
        # err_star of a search that stopped on a stair above the lowest
        (64.0, 2, 2.2208364874364103e-16, True),
        (700.0, 2, 2.220446049250314e-16, True),
        (700.0, 16, 3.9184342045593774e-16, True),
        # a search that found the lowest stair already
        (256.0, 2, 7.401486830834377e-17, False),
        (512.0, 16, 1.9592171022796887e-16, False),
    ],
)
def test_tune_probes_the_lowest_float_gamma_stair(eps, d, bound, edge):
    # a float gamma expresses no cap below x = (1 - gamma)/2 = 2^-54; where
    # the search is clipped there, that smallest cap is probed
    res = tuner.tune(eps, d, "privunit")
    if edge:
        assert res.err_star < bound
        assert res.params.gamma == 1.0 - 2.0**-53
    else:
        assert res.err_star <= bound


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
@pytest.mark.parametrize("d", [2, 3, 16, 1024, 50_000, 100_000, 1_000_000])
@pytest.mark.parametrize("eps", [1e-3, 0.1, 1.0, 8.0, 32.0, 64.0, 256.0, 512.0, 700.0])
def test_tune_spends_the_full_budget(eps, d, alg):
    # each probe spends on p what its threshold's mass leaves of eps, so
    # only rounding stays unspent
    res = tuner.tune(eps, d, alg)
    assert 0.0 <= eps - res.params.budget <= 1e-12 * eps


def test_one_quantile_inversion_per_tune(monkeypatch):
    # the search runs over the stored threshold; only the bracket end, the
    # threshold of mass sigmoid(-eps), is found by inverting a cdf
    calls = [0]
    for name in ("inv_reg_inc_beta", "inv_std_normal_cdf"):
        def counted(*args, _f=getattr(specfun, name)):
            calls[0] += 1
            return _f(*args)
        monkeypatch.setattr(specfun, name, counted)
    for alg in ("privunit", "privunitg"):
        for eps in (1e-3, 0.1, 1.0, 8.0, 32.0, 64.0, 256.0, 512.0, 700.0):
            for d in (2, 3, 16, 1024, 50_000, 100_000, 1_000_000):
                calls[0] = 0
                tuner.tune(eps, d, alg)
                assert calls[0] <= 1, (alg, eps, d)


def test_error_evaluations_per_tune(monkeypatch):
    # the benchmark's envelope grid: Brent's method over the stored
    # threshold needs at most 20 error evaluations per tune on average; the
    # probes evaluate the scalar errors, which analytic_err and
    # analytic_err_g wrap, so every evaluation is counted here
    calls = [0]
    for mod, name in ((privunit, "_cap_err"), (privunitg, "_gauss_err")):
        def counted(*args, _f=getattr(mod, name)):
            calls[0] += 1
            return _f(*args)
        monkeypatch.setattr(mod, name, counted)
    grid = [(alg, eps, d) for alg in ("privunit", "privunitg")
            for eps in (1e-3, 0.1, 1.0, 8.0, 32.0, 64.0, 256.0)
            for d in (2, 3, 16, 1024, 50_000, 100_000, 1_000_000)]
    for alg, eps, d in grid:
        tuner.tune(eps, d, alg)
    assert calls[0] / len(grid) <= 20.0


def test_tune_builds_parameters_once(monkeypatch):
    # the probes build no parameter object: a tune builds the winner's once,
    # then once per step of its budget trim, each at the winner's threshold
    # with a smaller eps0, and every build but the last is over budget
    built = []
    for mod, name in ((privunit, "_build"), (privunitg, "_build_gauss")):
        def counted(*args, _f=getattr(mod, name)):
            built.append(_f(*args))
            return built[-1]
        monkeypatch.setattr(mod, name, counted)
    counts = []
    for alg in ("privunit", "privunitg"):
        for eps in _ENVELOPE_EPS:
            for d in _ENVELOPE_D:
                built.clear()
                res = tuner.tune(eps, d, alg)
                assert built and built[-1] is res.params, (alg, eps, d)
                assert all(b.budget > eps for b in built[:-1]), (alg, eps, d)
                assert len({(b.gamma, b.q_comp) for b in built}) == 1, (alg, eps, d)
                assert all(b.p >= c.p for b, c in zip(built, built[1:])), (alg, eps, d)
                counts.append(len(built))
    # most tunes need no trim step at all
    assert counts.count(1) > len(counts) // 2


def test_budget_trim_builds_at_most_twice(monkeypatch):
    # the trim's first step is at least 2^-52: an excess of about 1e-18
    # cannot move p = sigmoid(eps0) near 1/2, so smaller steps rebuild the
    # same levels; over the envelope every tune builds at most twice
    builds = [0]
    for mod, name in ((privunit, "_build"), (privunitg, "_build_gauss")):
        def counted(*args, _f=getattr(mod, name)):
            builds[0] += 1
            return _f(*args)
        monkeypatch.setattr(mod, name, counted)
    for alg in ("privunit", "privunitg"):
        for eps in _ENVELOPE_EPS:
            for d in _ENVELOPE_D:
                builds[0] = 0
                tuner.tune(eps, d, alg)
                assert builds[0] <= 2, (alg, eps, d, builds[0])


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
@pytest.mark.parametrize("d", _ENVELOPE_D)
@pytest.mark.parametrize("eps", _ENVELOPE_EPS)
def test_probe_scalars_match_the_built_parameters(eps, d, alg):
    # a probe evaluates the scalars its parameter object would hold, so the
    # winning probe's error is the built winner's analytic error bit for bit
    # (a trimmed winner's error comes from the trimmed object)
    if alg == "privunit":
        # the cap helper's mass is marginal_cdf's, at x = 1/2 and the edge cap
        for gamma in (0.0, 1.0 - 2.0**-53):
            assert privunit._cap_mass(d, gamma)[1] == sphere.marginal_cdf(-gamma, d)
    res = tuner.tune(eps, d, alg)
    pr = res.params
    if alg == "privunit":
        mass, err, error, t = privunit._cap_mass, privunit._cap_err, privunit.analytic_err, pr.gamma
        assert privunit._cap_mass(d, pr.gamma)[1] == sphere.marginal_cdf(-pr.gamma, d)
    else:
        mass, err, error, t = privunitg._gauss_mass, privunitg._gauss_err, privunitg.analytic_err_g, pr.g_std
    assert res.err_star == error(pr).err
    # both laws' helpers share one interface: the mass at the built
    # threshold and the scalar error are the parameters' bit for bit
    assert mass(d, t)[:2] == (pr.gamma, pr.q_comp)
    assert err(d, pr.p, pr.p_comp, pr.q, pr.q_comp, pr.gamma, pr.m) == error(pr).err
    e, params = tuner._err_at(res.split, d, alg)
    assert e == error(tuner._params_at(res.split, d, alg)).err == error(params).err


def test_interior_budgets_never_win():
    # any split that spends less than the full budget is dominated
    eps, d = 4.0, 128
    res = tuner.tune(eps, d, "privunitg")
    for i in range(20):
        frac_total = 0.45 + 0.5 * (i / 19.0)  # total spend in [0.45, 0.95] eps
        frac_split = (7 * i % 20) / 19.0
        total = frac_total * eps
        err, _ = tuner._err_at(tuner.budget_split(total, frac_split * total), d, "privunitg")
        assert err >= res.err_star - 1e-9 * res.err_star


def test_every_probe_is_feasible(monkeypatch):
    # Brent probes at least tol inside the bracket, so every error evaluated
    # over the envelope is at a threshold of mass at least sigmoid(-eps)
    # and a p above 1/2: no probe needs the eps0 >= 0 clamp
    seen = []
    for mod, name in ((privunit, "_cap_err"), (privunitg, "_gauss_err")):
        def recorded(d, p, p_comp, q, q_comp, gamma, m, _f=getattr(mod, name)):
            seen.append((p, q_comp))
            return _f(d, p, p_comp, q, q_comp, gamma, m)
        monkeypatch.setattr(mod, name, recorded)
    for alg in ("privunit", "privunitg"):
        for eps in _ENVELOPE_EPS:
            y = math.exp(-eps) / (1.0 + math.exp(-eps))
            for d in _ENVELOPE_D:
                seen.clear()
                tuner.tune(eps, d, alg)
                assert seen, (alg, eps, d)
                for p, q_comp in seen:
                    assert p > 0.5 and q_comp >= y * (1.0 - 1e-12), (alg, eps, d, p, q_comp)


def _brent_probes(f, a, b, tol):
    probes = []

    def recorded(u):
        probes.append((f(u), u))
        return probes[-1][0]

    tuner._brent_min(recorded, a, b, tol)
    return probes


def test_brent_min_finds_an_interior_minimum():
    tol = 1e-8
    probes = _brent_probes(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol)
    assert abs(min(probes)[1] - 0.3) <= 3.0 * tol


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_brent_min_walks_to_a_monotone_end(sign):
    tol = 1e-8
    probes = _brent_probes(lambda x: sign * x, 0.0, 1.0, tol)
    end = 0.0 if sign > 0.0 else 1.0
    assert abs(min(probes)[1] - end) <= 2.0 * tol
    assert len(probes) <= 40


@pytest.mark.parametrize("f", [lambda x: (x - 0.3) ** 2, lambda x: x, lambda x: -x, lambda x: abs(x - 0.7),
                               lambda x: math.cos(9.0 * x), lambda x: 1.0])
def test_brent_min_probes_at_least_tol_inside(f):
    # the feasibility of tune's probes rests on this: no probe reaches
    # within tol of either end of the bracket
    for a, b, tol in ((0.0, 1.0, 1e-8), (0.69, 37.4, 2.0**-26 * 36.7), (-2.0, 5.0, 1e-3)):
        for _, u in _brent_probes(f, a, b, tol):
            assert a + tol <= u <= b - tol, (a, b, tol, u)


def test_tune_raises_when_the_best_error_is_not_positive(monkeypatch):
    monkeypatch.setattr(privunitg, "_gauss_err", lambda *args: 0.0)
    with pytest.raises(NumericsError, match="not positive"):
        tuner.tune(1.0, 16, "privunitg")


def test_tune_raises_when_the_budget_stays_above_eps(monkeypatch):
    # a high density level 100 nats too high puts every build over budget,
    # by more than eps0 can give back
    def inflated(*args, _f=privunit._two_log_levels):
        hi, lo = _f(*args)
        return hi + 100.0, lo

    monkeypatch.setattr(privunit, "_two_log_levels", inflated)
    with pytest.raises(NumericsError, match="stays above eps"):
        tuner.tune(1.0, 16, "privunit")


# --- scaled constant and repetition ------------------------------------------

def test_c_eps_nonincreasing():
    values = [tuner.c_eps(e) for e in (4.0, 8.0, 16.0, 32.0, 35.0, 40.0, 100.0, 700.0)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12
    # the constant does not settle near 0.614: it passes it near eps 38.5
    # and keeps falling, to 0.548 at eps 100 and 0.509 at 700
    assert values[-2] < 0.56 and values[-1] < 0.52


def test_repetition_identity_at_k1():
    assert tuner.repetition_err(8.0, 1, 256) == tuner.tune(8.0, 256).err_star


def test_repetition_never_beats_direct():
    for k in (2, 4):
        assert tuner.repetition_err(4.0, k, 128) >= tuner.tune(4.0, 128).err_star


def test_repetition_validation():
    with pytest.raises(ValueError):
        tuner.repetition_err(4.0, 0, 64)
    with pytest.raises(ValueError):
        tuner.repetition_err(4.0, 1.5, 64)


# --- PrivUnitG's error through K = m sqrt(d) ---------------------------------

def _k_form(d, g, m):
    k = m * math.sqrt(d)
    return d / (k * k) + g / k - 1.0


@pytest.mark.parametrize("d", _ENVELOPE_D)
@pytest.mark.parametrize("eps", _ENVELOPE_EPS)
def test_gauss_err_is_d_over_k_squared_plus_g_over_k(eps, d):
    # with K = m sqrt(d) and g = g_std, (sigma^2 + gamma m + (d-1)/d)/m^2 - 1
    # is d/K^2 + g/K - 1: the d -> infinity constant is eps/max K^2
    pr = tuner.tune(eps, d, "privunitg").params
    err = privunitg._gauss_err(d, pr.p, pr.p_comp, pr.q, pr.q_comp, pr.gamma, pr.m)
    assert err == pytest.approx(_k_form(d, pr.g_std, pr.m), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d, p, q", [(16, 0.51, 0.9), (1024, 0.5001, 0.99), (2, 0.55, 0.7)])
def test_gauss_err_identity_near_p_one_half(d, p, q):
    # near p = 1/2 the threshold term g/K - 1 is positive, not a correction
    pr = privunitg.gauss_params(d, p, q)
    assert pr.g_std / (pr.m * math.sqrt(d)) - 1.0 > 0.0
    err = privunitg.analytic_err_g(pr).err
    assert err == pytest.approx(_k_form(d, pr.g_std, pr.m), rel=1e-12, abs=0.0)


def test_tuned_gauss_error_matches_an_independent_scan():
    # the oracle scans d/K^2 + g/K - 1 over the threshold with math.erfc
    # alone; Brent's search over the package's kernels must do as well
    for eps in _ENVELOPE_EPS:
        for d in _ENVELOPE_D:
            err_star = tuner.tune(eps, d, "privunitg").err_star
            assert err_star <= gauss_tuned_err_scan(eps, d) * (1.0 + 1e-9), (eps, d)
