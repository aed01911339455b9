"""Tests for budget splitting and tuning: the returned split must beat naive
splits, match a dense-grid oracle, dominate interior (non-saturated)
budgets, and produce the monotone scaled constant."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from ldpmean import privunit, privunitg, specfun, sphere, tuner
from ldpmean.errors import DegenerateParameterError, NumericsError
from ldpmean.privunit import CapParams
from ldpmean.privunitg import GaussParams
from ldpmean.sphere import RngStream

from oracles import c_inf, first_order_residual, gauss_tuned_err_scan


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
    for eps in (0.0, -1.0, 700.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            tuner.c_eps(eps)


def test_tuner_names_no_law():
    # every per-law decision lives in the law modules, whose pieces tuner._law
    # states: the tuner compares alg only to validate it, binds no module-level
    # name of a law other than _LAWS and _ALGS (no law constant, no name taken
    # from a law module), names privunitg only in _LAWS, and reads from
    # privunit only what serves both laws
    tree = ast.parse(Path(tuner.__file__).read_text())
    compares = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Compare)
                and any(isinstance(x, ast.Name) and x.id == "alg" for x in ast.walk(n))]
    assert compares in (["alg not in _ALGS"], ["alg not in _LAWS"]), compares
    law_names = {n for n in (*vars(privunit), *vars(privunitg)) if not n.startswith("__")}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            assert stmt.module not in ("privunit", "privunitg"), ast.unparse(stmt)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = {t.id for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])}
            if targets <= {"_LAWS", "_ALGS"}:
                continue
            assert not targets & law_names, ast.unparse(stmt)
            assert not {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)} & {"privunit", "privunitg"}
    laws_stmt = next(s for s in tree.body if isinstance(s, ast.Assign) and s.targets[0].id == "_LAWS")
    named_g = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "privunitg"]
    assert named_g and all(n in set(ast.walk(laws_stmt)) for n in named_g)
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "privunit"}
    assert read == {"ThresholdParams", "_q_and_m", "analytic_err"}, read


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
# the benchmark's envelope grid: 98 tunes
_BENCH_GRID = [(alg, eps, d) for alg in ("privunit", "privunitg")
               for eps in (1e-3, 0.1, 1.0, 8.0, 32.0, 64.0, 256.0) for d in _ENVELOPE_D]
# below the envelope: about one eps per decade, down to the least double
_TINY_EPS = [10.0**-k for k in range(3, 324)] + [5e-324]


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
def test_tune_contract_below_the_envelope(alg):
    # budget_split accepts any eps in (0, 700]: below 1e-3 every tune keeps
    # the envelope's two outcomes, a finite positive error within budget or
    # a typed numeric error. Below about 1e-16 both sigmoid levels round to
    # 1/2, and the normalizer of p + q - 1 = 0 is rejected as degenerate
    outcomes = set()
    for eps in _TINY_EPS:
        for d in _ENVELOPE_D:
            try:
                res = tuner.tune(eps, d, alg)
            except (NumericsError, DegenerateParameterError) as exc:
                outcomes.add(type(exc))
                continue
            assert math.isfinite(res.err_star) and res.err_star > 0.0, (eps, d)
            assert res.params.budget <= eps, (eps, d)
            outcomes.add(tuner.TunedResult)
    assert tuner.TunedResult in outcomes and DegenerateParameterError in outcomes


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
    # the bracket stops there, a Newton step past it probes that smallest cap
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
    # threshold of mass sigmoid(-eps), is found by inverting a cdf, and none
    # where the bracket stops at the smallest float cap: over the envelope,
    # PrivUnit at d = 2 for eps >= 32, d = 3 for eps >= 64, d = 16 for eps >= 512
    calls, stops = [0], 0
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
                inverted = calls[0]
                stop = tuner._bracket(tuner._law(alg), eps, d)[1] == privunit._S_EDGE
                assert inverted == 1 - stop, (alg, eps, d)
                stops += stop
    assert stops == 11, stops


def test_error_evaluations_per_tune(monkeypatch):
    # the benchmark's envelope grid: Newton's steps on the log form of the
    # condition need at most 6 error evaluations per tune and 4 on
    # average, the budget trim's included; the probes evaluate the scalar
    # errors, which analytic_err and analytic_err_g wrap, so every
    # evaluation is counted here
    calls = [0]
    for mod in (privunit, privunitg):
        def counted(*args, _f=mod._err):
            calls[0] += 1
            return _f(*args)
        monkeypatch.setattr(mod, "_err", counted)
    counts = []
    for alg, eps, d in _BENCH_GRID:
        calls[0] = 0
        tuner.tune(eps, d, alg)
        counts.append(calls[0])
    assert max(counts) <= 6
    assert sum(counts) / len(counts) <= 4.0


def test_mass_evaluations_per_tune(monkeypatch):
    # a tune evaluates a mass once per probe, plus PrivUnit's bracket check
    # of the smallest cap; the winner's build and every budget-trim step
    # take the probe's mass, so they evaluate none
    masses, probes = [0], [0]
    for mod, name, calls in ((privunit, "_mass", masses), (privunitg, "_mass", masses),
                             (tuner, "_probe", probes)):
        def counted(*args, _f=getattr(mod, name), _calls=calls):
            _calls[0] += 1
            return _f(*args)
        monkeypatch.setattr(mod, name, counted)
    for alg, eps, d in _BENCH_GRID:
        masses[0] = probes[0] = 0
        tuner.tune(eps, d, alg)
        assert masses[0] == probes[0] + (alg == "privunit"), (alg, eps, d, masses[0], probes[0])


def test_tune_builds_parameters_once(monkeypatch):
    # the probes build no parameter object: a tune builds the winner's once,
    # then once per step of its budget trim, each at the winner's threshold
    # with a smaller eps0, and every build but the last is over budget
    built = []
    for mod in (privunit, privunitg):
        def counted(*args, _f=mod._build):
            built.append(_f(*args))
            return built[-1]
        monkeypatch.setattr(mod, "_build", counted)
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
    for mod in (privunit, privunitg):
        def counted(*args, _f=mod._build):
            builds[0] += 1
            return _f(*args)
        monkeypatch.setattr(mod, "_build", counted)
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
            assert privunit._mass(d, gamma)[1] == sphere.marginal_cdf(-gamma, d)
    res = tuner.tune(eps, d, alg)
    pr = res.params
    if alg == "privunit":
        mass, err, error, t = privunit._mass, privunit._err, privunit.analytic_err, pr.gamma
        assert privunit._mass(d, pr.gamma)[1] == sphere.marginal_cdf(-pr.gamma, d)
    else:
        mass, err, error, t = privunitg._mass, privunitg._err, privunitg.analytic_err_g, pr.g_std
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
    # the root find probes at least tol inside the bracket, so every error evaluated
    # over the envelope is at a threshold of mass at least sigmoid(-eps)
    # and a p above 1/2: no probe needs the eps0 >= 0 clamp
    seen = []
    for mod in (privunit, privunitg):
        def recorded(d, p, p_comp, q, q_comp, gamma, m, _f=mod._err):
            seen.append((p, q_comp))
            return _f(d, p, p_comp, q, q_comp, gamma, m)
        monkeypatch.setattr(mod, "_err", recorded)
    for alg in ("privunit", "privunitg"):
        for eps in _ENVELOPE_EPS:
            y = math.exp(-eps) / (1.0 + math.exp(-eps))
            for d in _ENVELOPE_D:
                seen.clear()
                tuner.tune(eps, d, alg)
                assert seen, (alg, eps, d)
                for p, q_comp in seen:
                    assert p > 0.5 and q_comp >= y * (1.0 - 1e-12), (alg, eps, d, p, q_comp)


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_tune_where_tol_exceeds_half_the_bracket(alg):
    # below eps = 2^-25 the bracket's tol, 2^-26 (hi - lo)/eps, is more than
    # half of it: the one probe is its midpoint, a feasible split
    eps, d = 1e-9, 16
    lo, hi, tol = tuner._bracket(tuner._law(alg), eps, d)
    assert tol > 0.5 * (hi - lo)
    res = tuner.tune(eps, d, alg)
    assert 0.0 <= res.split.eps1 <= eps and 0.0 <= res.split.eps0 <= eps
    assert res.params.budget <= eps
    mid = 0.5 * (lo + hi)
    if alg == "privunit":
        assert res.params.gamma == 1.0 - 2.0 * math.exp(-mid)
    else:
        assert res.params.g_std == mid


def _floats_around(t, n):
    # t and the n floats on either side of it
    out, below, above = [t], t, t
    for _ in range(n):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


# PrivUnit points on the float-gamma stairs, between the envelope's dimensions
_STAIRS = [(128.0, 6), (448.0, 24), (700.0, 38), (256.0, 14)]


@pytest.mark.parametrize("eps,d", _STAIRS)
def test_tune_settles_on_the_lowest_nearby_stair(eps, d):
    # near gamma = 1 a float gamma resolves x = (1 - gamma)/2 only to its
    # spacing, so PrivUnit's error is a staircase (at large eps, for d from
    # about 6 to 44, between the envelope's dimensions); the tuned error is
    # no higher than a probe's at any float gamma within 64 ulps of its own
    res = tuner.tune(eps, d, "privunit")
    near = [g for g in _floats_around(res.params.gamma, 64) if g < 1.0]
    assert res.err_star <= min(tuner._probe(privunit, eps, d, g)[-2] for g in near)


@pytest.mark.parametrize("eps,d", _STAIRS + [(64.0, 3), (256.0, 16)])
def test_tune_probes_no_float_gamma_twice_in_a_row(monkeypatch, eps, d):
    # on the stairs many search variables round to one float gamma; a probe
    # whose threshold is the one before it ends the search, which would
    # evaluate the same floats again, so the search ends within 6 probes
    seen = []

    def recorded(d, t, *scalars, _f=privunit._residual):
        seen.append(t)
        return _f(d, t, *scalars)

    monkeypatch.setattr(privunit, "_residual", recorded)
    tuner.tune(eps, d, "privunit")
    assert all(s != t for s, t in zip(seen, seen[1:])) and len(seen) <= 6


def test_tune_evaluates_the_smallest_cap_at_most_once(monkeypatch):
    # where the bracket stops at the smallest float cap, gamma = 1 - 2^-53,
    # only the search probes that cap: a Newton step past the end probes
    # b - tol, which rounds onto it, so no tune evaluates it twice
    probed = []

    def recorded(law, eps, d, t, _f=tuner._probe):
        probed.append(t)
        return _f(law, eps, d, t)

    monkeypatch.setattr(tuner, "_probe", recorded)
    points = [(alg, eps, d) for alg in ("privunit", "privunitg") for eps in _ENVELOPE_EPS for d in _ENVELOPE_D]
    points += [("privunit", eps, d) for eps, d in _STAIRS]
    edge = []
    for alg, eps, d in points:
        probed.clear()
        tuner.tune(eps, d, alg)
        edge.append(probed.count(privunit._GAMMA_EDGE))
        assert edge[-1] <= 1, (alg, eps, d)
    assert 1 in edge


def _err_slope_factor(alg, d, t, m):
    # c > 0 with d err/du = -c r for the residual r of first_order_residual: err =
    # 1/m^2 - 1 with dm/ds = a m r/(1 - x) for PrivUnit, d err/dg = -r/K^2
    # with K = m sqrt(d) for PrivUnitG
    if alg == "privunit":
        return (d - 1) / (m * m * (1.0 - 0.5 * (1.0 - t)))
    return 1.0 / (m * m * d)


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
@pytest.mark.parametrize("eps,d", [(0.1, 2), (1.0, 3), (8.0, 16), (32.0, 1024), (64.0, 10**6), (256.0, 50_000)])
def test_residual_is_the_error_slope(eps, d, alg):
    # at points across the bracket, -c r is the error's slope and r' the
    # residual's: central differences with a step h of 1e-5 of the bracket
    # truncate at about h^2 relative, 1e-10, and 1e-5 leaves room for the
    # error's rounding over 2h (they agree to 4e-7 or better here)
    law = tuner._law(alg)
    lo, hi, _ = tuner._bracket(law, eps, d)
    h = 1e-5 * (hi - lo)

    def at(u):
        t = law._threshold(u)
        e, m = tuner._probe(law, eps, d, t)[-2:]
        return (e, m) + first_order_residual(alg, d, t, e, m)

    for frac in (0.1, 0.3, 0.6, 0.9):
        u = lo + frac * (hi - lo)
        e, m, r, dr = at(u)
        (e_up, _, r_up, _), (e_down, _, r_down, _) = at(u + h), at(u - h)
        c = _err_slope_factor(alg, d, law._threshold(u), m)
        assert (e_up - e_down) / (2.0 * h) == pytest.approx(-c * r, rel=1e-5), frac
        assert (r_up - r_down) / (2.0 * h) == pytest.approx(dr, rel=1e-5), frac


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
@pytest.mark.parametrize("eps,d", [(0.1, 2), (1.0, 3), (8.0, 16), (32.0, 1024), (64.0, 10**6), (256.0, 50_000)])
def test_search_residual_has_the_condition_sign_and_slope(eps, d, alg):
    # tune searches R = ln(p_comp*/p_comp), not the certificate r of
    # first_order_residual: at the points of test_residual_is_the_error_slope, R
    # has r's sign, so both have one root, and R' matches central
    # differences of R to 1e-5 (3e-9 or better here)
    law = tuner._law(alg)
    lo, hi, _ = tuner._bracket(law, eps, d)
    h = 1e-5 * (hi - lo)

    def at(u):
        t = law._threshold(u)
        scalars = tuner._probe(law, eps, d, t)[1:]
        return first_order_residual(alg, d, t, *scalars[-2:])[0], law._residual(d, t, *scalars)

    for frac in (0.1, 0.3, 0.6, 0.9):
        u = lo + frac * (hi - lo)
        r, (big_r, dr) = at(u)
        assert big_r != 0.0 and (big_r > 0.0) == (r > 0.0), frac
        (_, (r_up, _)), (_, (r_down, _)) = at(u + h), at(u - h)
        assert (r_up - r_down) / (2.0 * h) == pytest.approx(dr, rel=1e-5), frac


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
@pytest.mark.parametrize("d", _ENVELOPE_D)
@pytest.mark.parametrize("eps", _ENVELOPE_EPS)
def test_tuned_threshold_meets_the_first_order_condition(eps, d, alg):
    # the dual of the paper's LP puts the optimal threshold at gamma = m.
    # At the stored threshold t the Newton distance |r/r'| to that root
    # (first_order_residual) is at most 2 tol + res + tie, with tol tune's own
    # tolerance:
    # - 2 tol, the stop rule: the search stops once a step is below tol, so
    #   its last probe lies within 2 tol of the root (a bisection step below
    #   tol leaves a bracket under 2 tol around it, a Newton step one under tol);
    # - res, the spacing of the float threshold in the search variable:
    #   ulp(gamma)/(2x) in s for PrivUnit, ulp(g) for PrivUnitG;
    # - tie: tune stores its last probe, except where a probe rounds onto the
    #   float threshold of the one before it (PrivUnit's stairs): there it
    #   stores the probe of least float error seen, which need not be the
    #   last one. A probe Delta from the root has an error E'' Delta^2/2
    #   above the optimum's (E'' = -c r' at the root), so it can beat the
    #   last probe only if E'' (Delta^2 - (2 tol)^2)/2 is at most the spread
    #   rho of the float error's rounding, taken over the 129 floats nearest
    #   t, where the true error is flat far below rho: then
    #   Delta <= 2 tol + sqrt(2 rho/E''). Over the envelope every tune not
    #   stored at the smallest cap lies within half of 2 tol + res.
    # Where the smallest float cap ends the bracket and is stored, the root
    # lies beyond it: r >= 0 there.
    pr = tuner.tune(eps, d, alg).params
    t = pr.gamma if alg == "privunit" else pr.g_std
    law = tuner._law(alg)
    e, m = tuner._probe(law, eps, d, t)[-2:]
    r, dr = first_order_residual(alg, d, t, e, m)
    if t == privunit._GAMMA_EDGE:
        assert r >= 0.0
        return
    tol = tuner._bracket(law, eps, d)[2]
    if alg == "privunit":
        res = math.ulp(t) / (1.0 - t)
        near = [u for u in _floats_around(t, 64) if u < 1.0]
    else:
        res = math.ulp(t)
        near = _floats_around(t, 64)
    errs = [tuner._probe(law, eps, d, u)[-2] for u in near]
    tie = math.sqrt(2.0 * (max(errs) - min(errs)) / (-_err_slope_factor(alg, d, t, m) * dr))
    assert abs(r / dr) <= 2.0 * tol + res + tie, (abs(r / dr) / tol, res / tol, tie / tol)


def test_tune_raises_when_the_best_error_is_not_positive(monkeypatch):
    monkeypatch.setattr(privunitg, "_err", lambda *args: 0.0)
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


def test_c_eps_contract_below_the_envelope():
    # c_eps keeps tune's two outcomes below the envelope: a finite positive
    # constant (13 of these eps) or a typed numeric error
    outcomes = set()
    for eps in _TINY_EPS:
        try:
            c = tuner.c_eps(eps)
        except (NumericsError, DegenerateParameterError) as exc:
            outcomes.add(type(exc))
            continue
        assert math.isfinite(c) and c > 0.0, eps
        outcomes.add(float)
    assert float in outcomes and DegenerateParameterError in outcomes


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


@pytest.mark.parametrize("eps,c", [(1.0, 6.3300416081), (8.0, 1.0633000991), (32.0, 0.6362283399),
                                   (256.0, 0.5207938465), (700.0, 0.5085450352)])
def test_c_inf_oracle(eps, c):
    # the d -> infinity constant eps/g*^2, from math.erfc alone
    assert abs(c_inf(eps) - c) <= 1e-10


@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.5, 1.0, 8.0, 32.0, 256.0, 700.0])
def test_c_eps_is_c_inf(eps):
    # c_eps is the limit itself, not the constant at a finite d: at d = 10^8
    # PrivUnitG's 1/d^2 gap is below rounding. The bound's floor is tune's
    # float error and the oracle's bisection, which ends on adjacent floats
    # of g*; the largest measured is 3.4e-13, at eps 1e-3
    assert abs(tuner.c_eps(eps) / c_inf(eps) - 1.0) <= 1e-12


@pytest.mark.parametrize("eps", [1.0, 8.0, 32.0, 256.0])
def test_both_laws_approach_c_inf_from_below(eps):
    # PrivUnit's constant lies below PrivUnitG's, and both below the limit
    # c_inf. The bands test the rate's exponent, 2 against 1, not the
    # measured ratios: per decade of d a gap of order 1/d^2 (PrivUnitG, as
    # c_eps states) shrinks 100-fold and one of order 1/d (PrivUnit, the
    # paper's 1 + o(1)) 10-fold, each band a factor of 2 either side. A gap
    # under 100 ulps of c at the larger d is rounding, and its ratio is skipped
    limit = c_inf(eps)
    dims = (10**4, 10**5, 10**6)
    c = {alg: [tuner.tune(eps, d, alg).c_const for d in dims] for alg in ("privunit", "privunitg")}
    for c_pu, c_g in zip(c["privunit"], c["privunitg"]):
        assert c_pu < c_g < limit
    for alg, lo, hi in (("privunitg", 50.0, 200.0), ("privunit", 5.0, 20.0)):
        gaps = [limit - x for x in c[alg]]
        for big, small in zip(gaps, gaps[1:]):
            if small >= 100.0 * math.ulp(limit):
                assert lo <= big / small <= hi, (alg, big, small)


@pytest.mark.parametrize("eps, d", [(1.0, 10), (1.0, 100), (8.0, 100), (8.0, 1000), (32.0, 1000),
                                    (32.0, 10**4), (256.0, 10**4), (256.0, 10**5)])
def test_privunitg_gap_to_c_inf_is_eps_over_4d_squared(eps, d):
    # c_G(eps, d) is the minimum over g of f + h/d, with f = eps/K^2 and
    # h = eps (g/K - 1), from err = d/K^2 + g/K - 1. At g*, where K = g*,
    # K' = K(K - g) gives K' = 0, K'' = -g* and K''' = -g*^2, so h = 0,
    # h' = eps/g*, h'' = eps, f'' = 2 eps/g*^2 and f''' = 2 eps/g*. The
    # minimizer is g* + delta/d + O(d^-2) with delta = -h'/f'' = -g*/2, and
    # the minimum is c_inf - h'^2/(2 f'' d^2)
    # + (f''' delta^3/6 + h'' delta^2/2)/d^3 + O(d^-4), that is
    #   c_inf - c_G = (eps/(4 d^2)) (1 - g*^2/(3 d) + O(d^-2)), g*^2 = eps/c_inf.
    # The band is three times the derived next term g*^2/(3 d); it runs from
    # 1.6e-3 to 7.5e-2 here. The ratio's float error, 4 d^2 dc/eps, is at
    # most a few 1e-6, at (256, 10^5)
    limit = c_inf(eps)
    ratio = 4.0 * d * d * (limit - tuner.tune(eps, d, "privunitg").c_const) / eps
    assert abs(ratio - 1.0) <= (eps / limit) / d


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
    err = privunitg._err(d, pr.p, pr.p_comp, pr.q, pr.q_comp, pr.gamma, pr.m)
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
    # alone; the root find over the package's kernels must do as well
    for eps in _ENVELOPE_EPS:
        for d in _ENVELOPE_D:
            err_star = tuner.tune(eps, d, "privunitg").err_star
            assert err_star <= gauss_tuned_err_scan(eps, d) * (1.0 + 1e-9), (eps, d)
