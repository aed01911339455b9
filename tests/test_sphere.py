import math
import tracemalloc

import numpy as np
import pytest

from ldpmean import specfun, sphere, tuner
from ldpmean.errors import NumericsError
from ldpmean.sphere import RngStream, as_unit_vector

from oracles import sphere_first_coord_moment_quad
from test_tuner import _ENVELOPE_D, _ENVELOPE_EPS


def test_rng_stream_determinism():
    a = RngStream(42, 7)
    b = RngStream(42, 7)
    assert a.uniform() == b.uniform()
    np.testing.assert_array_equal(a.normal(16), b.normal(16))
    np.testing.assert_array_equal(a.uniform(8), b.uniform(8))
    np.testing.assert_array_equal(a.beta(7.5, 7.5, 8), b.beta(7.5, 7.5, 8))
    # distinct ids, as run_trials names one per trial, draw distinct values
    seen = {RngStream(1, i).uniform() for i in range(25)}
    assert len(seen) == 25


def test_rng_stream_refuses_non_integral_ids():
    # int() would truncate these onto another stream: stream 1.5 onto
    # stream 1, seed 3.7 onto seed 3
    for seed, stream_id in ((3.7, 0), (3, 1.5), (3, 2.0 + 1e-9), (math.nan, 0), (3, math.nan), (3, math.inf)):
        with pytest.raises(ValueError):
            RngStream(seed, stream_id)
    # integral values of any type name the same stream
    same = (RngStream(3.0, np.uint64(2)), RngStream(np.int64(3), 2), RngStream(3, np.int32(2)))
    assert {(r.seed, r.stream_id) for r in same} == {(3, 2)}
    assert all(type(r.seed) is int and type(r.stream_id) is int for r in same)


def test_rng_stream_validation_and_repr():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    r = RngStream(5, 9)
    assert "5" in repr(r) and "9" in repr(r)


def test_as_unit_vector_accepts_and_rejects():
    v = as_unit_vector([1.0, 0.0, 0.0])
    assert v.dtype == float and v.shape == (3,)
    with pytest.raises(ValueError):
        as_unit_vector([1.0, 1.0])
    with pytest.raises(ValueError):
        as_unit_vector(np.ones((2, 2)))
    # a 1e-8 norm defect exceeds the 1e-9 tolerance
    with pytest.raises(ValueError):
        as_unit_vector([1.0 + 2e-8, 0.0])
    # non-finite entries fail the norm check
    for bad in ([math.nan, 0.0], [math.nan, math.nan], [math.inf, 0.0], [1.0, -math.inf]):
        with pytest.raises(ValueError):
            as_unit_vector(bad)


def test_as_unit_rows_accepts_and_rejects():
    rows = sphere.as_unit_rows([[1.0, 0.0], [0.0, -1.0]])
    assert rows.dtype == float and rows.shape == (2, 2)
    assert sphere.as_unit_rows([0.6, 0.8]).shape == (1, 2)  # one vector is the one-row matrix
    for bad in ([[1.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [math.nan, 0.0]], [[math.inf, 0.0]],
                np.zeros((0, 3)), [[1.0]], np.ones((1, 1, 2))):
        with pytest.raises(ValueError):
            sphere.as_unit_rows(bad)


def test_as_unit_rows_allocates_no_matrix_sized_temporary():
    # the row norms are reductions: validating an (n, d) matrix allocates
    # O(n), not the n x d squares that a norm over axis 1 would
    g = RngStream(3).normal((2000, 512))
    rows = g / np.linalg.norm(g, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert sphere.as_unit_rows(rows).shape == rows.shape
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes / 16


def test_sample_uniform_sphere_norm_and_moments():
    rng = RngStream(11, 0)
    draws = np.stack([sphere.sample_uniform_sphere(8, rng) for _ in range(4000)])
    np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(draws.mean(axis=0))) < 4.0 / math.sqrt(8 * 4000) * math.sqrt(8)
    cov = draws.T @ draws / draws.shape[0]
    np.testing.assert_allclose(cov, np.eye(8) / 8.0, atol=0.01)


def test_marginal_cdf_low_dimension_closed_form():
    # at d=3 the first coordinate is uniform on [-1, 1]
    for t in (-0.8, -0.2, 0.0, 0.5, 0.95):
        assert math.isclose(sphere.marginal_cdf(t, 3), 0.5 * (1.0 + t), rel_tol=1e-13)


def test_marginal_cdf_symmetry_and_reference():
    for d in (2, 4, 16, 64):
        for t in (0.1, 0.4, 0.75):
            assert abs(sphere.marginal_cdf(t, d) + sphere.marginal_cdf(-t, d) - 1.0) <= 1e-13
    # reference computed with 50-digit arithmetic
    assert math.isclose(sphere.marginal_cdf(0.2, 64), 0.94490609874570535151, rel_tol=1e-13)
    for t in (-1.0 - 1e-12, 1.5, math.nan):
        with pytest.raises(ValueError):
            sphere.marginal_cdf(t, 5)


def test_inv_marginal_cdf_round_trip():
    for d in (2, 3, 17, 200):
        for q in (1e-6, 0.11, 0.5, 0.87, 1.0 - 1e-6):
            t = sphere.inv_marginal_cdf(q, d)
            assert -1.0 <= t <= 1.0
            assert abs(sphere.marginal_cdf(t, d) - q) <= 1e-10
    assert sphere.inv_marginal_cdf(0.5, 64) == 0.0
    for q in (0.0, 1.0):
        with pytest.raises(ValueError):
            sphere.inv_marginal_cdf(q, 5)


def test_sample_cap_membership_and_norm():
    rng = RngStream(3, 1)
    gamma = 0.3
    for d in (2, 3, 32):
        above = np.stack([sphere.sample_cap(d, gamma, True, rng) for _ in range(500)])
        below = np.stack([sphere.sample_cap(d, gamma, False, rng) for _ in range(500)])
        np.testing.assert_allclose(np.linalg.norm(above, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(below, axis=1), 1.0, atol=1e-12)
        assert np.all(above[:, 0] >= gamma)
        assert np.all(below[:, 0] < gamma)


def test_sample_cap_conditional_mean_matches_quadrature():
    rng = RngStream(17, 4)
    d, gamma, n = 16, 0.25, 60000
    above = np.stack([sphere.sample_cap(d, gamma, True, rng) for _ in range(n)])
    want = sphere_first_coord_moment_quad(d, gamma, 1, True)
    got = above[:, 0].mean()
    se = above[:, 0].std(ddof=1) / math.sqrt(n)
    assert abs(got - want) <= 4.0 * se


def test_sample_cap_validation_and_underflow():
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        sphere.sample_cap(8, 1.0, True, rng)
    with pytest.raises(ValueError):
        sphere.sample_cap(8, -1.0, False, rng)
    with pytest.raises(NumericsError):
        sphere.sample_cap(64, 1.0 - 1e-15, True, rng)
    for side in (np.True_, np.False_, 1, 0):  # equal to True or False: a side
        u = sphere.sample_cap(16, 0.9, side, rng)
        assert (u[0] >= 0.9) if side else (u[0] < 0.9)


@pytest.mark.parametrize("above", [0.5, 2, -1, math.nan, None, "yes"])
def test_sample_cap_rejects_a_side_other_than_true_or_false(above):
    # a truthy 0.5 or 2 would draw the cap side with the complement's
    # mass; the check comes before any draw, so the stream is untouched
    rng = RngStream(5, 0)
    with pytest.raises(ValueError, match="above must be True or False"):
        sphere.sample_cap(16, 0.9, above, rng)
    assert rng.normal(3).tolist() == RngStream(5, 0).normal(3).tolist()


class _FirstNormal(RngStream):
    """A stream whose first normal draw is `first`, broadcast to the shape
    asked for; every later draw is its own."""

    def __init__(self, first, seed=0, stream_id=0):
        super().__init__(seed, stream_id)
        self.first = first
        self.normal_calls = 0

    def normal(self, size=None):
        self.normal_calls += 1
        if self.normal_calls == 1:
            return np.broadcast_to(self.first, size).copy()
        return super().normal(size)


def test_sample_uniform_sphere_redraws_a_zero_direction():
    rng = _FirstNormal(np.zeros(5), 31, 2)
    u = sphere.sample_uniform_sphere(5, rng)
    assert rng.normal_calls == 2
    assert np.all(np.isfinite(u)) and abs(np.linalg.norm(u) - 1.0) <= 1e-12


@pytest.mark.parametrize("above", [True, False])
def test_sample_cap_redraws_a_direction_along_the_pole(above):
    # a Gaussian row along v = e_1 has no orthogonal part to scale
    e1 = np.zeros(6)
    e1[0] = 1.0
    rng = _FirstNormal(e1, 37, 1)
    u = sphere.sample_cap(6, 0.3, above, rng)
    assert rng.normal_calls == 2
    assert np.all(np.isfinite(u)) and abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert (u[0] >= 0.3) if above else (u[0] < 0.3)


KS_CRIT_1PCT = 1.63  # sqrt(n) D above this has probability about 1%


def _sqrt_n_ks(draws, cdf) -> float:
    """sqrt(n) times the Kolmogorov-Smirnov distance between the draws and
    the continuous increasing cdf."""
    f = np.sort([cdf(float(x)) for x in draws])
    n = f.size
    i = np.arange(1.0, n + 1.0)
    return math.sqrt(n) * max(float(np.max(i / n - f)), float(np.max(f - (i - 1.0) / n)))


@pytest.mark.parametrize(
    "d, mass",
    [(2, 0.6), (2, 0.3), (2, 0.2), (3, 0.3), (3, 0.05), (4, 0.3), (4, 0.05), (16, 0.05), (1000, 0.3), (1000, 0.2),
     (1000, 1e-50)],
)
def test_draw_above_matches_conditioned_sphere_marginal(d, mass):
    # every branch of the conditioned first coordinate T = 1 - 2X: masses
    # >= 1/4 draw unrestricted, smaller ones use the d = 2, d = 3 or
    # tangent-exponential proposal; X is tested against I_x(a, a)
    a = 0.5 * (d - 1)
    t = 1.0 - 2.0 * specfun.inv_reg_inc_beta(mass, a)
    x0 = 0.5 * (1.0 - t)
    mass = specfun.reg_inc_beta(x0, a)  # P(T >= t) at the rounded t
    draws = sphere._draw_above(t, mass, 2000, d, None, RngStream(61, d))
    assert np.all(draws >= t) and np.all(draws <= 1.0)
    stat = _sqrt_n_ks(0.5 * (1.0 - draws), lambda x: specfun.reg_inc_beta(x, a) / mass)
    assert stat < KS_CRIT_1PCT


@pytest.mark.parametrize("mass", [0.6, 0.3, 0.05, 1e-50])
def test_draw_above_matches_conditioned_normal(mass):
    # unrestricted normal draws above 1/4, Robert's exponential tail below
    sigma = 0.25
    t = -sigma * specfun.inv_std_normal_cdf(mass)
    mass = specfun.std_normal_cdf(-t / sigma)
    draws = sphere._draw_above(t, mass, 2000, 16, sigma, RngStream(62, 0))
    assert np.all(draws >= t)
    stat = _sqrt_n_ks(draws, lambda s: 1.0 - specfun.std_normal_cdf(-s / sigma) / mass)
    assert stat < KS_CRIT_1PCT


@pytest.mark.parametrize("side", ["cap", "open"])
@pytest.mark.parametrize(
    "alg, d, eps",
    [("privunit", 16, 8.0), ("privunit", 1024, 8.0),  # the tangent exponential, a > 1
     ("privunit", 3, 8.0), ("privunit", 2, 4.0),  # the power law, a <= 1
     ("privunitg", 1024, 8.0)],  # the normal tail
)
def test_draw_above_conditional_mean_at_tuned_points(alg, d, eps, side):
    # each branch's conditional mean against its closed form at a tuned
    # point: the cap side (mass below 1/4) takes the branch named, the open
    # side (mass >= 1/4) the unrestricted draw. E[T 1{T >= gamma}] is the
    # law's tail_mean, and E[-T | T < gamma] = tail_mean/q since E[T] = 0;
    # 2^20 draws resolve a one-line change of an acceptance rule
    params = tuner.tune(eps, d, alg).params
    sigma = getattr(params, "sigma", None)
    threshold = params.gamma if sigma is None else params.g_std
    tail_mean = tuner._law(alg)[1](d, threshold)[2]
    t, mass = (params.gamma, params.q_comp) if side == "cap" else (-params.gamma, params.q)
    assert (mass < 0.25) == (side == "cap")
    draws = sphere._draw_above(t, mass, 2**20, d, sigma, RngStream(66, 2 * d + (side == "open")))
    z = (draws.mean() - tail_mean / mass) / (draws.std() / math.sqrt(draws.size))
    assert abs(z) < 4.0


@pytest.mark.parametrize("d, chunks", [(3, 1), (2, 4)])
def test_draw_above_power_law_conditional_mean(d, chunks):
    # the power-law branch (a <= 1) at a side of mass 0.24, just below the
    # unrestricted draw's 1/4, where its acceptance rule rejects most; at
    # tuned points (gamma >= 0.76) it accepts almost every proposal, so
    # neither their conditional means nor 8-bin chi-squares of 4096 draws
    # see an acceptance exponent 1.1 - a in place of 1 - a, and this one does
    a = 0.5 * (d - 1)
    t = 1.0 - 2.0 * specfun.inv_reg_inc_beta(0.24, a)
    _, mass, tail_mean = tuner._law("privunit")[1](d, t)
    assert mass < 0.25
    rng = RngStream(67, d)  # d = 2 needs 2^22 draws, made 2^20 at a time
    draws = np.concatenate([sphere._draw_above(t, mass, 2**20, d, None, rng) for _ in range(chunks)])
    z = (draws.mean() - tail_mean / mass) / (draws.std() / math.sqrt(draws.size))
    assert abs(z) < 4.0


# the PrivUnit cap sides of the float-gamma staircase: gamma is the largest
# double below 1, so the 8 bin edges of the side collapse onto it and only
# the clamp test of the sampler contract applies there
_COLLAPSED_CAPS = {(64.0, 2), (256.0, 2), (256.0, 3), (512.0, 2), (512.0, 3), (512.0, 16), (700.0, 2), (700.0, 3),
                   (700.0, 16)}


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_draw_above_chi_square_across_tuned_points(alg):
    # at every tuned envelope point and on both sides, 4096 draws in 8 bins
    # of equal conditional mass, whose edges are the law's quantiles at
    # mass (1 - k/8); 7 degrees of freedom, chi-square 40.5 at p = 1e-6.
    # This is the cheap check of every branch across the grid: the
    # per-branch tests above resolve one-line changes of an acceptance rule
    # that it does not
    collapsed = set()
    case = 0
    for eps in _ENVELOPE_EPS:
        for d in _ENVELOPE_D:
            params = tuner.tune(eps, d, alg).params
            sigma = getattr(params, "sigma", None)
            a = 0.5 * (d - 1)
            for side in ("cap", "open"):
                case += 1
                t, mass = (params.gamma, params.q_comp) if side == "cap" else (-params.gamma, params.q)
                ys = [mass * (1.0 - k / 8.0) for k in range(1, 8)]
                if sigma is None:
                    edges = [1.0 - 2.0 * specfun.inv_reg_inc_beta(y, a) for y in ys]
                else:
                    edges = [-sigma * specfun.inv_std_normal_cdf(y) for y in ys]
                if not all(lo < hi for lo, hi in zip([t] + edges, edges)):
                    collapsed.add((eps, d, side))
                    continue
                draws = sphere._draw_above(t, mass, 4096, d, sigma, RngStream(68, case))
                assert np.all(draws >= t), (eps, d, side)
                counts = np.bincount(np.searchsorted(edges, draws, side="right"), minlength=8)
                chi2 = float(((counts - 512.0) ** 2).sum() / 512.0)
                assert chi2 <= 40.5, (eps, d, side, chi2)
    assert collapsed == ({(eps, d, "cap") for eps, d in _COLLAPSED_CAPS} if alg == "privunit" else set())


def test_sample_cap_negative_gamma_matches_marginal():
    # a negative gamma makes the complement the small side: its draws go
    # through the negated tangent-exponential proposal
    d, gamma, n = 16, -0.4, 2000
    rng = RngStream(63, 0)
    q = sphere.marginal_cdf(gamma, d)
    assert q < 0.25
    below = np.array([sphere.sample_cap(d, gamma, False, rng)[0] for _ in range(n)])
    above = np.array([sphere.sample_cap(d, gamma, True, rng)[0] for _ in range(n)])
    assert np.all(below < gamma) and np.all(above >= gamma)
    assert _sqrt_n_ks(below, lambda s: sphere.marginal_cdf(s, d) / q) < KS_CRIT_1PCT
    assert _sqrt_n_ks(above, lambda s: (sphere.marginal_cdf(s, d) - q) / (1.0 - q)) < KS_CRIT_1PCT


def test_draw_above_round_cap_raises(monkeypatch):
    # one round leaves about half of 1000 lanes of a mass-1/2 side unaccepted
    monkeypatch.setattr(sphere, "_MAX_ROUNDS", 1)
    with pytest.raises(NumericsError):
        sphere._draw_above(0.0, 0.5, 1000, 16, None, RngStream(64, 0))


def test_rotate_from_e1_maps_e1_to_v():
    rng = RngStream(23, 0)
    e1 = np.zeros(6)
    e1[0] = 1.0
    for _ in range(100):
        v = sphere.sample_uniform_sphere(6, rng)
        got = sphere.rotate_from_e1(v, e1)
        np.testing.assert_allclose(got, v, atol=1e-15)


def test_rotate_from_e1_near_and_exact_poles():
    d = 5
    e1 = np.zeros(d)
    e1[0] = 1.0
    # exact poles: first coordinate maps exactly, tangential part stays
    # orthonormal (its orientation is free)
    same = sphere.rotate_from_e1(e1, np.arange(1.0, d + 1.0))
    assert same[0] == 1.0 and np.all(np.abs(same[1:]) == np.arange(2.0, d + 1.0))
    flipped = sphere.rotate_from_e1(-e1, np.arange(1.0, d + 1.0))
    assert flipped[0] == -1.0 and np.all(np.abs(flipped[1:]) == np.arange(2.0, d + 1.0))
    # vectors within 1e-9 of a pole, including ones whose first coordinate
    # rounds to exactly +-1, still map e1 onto v to full precision
    for sign in (1.0, -1.0):
        v = np.full(d, 1e-9)
        v[0] = sign
        v = v / np.linalg.norm(v)
        got = sphere.rotate_from_e1(v, e1)
        assert np.linalg.norm(got - v) <= 1e-14


def test_rotate_from_e1_is_orthogonal():
    rng = RngStream(29, 0)
    v = sphere.sample_uniform_sphere(9, rng)
    u = np.stack([sphere.sample_uniform_sphere(9, rng) for _ in range(4)])
    rot = sphere.rotate_from_e1(v, u)
    # norms and pairwise inner products preserved
    np.testing.assert_allclose(np.linalg.norm(rot, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(rot @ rot.T, u @ u.T, atol=1e-12)
    # batch agrees with row-by-row application
    for k in range(4):
        np.testing.assert_allclose(sphere.rotate_from_e1(v, u[k]), rot[k], atol=0.0)


def test_rotate_from_e1_refuses_mismatched_rows():
    with pytest.raises(ValueError, match="shape mismatch"):
        sphere.rotate_from_e1(np.array([1.0, 0.0, 0.0]), np.ones((2, 4)))
