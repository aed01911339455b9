"""Tests for the Gaussian randomizer: closed-form moments against the
assembled truncated moments and quadrature, the density (including an
explicit d = 2 normalization integral), privacy levels, and sampling
invariants."""

import math

import numpy as np
import pytest

from ldpmean import privunit, privunitg, tuner
from ldpmean.errors import DegenerateParameterError
from ldpmean.privunit import ErrorBreakdown
from ldpmean.sphere import RngStream

from oracles import trunc_gauss_moment_quad, trunc_gauss_moments


# --- normalizer and error ---------------------------------------------------

def test_normalizer_closed_form():
    # p = 1, q = 1/2: gamma = 0, num = 1/2, m = sigma phi(0) / (1/2) twice over
    assert privunitg.gauss_params(4, 1.0, 0.5).m == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_analytic_err_closed_form():
    params = privunitg.gauss_params(4, 1.0, 0.5)
    assert params.gamma == 0.0
    assert params.alpha_sq == pytest.approx(0.25, rel=1e-14)
    assert privunitg.analytic_err_g(params).err == pytest.approx(2.0 * math.pi - 1.0, rel=1e-13)


@pytest.mark.parametrize("eps,d", [(8.0, 1024), (1.0, 3), (256.0, 16)])
@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_analytic_err_reads_the_law_from_the_parameters(alg, eps, d):
    # both names price either law by that law's own error and second
    # moment, bit for bit, which is the tuned err_star
    res = tuner.tune(eps, d, alg)
    pr = res.params
    args = (d, pr.p, pr.p_comp, pr.q, pr.q_comp, pr.gamma, pr.m)
    if alg == "privunit":
        own = ErrorBreakdown(m=pr.m, alpha_sq=(1.0 + pr.gamma * (d - 1) * pr.m) / d, err=privunit._err(*args), d=d)
    else:
        own = ErrorBreakdown(m=pr.m, alpha_sq=pr.alpha_sq, err=privunitg._err(*args), d=d)
    assert privunit.analytic_err(pr) == privunitg.analytic_err_g(pr) == own
    assert own.err == res.err_star


@pytest.mark.parametrize("d", [2, 8, 64, 1024])
@pytest.mark.parametrize("p", [0.6, 0.9, 1.0])
@pytest.mark.parametrize("q", [0.5, 0.8, 0.99])
def test_second_moment_identity(d, p, q):
    # closed form sigma^2 + gamma m vs the p-weighted truncated moments
    params = privunitg.gauss_params(d, p, q)
    _, s_above, _, s_below = trunc_gauss_moments(params.gamma, params.sigma)
    assembled = params.p * s_above + params.p_comp * s_below
    assert abs(params.alpha_sq - assembled) <= 1e-12


@pytest.mark.parametrize("d,p,q", [(4, 0.9, 0.8), (16, 0.7, 0.6), (64, 1.0, 0.95)])
def test_moments_match_quadrature(d, p, q):
    params = privunitg.gauss_params(d, p, q)
    m_quad = p * trunc_gauss_moment_quad(params.gamma, params.sigma, 1, True) + (
        1.0 - p
    ) * trunc_gauss_moment_quad(params.gamma, params.sigma, 1, False)
    s_quad = p * trunc_gauss_moment_quad(params.gamma, params.sigma, 2, True) + (
        1.0 - p
    ) * trunc_gauss_moment_quad(params.gamma, params.sigma, 2, False)
    assert params.m == pytest.approx(m_quad, rel=1e-9)
    assert params.alpha_sq == pytest.approx(s_quad, rel=1e-8)


def test_sigma_is_inverse_sqrt_d():
    for d in (2, 10, 4096):
        assert privunitg.gauss_params(d, 0.9, 0.8).sigma == 1.0 / math.sqrt(d)


def test_large_d_error_scaling():
    # m^2 err = alpha_sq + (d-1)/d - m^2 -> 1 as d grows at fixed budget
    res = tuner.tune(8.0, 10000, "privunitg")
    bd = privunitg.analytic_err_g(res.params)
    assert abs(bd.err * bd.m * bd.m - 1.0) <= 0.05


def test_threshold_bound_at_tuned_params():
    # q <= sigmoid(eps) caps the threshold: gamma^2 <= 2 ln(e^eps + 1) / d
    for eps in (1.0, 4.0, 16.0):
        for d in (16, 1024):
            params = tuner.tune(eps, d, "privunitg").params
            bound = 2.0 * (eps + math.log1p(math.exp(-eps))) / d
            assert params.gamma * params.gamma <= bound + 1e-15


def test_quantile_round_trip_inside_params():
    from ldpmean.specfun import std_normal_cdf

    for d, p, q in ((32, 0.9, 0.97), (2, 0.6, 0.5), (1024, 1.0, 1.0 - 1e-12)):
        params = privunitg.gauss_params(d, p, q)
        assert std_normal_cdf(params.g_std) == pytest.approx(params.q, abs=1e-12)
        assert params.gamma == params.sigma * params.g_std
        # the masses are those of the stored threshold, bit for bit
        assert params.q_comp == std_normal_cdf(-params.g_std)


# --- validation -------------------------------------------------------------

def test_gauss_params_validation():
    with pytest.raises(ValueError):
        privunitg.gauss_params(1, 0.9, 0.8)
    with pytest.raises(ValueError):
        privunitg.gauss_params(4, 0.4, 0.8)
    with pytest.raises(ValueError):
        privunitg.gauss_params(4, 0.9, 0.4)
    with pytest.raises(ValueError):
        privunitg.gauss_params(4, 0.9, 1.0)
    with pytest.raises(DegenerateParameterError):
        privunitg.gauss_params(4, 0.5, 0.5)


# --- sampling ---------------------------------------------------------------

def test_randomize_g_determinism_and_decomposition():
    e1 = np.zeros(8)
    e1[0] = 1.0
    # the generic input, the poles e_1 and -e_1, and the circle (d = 2)
    for v in (np.ones(8) / math.sqrt(8.0), e1, -e1, np.array([0.6, -0.8]), np.array([-1.0, 0.0])):
        params = privunitg.gauss_params(v.size, 0.9, 0.8)
        out1 = privunitg.randomize_g(v, params, RngStream(21, 4))
        out2 = privunitg.randomize_g(v, params, RngStream(21, 4))
        np.testing.assert_array_equal(out1, out2)
        # out*m = alpha v + perp with perp exactly orthogonal to v
        w = out1 * params.m
        alpha = float(np.dot(w, v))
        perp = w - alpha * v
        assert abs(float(np.dot(perp, v))) <= 1e-12


def test_gaussian_names_delegate_to_privunit(monkeypatch):
    # randomize_g, randomize_g_batch and analytic_err_g are each one call of
    # the privunit function they name, with their own arguments
    params, v, rng = privunitg.gauss_params(4, 0.9, 0.8), np.array([1.0, 0.0, 0.0, 0.0]), RngStream(0)
    for twin, name, args in ((privunitg.randomize_g, "randomize", (v, params, rng)),
                             (privunitg.randomize_g_batch, "randomize_batch", (v, params, 3, rng)),
                             (privunitg.analytic_err_g, "analytic_err", (params,))):
        calls = []
        monkeypatch.setattr(privunit, name, lambda *got, name=name: calls.append(got) or name)
        assert twin(*args) == name
        assert len(calls) == 1 and len(calls[0]) == len(args), name
        assert all(a is b for a, b in zip(calls[0], args)), name


def test_randomize_g_rejects_dimension_mismatch():
    params = privunitg.gauss_params(8, 0.9, 0.8)
    with pytest.raises(ValueError):
        privunitg.randomize_g(np.ones(7) / math.sqrt(7.0), params, RngStream(0))


def test_randomize_g_scalar_unbiased():
    params = privunitg.gauss_params(8, 0.9, 0.8)
    err = privunitg.analytic_err_g(params).err
    v = np.zeros(8)
    v[0] = 0.6
    v[1] = 0.8
    n = 4000
    total = np.zeros(8)
    for j in range(n):
        total += privunitg.randomize_g(v, params, RngStream(13, j + 1))
    assert float(np.linalg.norm(total / n - v)) <= 4.0 * math.sqrt(err / n)


def test_randomize_g_batch_moments():
    d, size = 16, 40000
    params = privunitg.gauss_params(d, 0.9, 0.85)
    v = np.zeros(d)
    v[0] = 1.0
    out = privunitg.randomize_g_batch(v, params, size, RngStream(8, 8))
    assert out.shape == (size, d)
    alpha = out @ v * params.m
    var_alpha = params.alpha_sq - params.m * params.m
    assert abs(float(alpha.mean()) - params.m) <= 4.0 * math.sqrt(var_alpha / size)
    # second moment of alpha and of one orthogonal coordinate
    assert float(np.mean(alpha**2)) == pytest.approx(
        params.alpha_sq, abs=4.0 * float(np.std(alpha**2)) / math.sqrt(size)
    )
    perp_coord = out[:, 1] * params.m
    s2 = params.sigma * params.sigma
    assert float(np.mean(perp_coord**2)) == pytest.approx(
        s2, abs=4.0 * float(np.std(perp_coord**2)) / math.sqrt(size)
    )
    # the truncation side is chosen with probability exactly p
    frac_above = float(np.mean(alpha >= params.gamma))
    assert abs(frac_above - params.p) <= 4.0 * math.sqrt(params.p * params.p_comp / size)


def test_randomize_g_batch_validation():
    params = privunitg.gauss_params(4, 0.9, 0.8)
    with pytest.raises(ValueError):
        privunitg.randomize_g_batch(np.array([1.0, 0.0, 0.0, 0.0]), params, 0, RngStream(0))
    with pytest.raises(ValueError):
        privunitg.randomize_g_batch(np.array([1.0, 0.0]), params, 3, RngStream(0))


# --- density ----------------------------------------------------------------

def test_log_density_level_difference():
    params = privunitg.gauss_params(6, 0.9, 0.8)
    v = np.zeros(6)
    v[0] = 1.0
    u = (params.gamma + params.sigma) / params.m * v
    delta = privunit.log_density(u, v, params) - privunit.log_density(u, -v, params)
    assert abs(delta - params.budget) <= 1e-13 * max(1.0, abs(params.budget))
    with pytest.raises(ValueError):
        privunit.log_density(np.zeros(5), v, params)


def test_log_density_integrates_to_one_d2():
    # explicit normalization check: Gauss-Legendre panels split at the
    # level discontinuity x = gamma/m, well past the Gaussian tails
    params = privunitg.gauss_params(2, 0.9, 0.8)
    v = np.array([1.0, 0.0])
    scale = params.sigma / params.m
    L = 10.0 * scale
    split = params.gamma / params.m
    nodes, weights = np.polynomial.legendre.leggauss(120)

    def seg(lo, hi):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return mid + half * nodes, half * weights

    mass = 0.0
    ys, wy = seg(-L, L)
    for xa, wx in (seg(-L, split), seg(split, L)):
        for x, wxi in zip(xa, wx):
            row = sum(
                wyi * math.exp(privunit.log_density(np.array([x, y]), v, params))
                for y, wyi in zip(ys, wy)
            )
            mass += wxi * row
    assert mass == pytest.approx(1.0, abs=1e-6)
