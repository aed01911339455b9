import math

import numpy as np
import pytest

from ldpmean import cli, tuner
from ldpmean import specfun as sf
from ldpmean.errors import NumericsError

from oracles import beta_cdf_quad, normal_cdf_quad, trunc_gauss_moment_quad, trunc_gauss_moments


def test_reg_inc_beta_endpoints_and_midpoint():
    assert sf.reg_inc_beta(0.0, 3.0, 4.0) == 0.0
    assert sf.reg_inc_beta(1.0, 3.0, 4.0) == 1.0
    # exact symmetry value, also for very large shapes
    assert sf.reg_inc_beta(0.5, 2.0, 2.0) == 0.5
    assert sf.reg_inc_beta(0.5, 24999.5, 24999.5) == 0.5


def test_reg_inc_beta_closed_forms():
    # I_x(2,2) = x^2 (3 - 2x)
    for x in (0.1, 0.25, 0.5, 0.9):
        assert math.isclose(sf.reg_inc_beta(x, 2.0, 2.0), x * x * (3.0 - 2.0 * x), rel_tol=1e-13)
    assert math.isclose(sf.reg_inc_beta(0.25, 2.0, 2.0), 0.15625, rel_tol=1e-14)
    # I_x(1,1) = x
    assert math.isclose(sf.reg_inc_beta(0.37, 1.0, 1.0), 0.37, rel_tol=1e-14)
    # reference computed with 50-digit arithmetic
    assert math.isclose(sf.reg_inc_beta(0.6, 31.5, 31.5), 0.94490609874570535151, rel_tol=1e-13)


def test_reg_inc_beta_complement_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = float(np.exp(rng.uniform(np.log(0.6), np.log(300.0))))
        b = float(np.exp(rng.uniform(np.log(0.6), np.log(300.0))))
        x = float(rng.uniform(0.02, 0.98))
        lhs = sf.reg_inc_beta(x, a, b)
        rhs = 1.0 - sf.reg_inc_beta(1.0 - x, b, a)
        assert abs(lhs - rhs) <= 1e-14


def test_reg_inc_beta_against_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = float(np.exp(rng.uniform(np.log(0.6), np.log(40.0))))
        b = float(np.exp(rng.uniform(np.log(0.6), np.log(40.0))))
        x = float(rng.uniform(0.02, 0.98))
        assert abs(sf.reg_inc_beta(x, a, b) - beta_cdf_quad(x, a, b)) <= 1e-10


@pytest.mark.parametrize(
    "a,x,ref",
    [
        # I_x(a, a) at d = 1024 and d = 10^6, from a 40-digit continued fraction
        (511.5, 0.49, 0.26121793815205175),
        (511.5, 0.45, 0.00067368600154336542),
        (511.5, 0.4, 5.2112025215511339e-11),
        (511.5, 0.3, 5.7605538070609554e-41),
        (511.5, 0.2, 1.5066817990646335e-101),
        (499999.5, 0.4999, 0.42074034843524277),
        (499999.5, 0.4995, 0.15865537491690984),
        (499999.5, 0.499, 0.022750104952571),
        (499999.5, 0.4985, 0.0013498780883238629),
        (499999.5, 0.498, 3.1669502068405913e-5),
    ],
)
def test_reg_inc_beta_large_symmetric_shapes(a, x, ref):
    # the front factor of I_x(a, a) is a ln(4x(1-x)) - ln(4^a B(a, a)), two
    # terms of moderate size, so its precision does not fall with the shape
    tol = 2e-13 if a < 1000.0 else 5e-13
    assert sf.reg_inc_beta(x, a, a) == pytest.approx(ref, rel=tol, abs=0.0)


def test_reg_inc_beta_domain():
    with pytest.raises(ValueError):
        sf.reg_inc_beta(-0.1, 2.0, 2.0)
    with pytest.raises(ValueError):
        sf.reg_inc_beta(1.1, 2.0, 2.0)
    with pytest.raises(ValueError):
        sf.reg_inc_beta(0.5, 0.0, 2.0)
    with pytest.raises(ValueError):
        sf.reg_inc_beta(0.5, 2.0, -1.0)
    # an infinite or NaN shape is refused up front, not by the fraction's
    # iteration budget (an OverflowError from int(inf) before)
    for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="shape parameters"):
            sf.reg_inc_beta(0.3, a, b)


def test_inv_reg_inc_beta_round_trip_moderate():
    rng = np.random.default_rng(3)
    for _ in range(60):
        a = float(np.exp(rng.uniform(np.log(0.6), np.log(200.0))))
        b = float(np.exp(rng.uniform(np.log(0.6), np.log(200.0))))
        y = float(rng.uniform(1e-4, 1.0 - 1e-4))
        x = sf.inv_reg_inc_beta(y, a, b)
        assert 0.0 < x < 1.0
        assert abs(sf.reg_inc_beta(x, a, b) - y) <= 1e-11


def test_inv_reg_inc_beta_deep_tails():
    # tail targets must be hit with small relative residual; y = 0.3455 at
    # d = 10^6 is the cap mass tune(1, 10**6, "privunit") inverts
    for y, a in ((1e-12, 31.5), (6.3e-16, 24999.5), (1e-20, 15.5), (1e-8, 0.5), (0.3455, 499999.5)):
        x = sf.inv_reg_inc_beta(y, a, a)
        back = sf.reg_inc_beta(x, a, a)
        assert abs(back - y) <= 1e-10 * y


def test_inv_reg_inc_beta_endpoints_and_midpoint():
    assert sf.inv_reg_inc_beta(0.0, 3.0, 5.0) == 0.0
    assert sf.inv_reg_inc_beta(1.0, 3.0, 5.0) == 1.0
    assert sf.inv_reg_inc_beta(0.5, 17.5, 17.5) == 0.5
    for y, a, b in ((0.5, 0.0, 2.0), (0.5, 2.0, -1.0), (-0.1, 2.0, 2.0), (1.1, 2.0, 2.0)):
        with pytest.raises(ValueError):
            sf.inv_reg_inc_beta(y, a, b)
    # refused by the kernel's own shape check, before any math.lgamma call
    for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="shape parameters"):
            sf.inv_reg_inc_beta(0.3, a, b)


def test_inv_reg_inc_beta_monotone():
    ys = np.linspace(0.01, 0.99, 33)
    xs = [sf.inv_reg_inc_beta(float(y), 4.5, 9.0) for y in ys]
    assert all(x1 < x2 for x1, x2 in zip(xs, xs[1:]))


def test_inv_reg_inc_beta_newton_step_where_the_mass_underflows():
    # the start at y = 1e-300 lies where I_x underflows to 0, so the first
    # step is Newton's on I itself rather than on ln I
    x = sf.inv_reg_inc_beta(1e-300, 1.5, 1.5)
    assert x == pytest.approx(7.02695916600467e-201, rel=1e-12)
    assert sf.reg_inc_beta(x, 1.5, 1.5) == pytest.approx(1e-300, rel=1e-12)


def test_continued_fraction_budget_exhausted_raises(monkeypatch, capsys):
    # one term leaves the fraction unconverged: the kernel, the tuner and
    # the CLI each report a numeric failure
    monkeypatch.setattr(sf, "_cf_budget", lambda a, b: 1)
    with pytest.raises(NumericsError, match="did not converge in 1 iterations"):
        sf.reg_inc_beta(0.49, 50.5, 50.5)
    with pytest.raises(NumericsError):
        tuner.tune(8.0, 1024, "privunit")
    assert cli.main(["tune", "--alg", "privunit", "--eps", "8", "--d", "1024"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: incomplete beta continued fraction")


def test_inv_reg_inc_beta_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(sf, "_MAX_ITER", 1)
    with pytest.raises(NumericsError, match="inverse incomplete beta did not converge"):
        sf.inv_reg_inc_beta(0.3, 7.5, 7.5)


def test_std_normal_cdf_reference_and_quadrature():
    assert sf.std_normal_cdf(0.0) == 0.5
    # reference computed with 50-digit arithmetic
    assert math.isclose(sf.std_normal_cdf(1.0), 0.84134474606854294859, rel_tol=1e-15)
    for x in (-5.5, -2.0, -0.3, 0.7, 3.1, 5.9):
        assert abs(sf.std_normal_cdf(x) - normal_cdf_quad(x)) <= 1e-13


def test_std_normal_pdf_values():
    assert math.isclose(sf.std_normal_pdf(0.0), 0.39894228040143267794, rel_tol=1e-15)
    assert sf.std_normal_pdf(50.0) == 0.0  # underflows cleanly


def test_inv_std_normal_cdf_forward_residual():
    # |cdf(quantile(p)) - p| small across the full representable range
    ps = np.concatenate(
        [
            np.geomspace(1e-15, 0.4, 300),
            np.linspace(0.4, 0.6, 50),
            1.0 - np.geomspace(1e-15, 0.4, 300),
        ]
    )
    worst = 0.0
    for p in ps:
        x = sf.inv_std_normal_cdf(float(p))
        worst = max(worst, abs(sf.std_normal_cdf(x) - p))
    assert worst <= 1e-12


def test_inv_std_normal_cdf_round_trip():
    # left half-line: cdf values carry full relative precision, so the
    # round trip through the quantile is tight
    for x in np.linspace(-37.0, 0.0, 371):
        p = sf.std_normal_cdf(float(x))
        assert abs(sf.inv_std_normal_cdf(p) - x) <= 1e-9
    # right tail: cdf values sit next to 1.0, where the float grid spacing
    # itself costs spacing(p)/pdf(x) in x; allow exactly that floor
    for x in np.linspace(0.0, 6.0, 61)[1:]:
        p = sf.std_normal_cdf(float(x))
        floor = np.spacing(p) / sf.std_normal_pdf(float(x))
        assert abs(sf.inv_std_normal_cdf(p) - x) <= max(1e-9, floor)


# Phi^-1(p) at the double p, to 22 digits from 60-digit root finding on
# Phi: from 1e-300 to 1 - 2^-53, with both sides of AS241's switches at
# |p - 1/2| = 0.425 and at r = sqrt(-ln min(p, 1 - p)) = 5 (p near e^-25)
_NORMAL_QUANTILES = [
    (1e-300, -37.04709629936119923655),
    (1e-200, -30.20559417957964306312),
    (1e-100, -21.27345356096532429418),
    (1e-50, -14.93333753478848898066),
    (1e-20, -9.262340089798407579572),
    (1e-12, -7.034483825301131932614),
    (1.3874055921099057e-11, -6.658051731427321503911),
    (1.3901831808828983e-11, -6.657757699476796981585),
    (1e-08, -5.61200124417478872793),
    (0.0001, -3.719016485455680552288),
    (0.05, -1.644853626951472687952),
    (0.07499, -1.439602118239316209159),
    (0.07501, -1.439460830821625830439),
    (0.25, -0.6744897501960817432022),
    (0.4, -0.2533471031357997413247),
    (0.5 - 2.0**-40, -2.279765135091111462694e-12),
    (0.5 + 2.0**-30, 2.334479498333298139919e-9),
    (0.6, 0.2533471031357997413247),
    (0.92499, 1.439460830821625634383),
    (0.92501, 1.439602118239316209159),
    (0.999, 3.090232306167813277758),
    (1.0 - 1e-9, 5.997807019601637426423),
    (1.0 - 2.0**-40, 7.047700256664408725351),
    (1.0 - 2.0**-53, 8.209536151601386855631),
]


@pytest.mark.parametrize("p, ref", _NORMAL_QUANTILES)
def test_inv_std_normal_cdf_reference_values(p, ref):
    # the docstring's relative error, with two ulps of slack
    assert sf.inv_std_normal_cdf(p) == pytest.approx(ref, rel=2e-15, abs=0.0)


def test_inv_std_normal_cdf_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            sf.inv_std_normal_cdf(bad)


# the truncated Gaussian moments of ``oracles.trunc_gauss_moments``, the closed
# form that the PrivUnitG moment identities are checked against

def test_trunc_gauss_moments_reference_values():
    # references computed with 50-digit arithmetic
    m_above, s_above, m_below, s_below = trunc_gauss_moments(1.0, 1.0)
    assert math.isclose(m_above, 1.5251352761609812091, rel_tol=1e-13)
    assert math.isclose(s_above, 2.5251352761609812091, rel_tol=1e-13)
    m_above2, _, _, _ = trunc_gauss_moments(1.0, 2.0)
    assert math.isclose(m_above2, 2.2821555407361289618, rel_tol=1e-13)
    # symmetric threshold: E[U | U >= 0] = sigma * sqrt(2/pi)
    m_above0, s_above0, m_below0, s_below0 = trunc_gauss_moments(0.0, 1.0)
    assert math.isclose(m_above0, 0.79788456080286535588, rel_tol=1e-14)
    assert m_below0 == -m_above0
    assert s_above0 == 1.0 and s_below0 == 1.0


def test_trunc_gauss_moments_identities():
    # total mean zero and total second moment sigma^2, mass-weighted
    for sigma in (1.0, 0.125, 0.01767766952966369):
        for g in (-6.0, -2.5, -1.0, -0.25, 0.0, 0.4, 1.0, 3.0, 6.0):
            gamma = g * sigma
            m_above, s_above, m_below, s_below = trunc_gauss_moments(gamma, sigma)
            mass_above = 0.5 * math.erfc(g / math.sqrt(2.0))
            mass_below = 0.5 * math.erfc(-g / math.sqrt(2.0))
            mean = mass_above * m_above + mass_below * m_below
            second = mass_above * s_above + mass_below * s_below
            assert abs(mean) <= 1e-10 * sigma
            assert abs(second - sigma * sigma) <= 1e-10 * sigma * sigma


def test_trunc_gauss_moments_against_quadrature():
    for sigma in (1.0, 0.1767766952966369):
        for gamma in (-1.5 * sigma, -0.3 * sigma, 0.0, 0.8 * sigma, 2.5 * sigma):
            m_above, s_above, m_below, s_below = trunc_gauss_moments(gamma, sigma)
            assert abs(m_above - trunc_gauss_moment_quad(gamma, sigma, 1, True)) <= 1e-10
            assert abs(s_above - trunc_gauss_moment_quad(gamma, sigma, 2, True)) <= 1e-10
            assert abs(m_below - trunc_gauss_moment_quad(gamma, sigma, 1, False)) <= 1e-10
            assert abs(s_below - trunc_gauss_moment_quad(gamma, sigma, 2, False)) <= 1e-10


def test_vectorized_kernels_match_scalar():
    rng = np.random.default_rng(5)
    rng.uniform(0.001, 0.999, size=200)  # keeps the draws below as they were
    ys = np.concatenate([rng.uniform(1e-6, 1.0 - 1e-6, size=100), [1e-12, 0.5, 1.0 - 1e-10]])
    for a in (31.5, 1023.5, 24999.5, 499999.5):
        vec = sf._inv_reg_inc_beta_vec(ys, a, a)
        scal = np.array([sf.inv_reg_inc_beta(float(y), a, a) for y in ys])
        np.testing.assert_allclose(vec, scal, rtol=0, atol=2e-13)
    # small shapes: the vec kernel starts from the same power-law tails
    vec = sf._inv_reg_inc_beta_vec(ys[:20], 0.5, 0.5)
    scal = np.array([sf.inv_reg_inc_beta(float(y), 0.5, 0.5) for y in ys[:20]])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=1e-15)
    # a root below the smallest double rounds to 0 in both kernels
    assert sf.inv_reg_inc_beta(1.5e-190, 0.5, 0.5) == 0.0
    assert sf._inv_reg_inc_beta_vec(np.array([1.5e-190]), 0.5, 0.5)[0] == 0.0
    ps = rng.uniform(1e-12, 1.0 - 1e-12, size=300)
    vq = sf._inv_std_normal_cdf_vec(ps)
    sq = np.array([sf.inv_std_normal_cdf(float(p)) for p in ps])
    np.testing.assert_array_equal(vq, sq)
