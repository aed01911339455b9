import math

import numpy as np
import pytest

from ldpmean import cli, sphere, tuner
from ldpmean import specfun as sf
from ldpmean.errors import NumericsError

from oracles import beta_cdf_quad, normal_cdf_quad, trunc_gauss_moment_quad, trunc_gauss_moments


def test_reg_inc_beta_endpoints_and_midpoint():
    assert sf.reg_inc_beta(0.0, 3.0) == 0.0
    assert sf.reg_inc_beta(1.0, 3.0) == 1.0
    # exact symmetry value, also for very large shapes
    assert sf.reg_inc_beta(0.5, 2.0) == 0.5
    assert sf.reg_inc_beta(0.5, 24999.5) == 0.5


def test_reg_inc_beta_closed_forms():
    # I_x(2,2) = x^2 (3 - 2x)
    for x in (0.1, 0.25, 0.5, 0.9):
        assert math.isclose(sf.reg_inc_beta(x, 2.0), x * x * (3.0 - 2.0 * x), rel_tol=1e-13)
    assert math.isclose(sf.reg_inc_beta(0.25, 2.0), 0.15625, rel_tol=1e-14)
    # I_x(1,1) = x
    assert math.isclose(sf.reg_inc_beta(0.37, 1.0), 0.37, rel_tol=1e-14)
    # reference computed with 50-digit arithmetic
    assert math.isclose(sf.reg_inc_beta(0.6, 31.5), 0.94490609874570535151, rel_tol=1e-13)


def test_reg_inc_beta_complement_symmetry():
    # Beta(a, a) is symmetric about 1/2: I_x(a, a) = 1 - I_{1-x}(a, a)
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = float(np.exp(rng.uniform(np.log(0.6), np.log(300.0))))
        x = float(rng.uniform(0.02, 0.98))
        assert abs(sf.reg_inc_beta(x, a) - (1.0 - sf.reg_inc_beta(1.0 - x, a))) <= 1e-14


def test_reg_inc_beta_against_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = float(np.exp(rng.uniform(np.log(0.6), np.log(40.0))))
        x = float(rng.uniform(0.02, 0.98))
        assert abs(sf.reg_inc_beta(x, a) - beta_cdf_quad(x, a, a)) <= 1e-10


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
    assert sf.reg_inc_beta(x, a) == pytest.approx(ref, rel=tol, abs=0.0)


def test_reg_inc_beta_domain():
    with pytest.raises(ValueError):
        sf.reg_inc_beta(-0.1, 2.0)
    with pytest.raises(ValueError):
        sf.reg_inc_beta(1.1, 2.0)
    with pytest.raises(ValueError):
        sf.reg_inc_beta(0.5, 0.0)
    with pytest.raises(ValueError):
        sf.reg_inc_beta(0.5, -1.0)
    # an infinite or NaN shape is refused up front, not by the fraction's
    # iteration budget (an OverflowError from int(inf) before)
    for a in (math.inf, math.nan):
        with pytest.raises(ValueError, match="shape parameter"):
            sf.reg_inc_beta(0.3, a)


def test_inv_reg_inc_beta_round_trip_moderate():
    rng = np.random.default_rng(3)
    for _ in range(60):
        a = float(np.exp(rng.uniform(np.log(0.6), np.log(200.0))))
        y = float(rng.uniform(1e-4, 1.0 - 1e-4))
        x = sf.inv_reg_inc_beta(y, a)
        assert 0.0 < x < 1.0
        assert abs(sf.reg_inc_beta(x, a) - y) <= 1e-11


def test_inv_reg_inc_beta_deep_tails():
    # tail targets must be hit with small relative residual; y = 0.3455 at
    # d = 10^6 is the cap mass tune(1, 10**6, "privunit") inverts
    for y, a in ((1e-12, 31.5), (6.3e-16, 24999.5), (1e-20, 15.5), (1e-8, 0.5), (0.3455, 499999.5)):
        x = sf.inv_reg_inc_beta(y, a)
        back = sf.reg_inc_beta(x, a)
        assert abs(back - y) <= 1e-10 * y


def test_inv_reg_inc_beta_endpoints_and_midpoint():
    assert sf.inv_reg_inc_beta(0.0, 3.0) == 0.0
    assert sf.inv_reg_inc_beta(1.0, 3.0) == 1.0
    assert sf.inv_reg_inc_beta(0.5, 17.5) == 0.5
    for y, a in ((0.5, 0.0), (0.5, -1.0), (-0.1, 2.0), (1.1, 2.0)):
        with pytest.raises(ValueError):
            sf.inv_reg_inc_beta(y, a)
    # refused by the kernel's own shape check, before any math.lgamma call
    for a in (math.inf, math.nan):
        with pytest.raises(ValueError, match="shape parameter"):
            sf.inv_reg_inc_beta(0.3, a)


def test_inv_reg_inc_beta_monotone():
    ys = np.linspace(0.01, 0.99, 33)
    xs = [sf.inv_reg_inc_beta(float(y), 4.5) for y in ys]
    assert all(x1 < x2 for x1, x2 in zip(xs, xs[1:]))


def test_inv_reg_inc_beta_newton_step_where_the_mass_underflows():
    # the start at y = 1e-300 lies where I_x underflows to 0 as a double;
    # the residual ln I - ln y is taken as ln front + ln(CF/a), which does
    # not, so Newton's steps in s = -ln x start from there
    x = sf.inv_reg_inc_beta(1e-300, 1.5)
    assert x == pytest.approx(7.02695916600467e-201, rel=1e-12)
    assert sf.reg_inc_beta(x, 1.5) == pytest.approx(1e-300, rel=1e-12)


# the cap masses sigmoid(-eps) at the envelope's eps and 128, and y from 1e-300 to 0.45
_CAP_EPS = (1e-3, 0.1, 1.0, 8.0, 32.0, 64.0, 128.0, 256.0, 512.0, 700.0)
_CAP_TARGETS = [math.exp(-e) / (1.0 + math.exp(-e)) for e in _CAP_EPS] + [10.0**k for k in range(-300, 0, 7)] + [0.2, 0.45]


@pytest.mark.parametrize("y", _CAP_TARGETS)
def test_inv_reg_inc_beta_closed_forms(y):
    # I_x(1, 1) = x, and I_x(1/2, 1/2) = (2/pi) asin(sqrt x), so x = sin(pi y/2)^2:
    # to 1e-13 relative, to one step of the subnormal grid where that root
    # is subnormal, and 0.0 where it underflows
    assert sf.inv_reg_inc_beta(y, 1.0) == pytest.approx(y, rel=1e-13, abs=0.0)
    ref = math.sin(0.5 * math.pi * y) ** 2
    x = sf.inv_reg_inc_beta(y, 0.5)
    if ref == 0.0:
        assert x == 0.0
    else:
        assert x == pytest.approx(ref, rel=1e-13, abs=5e-324)


def test_inv_reg_inc_beta_fraction_evaluations(monkeypatch):
    # Newton's steps on ln I in s = -ln x are exact where I is a power law of
    # x, so every cap threshold of sigmoid(-eps) takes at most 4 fractions;
    # bisecting x took 79 at d = 2 (eps 512, 700) and d = 4 (eps 700). So
    # does every target of the closed forms at a = 1/2 and 1: the search
    # ends at the smallest normal double, and the last correction places a
    # subnormal root (1e-160 at a = 1/2 took 34 where it walked the
    # subnormals)
    calls = []
    cf = sf._beta_cf
    monkeypatch.setattr(sf, "_beta_cf", lambda *args: calls.append(args) or cf(*args))
    for d in (2, 3, 4, 5, 6, 16, 44, 1024, 50_000, 1_000_000):
        for eps in _CAP_EPS:
            calls.clear()
            sphere.inv_marginal_cdf(math.exp(-eps) / (1.0 + math.exp(-eps)), d)
            assert len(calls) <= 4, (d, eps, len(calls))
    for a in (0.5, 1.0):
        for y in _CAP_TARGETS:
            calls.clear()
            sf.inv_reg_inc_beta(y, a)
            assert len(calls) <= 4, (a, y, len(calls))


def test_inv_reg_inc_beta_stays_in_the_unit_interval_where_i_is_flat():
    # at the last double below y = 1/2 the search ends within tol of its
    # end at x = 1/2, and the last probe's Newton correction would step past
    # 1/2 where I is flat to the last bits of y (at a = 1/2, r/(dr/ds) is
    # 1.4e-15 against s - ln 2 = 2.2e-16): the correction stops at 1/2, so
    # the root stays in the lower half of the unit interval
    for a in (0.5, 499999.5):
        assert 0.0 <= sf.inv_reg_inc_beta(math.nextafter(0.5, 0.0), a) <= 0.5


def _root_probes(f, a, b, tol):
    probes = []

    def recorded(t):
        probes.append(t)
        return f(t)

    sf._root(recorded, 0.5 * (a + b), a, b, tol)
    return probes


def test_root_finds_an_interior_root():
    tol = 1e-8
    probes = _root_probes(lambda t: (math.exp(-t) - 0.5, -math.exp(-t)), 0.0, 3.0, tol)
    assert abs(probes[-1] - math.log(2.0)) <= tol
    # Newton's steps converge in a handful of probes; bisection alone
    # would take log2(3/tol) = 28
    assert len(probes) <= 8


def test_root_starts_from_its_clamped_start():
    # a start on the root ends after one probe; a start outside the bracket
    # is clamped to tol inside it, like any other probe
    tol = 1e-8
    probes = []

    def f(t):
        probes.append(t)
        return 0.3 - t, -1.0

    sf._root(f, 0.3, 0.0, 1.0, tol)
    assert probes == [0.3]
    for start, first in ((-5.0, tol), (7.0, 1.0 - tol)):
        probes.clear()
        sf._root(f, start, 0.0, 1.0, tol)
        assert probes[0] == first and abs(probes[-1] - 0.3) <= tol


def test_root_probes_the_midpoint_of_a_bracket_narrower_than_2_tol():
    # no probe lies tol inside a bracket narrower than 2 tol: the clamp
    # collapses onto the midpoint, which is then the one probe, whatever the start
    for start in (-5.0, 0.3, 7.0):
        for tol in (0.75, 3.0):
            probes = []

            def f(t):
                probes.append(t)
                return 0.9 - t, -1.0

            sf._root(f, start, 0.0, 1.0, tol)
            assert probes == [0.5], (start, tol)


def test_root_bisects_where_newton_steps_creep():
    # a slope 100 times too steep makes each Newton step 1% of the way to
    # the root; a step that fails to halve the one before it is replaced by
    # a bisection, so the search ends within about bisection's 27 probes
    # where the steps alone would creep on for over a thousand. It stops on
    # a Newton step below tol, which the slope makes 100 times too short
    tol = 1e-8
    probes = _root_probes(lambda t: (0.3 - t, -100.0), 0.0, 1.0, tol)
    assert abs(probes[-1] - 0.3) <= 100.0 * tol
    assert len(probes) <= 64


@pytest.mark.parametrize("root,end", [(2.0, 1.0), (-1.0, 0.0), (1.0 - 5e-9, 1.0), (5e-9, 0.0)])
def test_root_walks_a_residual_of_one_sign_to_its_end(root, end):
    # a root beyond an end of the bracket, or less than tol inside it,
    # leaves the last probe within 2 tol of that end; a Newton step onto a
    # root less than tol inside is clamped to tol inside
    tol = 1e-8
    probes = _root_probes(lambda t: (root - t, -1.0), 0.0, 1.0, tol)
    assert abs(probes[-1] - end) <= 2.0 * tol
    assert all(tol <= t <= 1.0 - tol for t in probes)


def test_root_stops_on_a_newton_correction_that_rounds_onto_the_probe():
    # a correction of 1e-17 at t = 1/2 is below ulp(t): t - r/dr rounds to
    # t, and the search ends there rather than bisecting away from the root
    probes = _root_probes(lambda t: (1e-17 - (t - 0.5), -1.0), 0.0, 1.0, 2.0**-26)
    assert probes == [0.5]


@pytest.mark.parametrize("f,root", [(lambda t: (2.0 - t, -1.0), None),
                                    (lambda t: (0.9**3 - t**3, -3.0 * t * t), 0.9)],
                         ids=["root-beyond-b", "root-inside"])
def test_root_probes_the_upper_end_where_a_newton_step_passes_it(f, root):
    # a Newton step past b, while no probe has bounded the root from above,
    # probes b - tol in place of a midpoint: a root beyond b ends there after
    # two probes, and one inside continues from the end by Newton steps
    tol = 1e-8
    probes = _root_probes(f, 0.0, 1.0, tol)
    assert probes[:2] == [0.5, 1.0 - tol]
    if root is None:
        assert len(probes) == 2
    else:
        assert abs(probes[-1] - root) <= tol and len(probes) <= 6


def test_root_ends_when_the_residual_returns_none():
    # tune's residual returns None for a float threshold it probed just before
    probes = []

    def f(t):
        probes.append(t)
        return (0.3 - t, -1.0) if len(probes) == 1 else None

    sf._root(f, 0.5, 0.0, 1.0, 1e-8)
    assert probes == [0.5, 0.3]


@pytest.mark.parametrize("f", [lambda t: (0.3 - t, -1.0), lambda t: (50.0 - t, -1.0), lambda t: (-3.0 - t, -1.0),
                               lambda t: (math.exp(-t) - 0.5, -math.exp(-t)), lambda t: (0.7 - t, 1.0),
                               lambda t: (1.0, 0.0), lambda t: (0.0, -1.0),
                               lambda t: (math.cos(9.0 * t), -9.0 * math.sin(9.0 * t))])
def test_root_probes_at_least_tol_inside(f):
    # the feasibility of tune's probes rests on this: no probe reaches
    # within tol of either end of the bracket, whatever the residual,
    # including an exact zero and a slope that is not negative
    for a, b, tol in ((0.0, 1.0, 1e-8), (0.69, 37.4, 2.0**-26 * 36.7), (-2.0, 5.0, 1e-3)):
        for t in _root_probes(f, a, b, tol):
            assert a + tol <= t <= b - tol, (a, b, tol, t)


def test_continued_fraction_budget_exhausted_raises(monkeypatch, capsys):
    # one term leaves the fraction unconverged: the kernel, the tuner and
    # the CLI each report a numeric failure
    monkeypatch.setattr(sf, "_cf_budget", lambda a, b: 1)
    with pytest.raises(NumericsError, match="did not converge in 1 iterations"):
        sf.reg_inc_beta(0.49, 50.5)
    with pytest.raises(NumericsError):
        tuner.tune(8.0, 1024, "privunit")
    assert cli.main(["tune", "--alg", "privunit", "--eps", "8", "--d", "1024"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: incomplete beta continued fraction")


def test_continued_fraction_budget_stops_at_the_largest_dimension_served():
    # 200 + 4 sqrt(a + b) steps up to a + b = 10^8, the largest dimension the
    # package serves; a larger shape, where the fraction can stop converging
    # in floats, is refused before it runs (test_acceptance's domain cases)
    assert sf._cf_budget(4.5, 4.5) == 212
    a = 0.5 * (10**8 - 1)
    assert sf._cf_budget(a, a) == 200 + int(4.0 * math.sqrt(10**8 - 1)) == 40199
    assert sf._cf_budget(a + 1.0, a) == 40200


def test_an_underflowed_front_factor_gives_the_mass_without_the_fraction(monkeypatch):
    # where x^a (1-x)^a / B(a, a) underflows, I_x(a, a) is exactly 0 below
    # 1/2 and 1 above, so the fraction is not evaluated
    def unconverged(*args):
        raise NumericsError("the fraction ran")

    monkeypatch.setattr(sf, "_beta_cf", unconverged)
    for x, a in ((0.01, 1000.0), (0.49, 0.5 * (10**8 - 1))):
        assert math.exp(sf._ln_front(x, a)) == 0.0
        assert sf.reg_inc_beta(x, a) == 0.0 and sf.reg_inc_beta(1.0 - x, a) == 1.0
    assert sphere.marginal_cdf(0.5, 10**8) == 1.0


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
        vec = sf._inv_reg_inc_beta_vec(ys, a)
        scal = np.array([sf.inv_reg_inc_beta(float(y), a) for y in ys])
        np.testing.assert_allclose(vec, scal, rtol=0, atol=2e-13)
    # small shapes: the vec kernel starts from the same power-law tails
    vec = sf._inv_reg_inc_beta_vec(ys[:20], 0.5)
    scal = np.array([sf.inv_reg_inc_beta(float(y), 0.5) for y in ys[:20]])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=1e-15)
    # a root below the smallest double rounds to 0 in both kernels
    assert sf.inv_reg_inc_beta(1.5e-190, 0.5) == 0.0
    assert sf._inv_reg_inc_beta_vec(np.array([1.5e-190]), 0.5)[0] == 0.0
    ps = rng.uniform(1e-12, 1.0 - 1e-12, size=300)
    vq = sf._inv_std_normal_cdf_vec(ps)
    sq = np.array([sf.inv_std_normal_cdf(float(p)) for p in ps])
    np.testing.assert_array_equal(vq, sq)
