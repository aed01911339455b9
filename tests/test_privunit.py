"""Tests for the spherical-cap randomizer: normalizer values against closed
forms and quadrature, privacy accounting, sampling invariants, and the
two-level density."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from ldpmean import privunit, privunitg, specfun, sphere, tuner
from ldpmean.errors import DegenerateParameterError, NumericsError, SupportError
from ldpmean.sphere import RngStream, sample_uniform_sphere

from oracles import sphere_first_coord_moment_quad


# --- normalizer -------------------------------------------------------------

def test_normalizer_closed_forms_d3():
    # d = 3: the first coordinate is uniform on [-1, 1], so q = (1+gamma)/2,
    # q(1-q) = (1-gamma^2)/4 and m collapses to p + q - 1
    assert privunit.cap_params(3, 1.0, 0.0).m == pytest.approx(0.5, rel=1e-13)
    assert privunit.cap_params(3, 1.0, 0.5).m == pytest.approx(0.75, rel=1e-13)
    assert privunit.cap_params(3, 0.9, 0.3).m == pytest.approx(0.55, rel=1e-13)
    # the tiniest cap a float gamma expresses keeps its mass q_comp = (1 - gamma)/2
    tiny = privunit.cap_params(3, 0.9, 1.0 - 2.0**-53)
    assert tiny.q_comp == pytest.approx(2.0**-54, rel=1e-14)
    assert tiny.m == pytest.approx(0.9, rel=1e-13)


def test_normalizer_closed_form_d2():
    # circle, p = 1, gamma = 0: m = E[cos theta | upper half] * ... = 2/pi
    assert privunit.cap_params(2, 1.0, 0.0).m == pytest.approx(2.0 / math.pi, rel=1e-13)


def test_alpha_sq_closed_form_d3():
    params = privunit.cap_params(3, 1.0, 0.5)
    assert privunit.analytic_err(params).alpha_sq == pytest.approx(7.0 / 12.0, rel=1e-13)


@pytest.mark.parametrize(
    "d,p,gamma",
    [(2, 0.9, 0.3), (4, 0.8, 0.2), (8, 0.95, 0.5), (16, 0.7, 0.1), (32, 1.0, 0.8)],
)
def test_normalizer_matches_quadrature(d, p, gamma):
    # m = p E[W|W>=g] + (1-p) E[W|W<g] with conditional means from quadrature
    params = privunit.cap_params(d, p, gamma)
    m_above = sphere_first_coord_moment_quad(d, gamma, 1, True)
    m_below = sphere_first_coord_moment_quad(d, gamma, 1, False)
    m_quad = p * m_above + (1.0 - p) * m_below
    assert params.m == pytest.approx(m_quad, rel=1e-8)


@pytest.mark.parametrize("d,p,gamma", [(3, 0.9, 0.2), (8, 0.95, 0.5), (16, 0.8, 0.3)])
def test_alpha_sq_matches_quadrature(d, p, gamma):
    params = privunit.cap_params(d, p, gamma)
    s_above = sphere_first_coord_moment_quad(d, gamma, 2, True)
    s_below = sphere_first_coord_moment_quad(d, gamma, 2, False)
    alpha_sq = privunit.analytic_err(params).alpha_sq
    assert alpha_sq == pytest.approx(p * s_above + (1.0 - p) * s_below, rel=1e-8)


def test_cap_mass_closed_form_d2():
    params = privunit.cap_params(2, 0.9, 0.3)
    assert params.q == pytest.approx(2.0 / math.pi * math.asin(math.sqrt(0.65)), rel=1e-12)
    assert params.q + params.q_comp == pytest.approx(1.0, abs=1e-14)


# --- privacy accounting -----------------------------------------------------

def test_privacy_eps_values_and_endpoints():
    assert privunit.privacy_eps(0.5, 0.5) == 0.0
    assert privunit.privacy_eps(0.9, 0.8) == pytest.approx(math.log(9.0) + math.log(4.0), rel=1e-12)
    assert privunit.privacy_eps(1.0, 0.7) == math.inf
    assert privunit.privacy_eps(0.7, 1.0) == math.inf
    assert privunit.privacy_eps(0.0, 0.5) == math.inf
    assert privunit.privacy_eps(0.5, 0.0) == math.inf
    with pytest.raises(ValueError):
        privunit.privacy_eps(1.2, 0.5)
    with pytest.raises(ValueError):
        privunit.privacy_eps(0.5, -0.1)
    # a complement outside [0, 1] or off 1 - level would understate the budget
    for args in ((0.9, 0.8, 2.0, 0.2), (0.9, 0.8, 0.5, 0.5), (0.9, 0.8, 0.1, -0.2),
                 (0.9, 0.8, 0.1, 0.3), (0.9, 0.8, math.nan, 0.2)):
        with pytest.raises(ValueError, match="complement"):
            privunit.privacy_eps(*args)
    # a complement whose sum with its level is a float step off 1 is accepted
    assert privunit.privacy_eps(0.9, 0.5, 0.1 + 2.0**-52, 0.5) == pytest.approx(math.log(9.0), rel=1e-12)


def test_budget_is_bitwise_privacy_eps():
    params = privunit.cap_params(16, 0.92, 0.4)
    assert params.budget == privunit.privacy_eps(
        params.p, params.q, params.p_comp, params.q_comp
    )


def test_density_levels_reproduce_masses():
    # p = e^{log_hi} q_comp and 1-p = e^{log_lo} q by construction
    params = privunit.cap_params(12, 0.85, 0.35)
    assert math.exp(params.log_level_hi) * params.q_comp == pytest.approx(params.p, rel=1e-12)
    assert math.exp(params.log_level_lo) * params.q == pytest.approx(params.p_comp, rel=1e-12)


# --- validation -------------------------------------------------------------

def test_cap_params_validation():
    for bad in [(1, 0.9, 0.1), (2.5, 0.9, 0.1)]:
        with pytest.raises(ValueError):
            privunit.cap_params(*bad)
    with pytest.raises(ValueError):
        privunit.cap_params(8, 0.49, 0.1)
    with pytest.raises(ValueError):
        privunit.cap_params(8, 1.01, 0.1)
    with pytest.raises(ValueError):
        privunit.cap_params(8, 0.9, 1.0)
    with pytest.raises(ValueError):
        privunit.cap_params(8, 0.9, -0.01)


def test_degenerate_parameters_rejected():
    # p = 1/2 with gamma = 0 mixes the two hemispheres evenly: zero mean
    with pytest.raises(DegenerateParameterError):
        privunit.cap_params(3, 0.5, 0.0)


def test_subnormal_cap_boundary_is_degenerate():
    # at this split x = (1 - gamma)/2 is the subnormal 5.6e-320, whose few
    # significant bits gave the impossible m = 1.00003; the float gamma is 1,
    # a cap of zero mass
    split = tuner.budget_split(512.0, 512.0 * 184 / 256)
    assert 0.0 < specfun.inv_reg_inc_beta(split.q_comp, 0.5) < sys.float_info.min
    with pytest.raises(DegenerateParameterError):
        tuner._params_at(split, 2, "privunit")
    # no split at the largest budgets gives m above 1 beyond rounding
    for eps in (512.0, 700.0):
        for i in range(257):
            try:
                params = tuner._params_at(tuner.budget_split(eps, eps * i / 256), 2, "privunit")
            except DegenerateParameterError:
                continue
            assert params.m <= 1.0 + 1e-12


# --- analytic error ---------------------------------------------------------

@pytest.mark.parametrize("d,p,gamma", [(2, 0.9, 0.3), (8, 0.95, 0.5), (64, 0.99, 0.2)])
def test_error_breakdown_invariants(d, p, gamma):
    params = privunit.cap_params(d, p, gamma)
    bd = privunit.analytic_err(params)
    assert bd.d == d and bd.m == params.m
    assert bd.err == pytest.approx(1.0 / (bd.m * bd.m) - 1.0, rel=1e-12)
    assert bd.err > 0.0
    # alpha is a mean of first coordinates, so E[alpha^2] <= 1 and >= m^2
    assert bd.m * bd.m - 1e-15 <= bd.alpha_sq <= 1.0 + 1e-15


@pytest.mark.parametrize(
    "d,p,x,ref",
    [
        # (d, p, x = (1 - gamma)/2, 1/m^2 - 1 from a 40-digit continued
        # fraction); gamma = 1 - 2x keeps x exact. The three errors below
        # 1e-11 lose most of their digits when 1/m^2 - 1 is taken in doubles
        (2, 0.9, 0.35, 1.5417739705821962),
        (2, 1 - 2.0**-40, 2.0**-50, 1.8201736759525013e-12),
        (2, 1.0, 2.0**-40, 1.2126596023651543e-12),
        (2, 0.5 + 2.0**-10, 0.5, 646813.39402979221),
        (3, 0.75, 0.5, 15.0),
        (3, 1 - 2.0**-45, 2.0**-48, 6.3948846218412084e-14),
        (3, 0.99, 2.0**-7, 0.036599976372809151),
        (16, 0.95, 0.25, 2.3976383214055345),
        (16, 1 - 2.0**-40, 2.0**-30, 3.2888398488505302e-9),
        (16, 1.0, 2.0**-20, 3.3659175906602418e-6),
        (1024, 0.9, 0.45, 104.18620467621968),
        (1024, 0.999, 0.3, 5.1994851568776352),
        (1_000_000, 0.6, 0.4995, 1562339.3911849729),
        (1_000_000, 0.99, 0.499, 181241.48471220812),
    ],
)
def test_analytic_err_matches_reference(d, p, x, ref):
    gamma = 1.0 - 2.0 * x
    assert 0.5 * (1.0 - gamma) == x
    assert privunit.analytic_err(privunit.cap_params(d, p, gamma)).err == pytest.approx(ref, rel=1e-12, abs=0.0)


# --- sampling ---------------------------------------------------------------

def _poles_and_circle(d):
    # the poles e_1 and -e_1 in dimension d, and a generic input on the
    # circle (d = 2)
    e1 = np.zeros(d)
    e1[0] = 1.0
    return [(d, e1), (d, -e1), (2, np.array([0.6, -0.8]))]


def test_randomize_norm_and_determinism():
    for d, v in _poles_and_circle(6) + [(2, np.array([1.0, 0.0]))]:
        params = privunit.cap_params(d, 0.9, 0.4)
        for seed in range(20):
            out1 = privunit.randomize(v, params, RngStream(11, seed))
            out2 = privunit.randomize(v, params, RngStream(11, seed))
            np.testing.assert_array_equal(out1, out2)
            assert abs(float(np.linalg.norm(out1)) * params.m - 1.0) <= 1e-12


def test_report_norms_at_d2_with_a_general_input():
    # a Gaussian row nearly parallel to v keeps a rounding residual along v
    # after one projection; the second projection keeps every report on the
    # radius-1/m sphere to rounding
    v = np.array([0.6, -0.8])
    params = privunit.cap_params(2, 0.9, 0.3)
    out = privunit.randomize_batch(v, params, 100_000, RngStream(29))
    assert np.abs(np.sqrt(np.einsum("ij,ij->i", out, out)) * params.m - 1.0).max() <= 1e-14


def _randomizers(d):
    # (params, multi-row randomize, batch randomize) for both randomizers
    return [
        (privunit.cap_params(d, 0.9, 0.3), privunit.randomize, privunit.randomize_batch),
        (privunitg.gauss_params(d, 0.9, 0.8), privunitg.randomize_g, privunitg.randomize_g_batch),
    ]


def test_scalar_draw_is_one_batch_row():
    # a scalar draw is the one-row batch draw and the draw for the one-row
    # matrix, and a batch of n draws for one input is the draw for the
    # matrix of n copies of it, bit for bit, for both randomizers
    v = np.array([0.6, 0.0, -0.8, 0.0, 0.0])
    for params, one, batch in _randomizers(5):
        for seed in range(10):
            scalar = one(v, params, RngStream(4, seed))
            assert scalar.shape == (5,)
            np.testing.assert_array_equal(scalar, batch(v, params, 1, RngStream(4, seed))[0])
            rows = one(v[None, :], params, RngStream(4, seed))
            assert rows.shape == (1, 5)
            np.testing.assert_array_equal(scalar, rows[0])
    for d in (2, 5, 64, 1024):
        v = sample_uniform_sphere(d, RngStream(8, d))
        for params, one, batch in _randomizers(d):
            for n in (1, 7, 300):
                reports = batch(v, params, n, RngStream(5, n))
                assert reports.shape == (n, d)
                np.testing.assert_array_equal(reports, one(np.tile(v, (n, 1)), params, RngStream(5, n)))


def _jumped(seed, stream_id, jumps):
    # the stream (seed, stream_id) with its Philox counter jumped `jumps` times
    rng = RngStream(seed, stream_id)
    rng._gen = np.random.Generator(rng._gen.bit_generator.jumped(jumps))
    return rng


def _counter(rng) -> int:
    # the 256-bit Philox counter of a stream; one jump adds 2**128
    words = rng._gen.bit_generator.state["state"]["counter"]
    return sum(int(w) << (64 * k) for k, w in enumerate(words))


@pytest.mark.parametrize("d", [16, 1024])
def test_multi_block_draws_follow_the_block_rule(d, monkeypatch):
    # rows are drawn in blocks of sphere._BLOCK_VALUES // d, block b on the
    # call stream jumped b + 1 times, whatever the number of block threads:
    # 1, 2 or 8 workers (more threads than cores, under a short switch
    # interval) give the same reports, and block b, the last one ragged, is
    # the one-block draw of its rows on the jumped stream
    rows = sphere._BLOCK_VALUES // d
    n = 2 * rows + 5
    g = RngStream(9, d).normal((n, d))
    V = g / np.linalg.norm(g, axis=1, keepdims=True)
    for params, one, batch in _randomizers(d):
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(sphere, "_cores", lambda w=workers: w)
                outs.append((one(V, params, RngStream(3, 4)), batch(V[0], params, n, RngStream(3, 5))))
        finally:
            sys.setswitchinterval(interval)
        for rows_out, batch_out in outs[1:]:
            np.testing.assert_array_equal(rows_out, outs[0][0])
            np.testing.assert_array_equal(batch_out, outs[0][1])
        for b, start in enumerate(range(0, n, rows)):
            block = V[start:start + rows]
            np.testing.assert_array_equal(outs[0][0][start:start + rows], one(block, params, _jumped(3, 4, b + 1)))
            np.testing.assert_array_equal(outs[0][1][start:start + rows],
                                          batch(V[0], params, block.shape[0], _jumped(3, 5, b + 1)))


def test_consecutive_multi_block_calls_share_no_block_stream(monkeypatch):
    # the counters where the block streams of two multi-block calls start,
    # and where the call stream stands after them, lie at least one jump
    # (2**128 counter steps) apart, so no two of them share a draw
    starts = []
    block_streams = RngStream._block_streams

    def record(rng, nb):
        blocks = block_streams(rng, nb)
        starts.extend(_counter(b) for b in blocks)
        return blocks

    monkeypatch.setattr(RngStream, "_block_streams", record)
    d = 1024
    v = sample_uniform_sphere(d, RngStream(8, d))
    params = privunitg.gauss_params(d, 0.9, 0.8)
    rows = sphere._BLOCK_VALUES // d
    rng = RngStream(14, 2)
    privunitg.randomize_g_batch(v, params, 3 * rows + 8, rng)  # 4 blocks
    privunit.randomize_batch(v, privunit.cap_params(d, 0.9, 0.3), 2 * rows + 2, rng)  # 3 blocks
    starts.append(_counter(rng))
    assert len(starts) == 4 + 3 + 1
    ordered = sorted(starts)
    assert all(b - a >= 2**128 for a, b in zip(ordered, ordered[1:]))
    # the draw after them is the call stream jumped (4 + 1) + (3 + 1) times
    np.testing.assert_array_equal(rng.uniform(8), _jumped(14, 2, 9).uniform(8))


def test_block_errors_reach_the_caller_typed(monkeypatch):
    # one rejection round leaves lanes of a mass-1/2 side unaccepted inside
    # the block threads; the caller sees the sampler's own NumericsError
    monkeypatch.setattr(sphere, "_MAX_ROUNDS", 1)
    d = 1024
    v = sample_uniform_sphere(d, RngStream(8, d))
    for params, batch in ((privunit.cap_params(d, 0.9, 0.0), privunit.randomize_batch),
                          (privunitg.gauss_params(d, 0.9, 0.5), privunitg.randomize_g_batch)):
        with pytest.raises(NumericsError) as exc:
            batch(v, params, 300, RngStream(2, 2))
        assert type(exc.value) is NumericsError


def test_batch_draws_hold_one_copy_of_the_output(monkeypatch):
    # rows are drawn in cache-sized blocks into one (n, d) output, so the
    # traced peak stays below 1.5 copies of it (a draw in one block holds
    # about two); each block thread holds block-sized scratch, so the
    # thread count is pinned
    monkeypatch.setattr(sphere, "_cores", lambda: 2)
    n, d = 4000, 512
    v = np.zeros(d)
    v[0] = 1.0
    for params, _, batch in _randomizers(d):
        tracemalloc.start()
        try:
            batch(v, params, n, RngStream(1, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("d", [16, 1024])
def test_block_threads_hold_little_scratch(d, cores, monkeypatch):
    # a block writes its reports straight into its slice of the output, so
    # beyond the output each block thread holds less than 3 blocks of
    # traced memory: the Gaussian draw and the block's per-row arrays
    monkeypatch.setattr(sphere, "_cores", lambda: cores)
    rows = sphere._BLOCK_VALUES // d
    n = 4 * rows
    v = np.zeros(d)
    v[0] = 1.0
    for params, _, batch in _randomizers(d):
        tracemalloc.start()
        try:
            batch(v, params, n, RngStream(1, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - n * d * 8 < 3 * cores * rows * d * 8


def _both_algorithms(d):
    # (params, randomize, per-report variance of <X, v>) for both randomizers
    pu = privunit.cap_params(d, 0.9, 0.3)
    pg = privunitg.gauss_params(d, 0.9, 0.8)
    return [
        (pu, privunit.randomize, privunit.analytic_err(pu).alpha_sq / pu.m**2 - 1.0),
        (pg, privunitg.randomize_g, pg.alpha_sq / pg.m**2 - 1.0),
    ]


def test_multi_row_draw_centres_each_report_on_its_row():
    # distinct unit rows v_j, one report each: <X_j, v_j> has mean 1 and
    # variance alpha_sq/m^2 - 1, so the pooled sum <X_j, v_j> - n lies
    # within 4 standard errors; PrivUnit reports lie on the radius-1/m sphere
    n, d = 20000, 8
    g = RngStream(6).normal((n, d))
    V = g / np.linalg.norm(g, axis=1, keepdims=True)
    for params, randomize, var_par in _both_algorithms(d):
        X = randomize(V, params, RngStream(6, 1))
        assert X.shape == (n, d)
        if randomize is privunit.randomize:
            assert float(np.max(np.abs(np.linalg.norm(X, axis=1) * params.m - 1.0))) <= 1e-9
        par = np.einsum("ij,ij->i", X, V)
        assert abs(float(par.sum()) - n) <= 4.0 * math.sqrt(n * var_par)


def test_randomize_rejects_dimension_mismatch():
    params = privunit.cap_params(6, 0.9, 0.4)
    with pytest.raises(ValueError):
        privunit.randomize(np.ones(5) / math.sqrt(5.0), params, RngStream(0))
    with pytest.raises(ValueError):
        privunit.randomize(np.ones((3, 5)) / math.sqrt(5.0), params, RngStream(0))


def test_randomize_rejects_non_finite_input():
    for params, randomize, _ in _both_algorithms(2):
        for bad in ([math.nan, 0.0], [math.inf, 0.0], [[1.0, 0.0], [math.nan, math.nan]], [[0.0, -math.inf]]):
            with pytest.raises(ValueError):
                randomize(np.array(bad), params, RngStream(0))


def test_randomize_scalar_unbiased():
    params = privunit.cap_params(6, 0.9, 0.4)
    err = privunit.analytic_err(params).err
    v = np.array([0.5, -0.5, 0.5, 0.5, 0.0, 0.0])
    total = np.zeros(6)
    n = 4000
    for j in range(n):
        total += privunit.randomize(v, params, RngStream(7, (1 << 32) + j + 1))
    assert float(np.linalg.norm(total / n - v)) <= 4.0 * math.sqrt(err / n)


def test_randomize_batch_shape_norms_and_moments():
    size = 40000
    for d, v in [(8, np.ones(8) / math.sqrt(8.0))] + _poles_and_circle(8):
        params = privunit.cap_params(d, 0.92, 0.45)
        out = privunit.randomize_batch(v, params, size, RngStream(5, 2))
        assert out.shape == (size, d)
        radii = np.linalg.norm(out, axis=1) * params.m
        assert float(np.max(np.abs(radii - 1.0))) <= 1e-9
        bd = privunit.analytic_err(params)
        alpha = out @ v * params.m
        se = math.sqrt(max(bd.alpha_sq - bd.m**2, 0.0) / size)
        assert abs(float(alpha.mean()) - bd.m) <= 4.0 * se
        # the cap side (closed at gamma) is chosen with probability exactly p
        frac_above = float(np.mean(alpha >= params.gamma))
        assert abs(frac_above - params.p) <= 4.0 * math.sqrt(params.p * params.p_comp / size)


def test_randomize_batch_validation():
    params = privunit.cap_params(4, 0.9, 0.3)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        privunit.randomize_batch(v, params, 0, RngStream(0))
    with pytest.raises(ValueError):
        privunit.randomize_batch(np.array([1.0, 0.0]), params, 4, RngStream(0))


def test_randomize_batch_gamma_zero_exact_split():
    # at gamma = 0 the cap boundary is the equator; the clamps must keep the
    # two sides strictly on their own sign
    params = privunit.cap_params(5, 0.8, 0.0)
    v = np.zeros(5)
    v[0] = 1.0
    out = privunit.randomize_batch(v, params, 2000, RngStream(9, 9))
    alpha = out @ v * params.m
    assert np.all((alpha >= 0.0) | (alpha < 0.0))
    frac = float(np.mean(alpha >= 0.0))
    assert abs(frac - 0.8) <= 4.0 * math.sqrt(0.8 * 0.2 / 2000)


# --- density ----------------------------------------------------------------

def test_log_density_levels_and_support():
    params = privunit.cap_params(7, 0.9, 0.35)
    v = np.zeros(7)
    v[0] = 1.0
    assert privunit.log_density(v / params.m, v, params) == params.log_level_hi
    assert privunit.log_density(-v / params.m, v, params) == params.log_level_lo
    with pytest.raises(SupportError):
        privunit.log_density(v, v, params)  # norm 1, support radius 1/m
    with pytest.raises(ValueError):
        privunit.log_density(np.zeros(6), v, params)
    # a complex point or input is refused, not cast to its real part
    z = v.astype(complex)
    z[1] = 0.5j
    for u, w in ((z / params.m, v), (v / params.m, z)):
        with pytest.raises(ValueError, match="must be real"):
            privunit.log_density(u, w, params)


def test_log_density_boundary_is_inside_cap():
    # gamma = 0: a point orthogonal to v sits exactly on the boundary, which
    # belongs to the cap side
    params = privunit.cap_params(4, 0.8, 0.0)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0, 0.0]) / params.m
    assert privunit.log_density(u, v, params) == params.log_level_hi


_BOTH_LAWS = pytest.mark.parametrize(
    "params",
    [privunit.cap_params(4, 0.8, 0.3), privunitg.gauss_params(4, 0.8, 0.7)],
    ids=["privunit", "privunitg"],
)


@_BOTH_LAWS
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_density_rejects_non_finite_point(params, bad):
    # a NaN compares false against every bound, so without a check it lands
    # on one of the levels, or gives nan
    v = np.array([1.0, 0.0, 0.0, 0.0])
    u = v / params.m
    u[1] = bad
    with pytest.raises(SupportError):
        privunit.log_density(u, v, params)


@_BOTH_LAWS
@pytest.mark.parametrize("d", [3, 5])
def test_log_density_rejects_wrong_dimension(params, d):
    # a point and input that agree with each other but not with params.d
    # are refused, as randomize refuses them
    v = np.zeros(d)
    v[0] = 1.0
    with pytest.raises(ValueError, match="params dimension 4"):
        privunit.log_density(v / params.m, v, params)


def test_density_levels_integrate_to_one():
    # the two levels against their cap masses recover total probability 1
    params = privunit.cap_params(9, 0.88, 0.42)
    total = math.exp(params.log_level_hi) * params.q_comp + math.exp(params.log_level_lo) * params.q
    assert total == pytest.approx(1.0, abs=1e-12)
