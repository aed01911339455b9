"""Tests for the aggregation protocol and Monte Carlo harness: stream
derivation determinism, unbiased averaging, and the 1/n error scaling."""

import math
import tracemalloc

import numpy as np
import pytest

from ldpmean import estimator, privunit, privunitg, tuner
from ldpmean.sphere import RngStream


_LAWS = [
    pytest.param(lambda d: privunit.cap_params(d, 0.9, 0.3), id="privunit"),
    pytest.param(lambda d: privunitg.gauss_params(d, 0.9, 0.8), id="privunitg"),
]


@pytest.mark.parametrize("make_params", _LAWS)
def test_estimate_mean_single_user_matches_direct_draw(make_params):
    params = make_params(6)
    v = np.zeros(6)
    v[0] = 1.0
    rng = RngStream(3, 1)
    got = estimator.estimate_mean([v], params, rng)
    expect = privunit.randomize(v, params, RngStream(3, 1).substream(0))
    np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("make_params", _LAWS)
def test_estimate_mean_is_block_order_stable(make_params):
    # block b of BLOCK_USERS users always draws from substream(b), so the
    # reports do not depend on the order the blocks are drawn in: drawn last
    # to first and summed in block order they reproduce estimate_mean exactly
    B = estimator.BLOCK_USERS
    n, d, blocks = 2 * B + 3, 4, 3
    params = make_params(d)
    g = RngStream(8).normal((n, d))
    vs = g / np.linalg.norm(g, axis=1, keepdims=True)
    rng = RngStream(5)
    reports = {
        b: privunit.randomize(vs[b * B:(b + 1) * B], params, rng.substream(b))
        for b in reversed(range(blocks))
    }
    assert reports[blocks - 1].shape == (3, d)
    total = np.zeros(d)
    for b in range(blocks):
        total += reports[b].sum(axis=0)
    got = estimator.estimate_mean(vs, params, RngStream(5))
    np.testing.assert_array_equal(got, total / n)


def test_estimate_mean_rejects_bad_input():
    params = privunitg.gauss_params(4, 0.9, 0.8)
    with pytest.raises(ValueError):
        estimator.estimate_mean([], params, RngStream(0))
    with pytest.raises(ValueError):
        estimator.estimate_mean([np.ones(4) / 2.0, np.ones(3) / math.sqrt(3.0)], params, RngStream(0))


def test_run_trials_deterministic():
    a = estimator.run_trials(n=2, d=8, eps=4.0, alg="privunitg", trials=5, seed=42)
    b = estimator.run_trials(n=2, d=8, eps=4.0, alg="privunitg", trials=5, seed=42)
    assert a == b
    c = estimator.run_trials(n=2, d=8, eps=4.0, alg="privunitg", trials=5, seed=43)
    assert c.empirical_mse != a.empirical_mse


def test_run_trials_validation_and_single_trial():
    with pytest.raises(ValueError):
        estimator.run_trials(n=0, d=8, eps=4.0, alg="privunitg", trials=5, seed=0)
    with pytest.raises(ValueError):
        estimator.run_trials(n=2, d=8, eps=4.0, alg="privunitg", trials=0, seed=0)
    with pytest.raises(ValueError):  # n names the stream of the inputs
        estimator.run_trials(n=2.5, d=8, eps=4.0, alg="privunitg", trials=1, seed=0)
    rep = estimator.run_trials(n=1, d=8, eps=4.0, alg="privunitg", trials=1, seed=0)
    assert math.isnan(rep.standard_error)
    assert rep.n == 1 and rep.trials == 1


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_run_trials_mse_matches_analytic(alg):
    n, trials = 25, 400
    rep = estimator.run_trials(n=n, d=16, eps=4.0, alg=alg, trials=trials, seed=7)
    expect = rep.analytic_err_per_user / n
    assert abs(rep.empirical_mse - expect) <= 4.0 * rep.standard_error
    assert rep.analytic_err_per_user == tuner.tune(4.0, 16, alg).err_star


def test_run_trials_error_scales_inversely_with_n():
    rep1 = estimator.run_trials(n=1, d=8, eps=4.0, alg="privunitg", trials=500, seed=11)
    rep16 = estimator.run_trials(n=16, d=8, eps=4.0, alg="privunitg", trials=500, seed=11)
    combined = math.hypot(rep1.standard_error / 16.0, rep16.standard_error)
    assert abs(rep16.empirical_mse - rep1.empirical_mse / 16.0) <= 4.0 * combined


def test_run_trials_holds_one_copy_of_the_inputs():
    # the n x d inputs are normalized in place, with no n x d temporary, so
    # the traced peak stays below 1.5 copies of them
    n, d = 4000, 512
    tracemalloc.start()
    try:
        estimator.run_trials(n, d, 4.0, "privunitg", 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8
