"""Tests for the aggregation protocol and Monte Carlo harness: stream
derivation determinism, unbiased averaging, and the 1/n error scaling."""

import math
import tracemalloc

import numpy as np
import pytest

from ldpmean import estimator, privunit, privunitg, sphere, tuner
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
    # one user is one row block, drawn on the caller's stream
    expect = privunit.randomize(v, params, RngStream(3, 1))
    np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("make_params", _LAWS)
def test_estimate_mean_equals_block_sums_of_randomize(make_params):
    # the reports are privunit.randomize(vs, params, rng) bit for bit: two
    # full row blocks and a ragged third, drawn on threads; their sums are
    # added in block order, and the caller's stream moves as far as
    # randomize moves it
    d = 1024
    rows = sphere._BLOCK_VALUES // d
    n = 2 * rows + 5
    params = make_params(d)
    g = RngStream(8).normal((n, d))
    vs = g / np.linalg.norm(g, axis=1, keepdims=True)
    rng = RngStream(5)
    reports = privunit.randomize(vs, params, rng)
    total = np.zeros(d)
    for start in range(0, n, rows):
        total += reports[start:start + rows].sum(axis=0)
    again = RngStream(5)
    np.testing.assert_array_equal(estimator.estimate_mean(vs, params, again), total / n)
    np.testing.assert_array_equal(again.uniform(4), rng.uniform(4))


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
    with pytest.raises(ValueError):  # n sizes the input draw, so it must be an integer
        estimator.run_trials(n=2.5, d=8, eps=4.0, alg="privunitg", trials=1, seed=0)
    rep = estimator.run_trials(n=1, d=8, eps=4.0, alg="privunitg", trials=1, seed=0)
    assert math.isnan(rep.standard_error)
    assert rep.n == 1 and rep.trials == 1


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_run_trials_draws_trial_0_on_stream_1(alg):
    # trial t draws its inputs and then its reports on RngStream(seed, t + 1);
    # 300 users at d = 1024 make 3 row blocks, drawn on jumps of that stream
    n, d, seed = 300, 1024, 19
    rng = RngStream(seed, 1)
    vecs = rng.normal((n, d))
    vecs /= sphere._row_norms(vecs)[:, None]
    est = estimator.estimate_mean(vecs, tuner.tune(4.0, d, alg).params, rng)
    rep = estimator.run_trials(n, d, 4.0, alg, 1, seed)
    assert rep.empirical_mse == float(np.sum((est - vecs.mean(axis=0)) ** 2))


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_run_trials_mse_matches_analytic(alg):
    n, trials = 25, 400
    rep = estimator.run_trials(n=n, d=16, eps=4.0, alg=alg, trials=trials, seed=7)
    expect = rep.analytic_err_per_user / n
    assert abs(rep.empirical_mse - expect) <= 4.0 * rep.standard_error
    assert rep.analytic_err_per_user == tuner.tune(4.0, 16, alg).err_star


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_run_trials_does_not_depend_on_the_core_count(alg, monkeypatch):
    # at d = 1024, 300 users make 3 row blocks: on one thread or on two,
    # each block draws on its own jump of the trial stream
    reps = []
    for cores in (1, 2):
        monkeypatch.setattr(sphere, "_cores", lambda c=cores: c)
        reps.append(estimator.run_trials(300, 1024, 4.0, alg, 2, 19))
    assert reps[0] == reps[1]


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


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_run_trials_memory_does_not_grow_with_the_core_count(monkeypatch, alg):
    # each block thread holds block-sized scratch, so the protocol caps its
    # threads: on a many-core machine the peak stays below 1.5 copies too
    monkeypatch.setattr(sphere, "_cores", lambda: 16)
    n, d = 4000, 512
    tracemalloc.start()
    try:
        estimator.run_trials(n, d, 4.0, alg, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8
