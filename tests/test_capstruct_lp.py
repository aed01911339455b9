"""Tests for the discretized circle-density problem: the greedy vertex
enumeration against a literal brute force, the structure certificate on
genuine and corrupted solutions, and refinement behavior in K."""

import dataclasses
import math

import numpy as np
import pytest

from ldpmean import capstruct_lp, tuner
from ldpmean.capstruct_lp import lp_instance, solve_greedy, verify_cap_structure


def _brute_force(inst):
    """Try every symmetric high-pair count and keep the best direct objective."""
    K, eps, w = inst.K, inst.eps, inst.arc_measure
    hi_f = math.exp(0.5 * eps)
    lo_f = math.exp(-0.5 * eps)
    best = None
    for k in range(K // 2 + 1):
        n_hi = 2 * k
        base = 1.0 / (w * (n_hi * hi_f + (K - n_hi) * lo_f))
        j = np.arange(K)
        high = (j < k) | (j >= K - k)
        levels = np.where(high, hi_f * base, lo_f * base)
        alpha = float(w * np.dot(levels, inst.arc_mean_x))
        if best is None or alpha > best[1]:
            best = (k, alpha)
    return best


# --- instance geometry -------------------------------------------------------

def test_instance_geometry_and_reflection():
    inst = lp_instance(36, 2.0)
    assert inst.arc_measure == pytest.approx(2.0 * math.pi / 36.0, rel=1e-15)
    assert float(np.sum(inst.arc_mean_x)) == pytest.approx(0.0, abs=1e-12)
    for i in range(36):
        assert inst.arc_mean_x[i] == pytest.approx(inst.arc_mean_x[inst.K - 1 - i], abs=1e-15)
    # arc averaging damps cos by sin(pi/K)/(pi/K) < 1
    assert float(np.max(inst.arc_mean_x)) < math.cos(math.pi / 36.0) + 1e-12


def test_instance_validation():
    for bad_k in (6, 9, 36.5):
        with pytest.raises(ValueError):
            lp_instance(bad_k, 1.0)
    with pytest.raises(ValueError):
        lp_instance(36, 0.0)
    with pytest.raises(ValueError):
        lp_instance(36, math.inf)
    with pytest.raises(ValueError):  # the two levels round to one double
        lp_instance(36, 1e-16)


# --- solver ------------------------------------------------------------------

@pytest.mark.parametrize("K", [36, 360])
@pytest.mark.parametrize("eps", [1.0, 2.0, 4.0])
def test_greedy_equals_brute_force(K, eps):
    inst = lp_instance(K, eps)
    sol = solve_greedy(inst)
    k_brute, alpha_brute = _brute_force(inst)
    assert sol.threshold_count == 2 * k_brute
    assert sol.alpha == alpha_brute  # same final direct-dot evaluation
    assert sol.err_implied == 1.0 / (sol.alpha * sol.alpha) - 1.0


@pytest.mark.parametrize("eps", [1e-12, 1e-6, 0.5, 2.0, 8.0, 700.0])
def test_greedy_solution_certified(eps):
    # the certificate's tolerance stays below the level gap at small eps and
    # below the low level at large eps
    for K in (36, 360):
        assert verify_cap_structure(solve_greedy(lp_instance(K, eps)))


@pytest.mark.parametrize("eps", [700.5, 720.0, 1415.0, 1500.0, 1e300])
def test_greedy_refuses_overflowing_budgets(eps):
    # past the package's 700 nats the objective would overflow (from about
    # 711 nats, where the low level is subnormal): lp_instance refuses the
    # budget, and so does solve_greedy on an instance built by hand
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 700\]"):
        lp_instance(360, eps)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 700\]"):
        solve_greedy(dataclasses.replace(lp_instance(360, 4.0), eps=eps))


def test_solution_respects_box_and_mass():
    sol = solve_greedy(lp_instance(72, 3.0))
    inst = sol.instance
    hi_v = math.exp(0.5 * inst.eps) * sol.base_p
    lo_v = math.exp(-0.5 * inst.eps) * sol.base_p
    assert np.all(sol.levels >= lo_v - 1e-12) and np.all(sol.levels <= hi_v + 1e-12)
    assert float(np.sum(sol.levels) * inst.arc_measure) == pytest.approx(1.0, abs=1e-12)
    assert 0 < sol.threshold_count < inst.K


def test_refinement_improves_alpha():
    # doubling K nests the arcs, so the best achievable mean never drops
    alphas = [solve_greedy(lp_instance(K, 4.0)).alpha for K in (36, 72, 144, 288)]
    for prev, cur in zip(alphas, alphas[1:]):
        assert cur >= prev - 1e-14
    # and the implied error approaches the tuned continuous randomizer
    err_fine = solve_greedy(lp_instance(2880, 4.0)).err_implied
    err_star = tuner.tune(4.0, 2, "privunit").err_star
    assert err_fine == pytest.approx(err_star, rel=0.02)


# --- certificate rejections --------------------------------------------------

def test_verify_rejects_bad_mass():
    sol = solve_greedy(lp_instance(36, 2.0))
    scaled = capstruct_lp.LpSolution(
        levels=sol.levels * 1.000001,
        base_p=sol.base_p,
        threshold_count=sol.threshold_count,
        alpha=sol.alpha,
        err_implied=sol.err_implied,
        instance=sol.instance,
    )
    assert not verify_cap_structure(scaled)
    # a NaN level or a non-positive base level
    nan_levels = sol.levels.copy()
    nan_levels[3] = math.nan
    assert not verify_cap_structure(dataclasses.replace(sol, levels=nan_levels))
    assert not verify_cap_structure(dataclasses.replace(sol, base_p=0.0))


def test_verify_rejects_asymmetry():
    sol = solve_greedy(lp_instance(36, 2.0))
    levels = sol.levels.copy()
    levels[0], levels[-1] = levels[0] + 1e-6 * sol.base_p, levels[-1] - 1e-6 * sol.base_p
    broken = capstruct_lp.LpSolution(
        levels=levels,
        base_p=sol.base_p,
        threshold_count=sol.threshold_count,
        alpha=sol.alpha,
        err_implied=sol.err_implied,
        instance=sol.instance,
    )
    assert not verify_cap_structure(broken)


def test_verify_rejects_noncontiguous_cap():
    sol = solve_greedy(lp_instance(36, 2.0))
    k = sol.threshold_count // 2
    assert 0 < k < 17  # need a high pair and a non-adjacent low pair to swap
    levels = sol.levels.copy()
    K = sol.instance.K
    for a, b in ((0, k + 1), (K - 1, K - 2 - k)):
        levels[a], levels[b] = levels[b], levels[a]
    swapped = capstruct_lp.LpSolution(
        levels=levels,
        base_p=sol.base_p,
        threshold_count=sol.threshold_count,
        alpha=sol.alpha,
        err_implied=sol.err_implied,
        instance=sol.instance,
    )
    assert not verify_cap_structure(swapped)

    # one transitional pair, but one pair past the boundary of the high
    # prefix, in a solution of unit mass
    inst = sol.instance
    hi_f, lo_f = math.exp(0.5 * inst.eps), math.exp(-0.5 * inst.eps)
    factors = np.full(K, lo_f)
    factors[:k] = factors[K - k:] = hi_f
    factors[k + 1] = factors[K - 2 - k] = 0.5 * (hi_f + lo_f)
    base = 1.0 / (inst.arc_measure * float(factors.sum()))
    gap = dataclasses.replace(sol, levels=base * factors, base_p=base)
    assert abs(float(np.sum(gap.levels)) * inst.arc_measure - 1.0) <= 1e-14
    assert not verify_cap_structure(gap)

    # the exchange test: arcs whose mean x-coordinate ascends in the pair
    # index, so a low pair outranks the high ones
    ascending = dataclasses.replace(inst, arc_mean_x=-inst.arc_mean_x)
    assert verify_cap_structure(sol)
    assert not verify_cap_structure(dataclasses.replace(sol, instance=ascending))


def test_verify_rejects_box_violation():
    sol = solve_greedy(lp_instance(36, 2.0))
    levels = sol.levels.copy()
    K = sol.instance.K
    shift = 0.5 * sol.base_p
    # push the top pair above the box, pull a low pair down to conserve mass
    levels[0] += shift
    levels[K - 1] += shift
    levels[17] -= shift
    levels[18] -= shift
    broken = capstruct_lp.LpSolution(
        levels=levels,
        base_p=sol.base_p,
        threshold_count=sol.threshold_count,
        alpha=sol.alpha,
        err_implied=sol.err_implied,
        instance=sol.instance,
    )
    assert not verify_cap_structure(broken)


def test_verify_rejects_many_intermediate_levels():
    inst = lp_instance(36, 2.0)
    K, w = inst.K, inst.arc_measure
    uniform = capstruct_lp.LpSolution(
        levels=np.full(K, 1.0 / (K * w)),
        base_p=1.0 / (K * w),
        threshold_count=0,
        alpha=0.0,
        err_implied=math.inf,
        instance=inst,
    )
    assert not verify_cap_structure(uniform)


def test_verify_rejects_complex_levels():
    # a cast to float would certify the real part and drop the imaginary one
    sol = solve_greedy(lp_instance(36, 2.0))
    assert verify_cap_structure(sol)
    with pytest.raises(ValueError, match="levels must be real"):
        verify_cap_structure(dataclasses.replace(sol, levels=sol.levels + 1e-3j))
