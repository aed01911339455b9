"""Discretized optimal-density problem on the circle.

Among densities on S^1 whose values stay within a multiplicative e^eps
band (the local-DP box), the one maximizing the mean x-coordinate is a
two-level cap: high level on a symmetric band around angle 0, low level
elsewhere. This module solves the arc-discretized problem exactly and
certifies the structure.

The box in the source problem is [e^{-eps/2} p, e^{eps/2} p] with the base
level p a free variable; dividing it out turns the objective into a
weighted average of per-arc mean x-coordinates with weights in a fixed box,
whose optimum is attained at a box vertex. Enumerating the symmetric
vertices by the number of high-level arc pairs is therefore an exact
solver, no LP machinery required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sphere

__all__ = ["LpInstance", "LpSolution", "lp_instance", "solve_greedy", "verify_cap_structure"]


@dataclass(frozen=True)
class LpInstance:
    """K equal arcs on the circle with midpoints (2j+1)*pi/K; arcs j and
    K-1-j are mirror images about the x-axis. arc_measure is the arc length
    2*pi/K; arc_mean_x the average of cos over each arc."""

    K: int
    eps: float
    arc_measure: float
    arc_mean_x: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    """Per-arc density levels plus the derived base level, high-arc count,
    achieved first moment alpha, and the error 1/alpha^2 - 1 the density
    would induce as a randomizer normalized to radius 1/alpha."""

    levels: np.ndarray
    base_p: float
    threshold_count: int
    alpha: float
    err_implied: float
    instance: LpInstance


def lp_instance(K: int, eps: float) -> LpInstance:
    """The instance of K arcs (even, >= 8) at a budget eps in (0, 700]."""
    if not (8 <= K < math.inf) or int(K) != K or K % 2:
        raise ValueError(f"K must be an even integer >= 8, got {K!r}")
    sphere._check_eps(eps)
    if math.exp(-0.5 * eps) == 1.0:  # then exp(0.5 * eps) == 1.0 too
        raise ValueError(f"eps={eps!r} is too small: the two density levels round to one double")
    K = int(K)
    # average of cos(theta) over an arc of width 2*pi/K centered at each midpoint
    damp = math.sin(math.pi / K) / (math.pi / K)
    try:
        arc_mean_x = np.cos((2.0 * np.arange(K) + 1.0) * math.pi / K) * damp
    except (ValueError, MemoryError):  # past numpy's size limit or the address space
        raise ValueError(f"K={K} is too large: its arc arrays cannot be allocated") from None
    return LpInstance(K=K, eps=float(eps), arc_measure=2.0 * math.pi / K, arc_mean_x=arc_mean_x)


def solve_greedy(instance: LpInstance) -> LpSolution:
    """Enumerate symmetric box vertices by the count k of high-level arc
    pairs, take base_p from the unit-mass constraint, and return the k
    whose density maximizes the mean x-coordinate. eps is checked again,
    as an instance can be built by hand: within (0, 700] no level or gain
    overflows."""
    K, eps, w = instance.K, sphere._check_eps(instance.eps), instance.arc_measure
    xbar = instance.arc_mean_x
    hi_f = math.exp(0.5 * eps)
    lo_f = math.exp(-0.5 * eps)
    half = K // 2

    # pairs (j, K-1-j) for j < K/2 are already ordered by descending xbar;
    # sum of xbar over all arcs vanishes by symmetry, so alpha(k) only sees
    # the high-pair partial sum; argmax keeps the first of equal maxima
    n_hi = 2 * np.arange(half + 1)
    cum = np.concatenate(([0.0], np.cumsum(xbar[:half])))
    base = 1.0 / (w * (n_hi * hi_f + (K - n_hi) * lo_f))
    gain = w * base * (hi_f - lo_f) * (2.0 * cum)
    best_k = int(np.argmax(gain))
    base_p = float(base[best_k])
    j = np.arange(K)
    high = (j < best_k) | (j >= K - best_k)
    levels = np.where(high, hi_f * base_p, lo_f * base_p)
    alpha = float(w * np.dot(levels, xbar))
    return LpSolution(
        levels=levels,
        base_p=base_p,
        threshold_count=2 * best_k,
        alpha=alpha,
        err_implied=1.0 / (alpha * alpha) - 1.0,
        instance=instance,
    )


def verify_cap_structure(solution: LpSolution) -> bool:
    """Certify that a solution has the optimal two-level cap shape:
    positive levels inside the e^{eps} box, unit mass, reflection
    symmetry, at most one transitional pair between the levels, high
    level on a single contiguous band around angle 0, and the exchange
    test (no low arc outranks a high arc in mean x-coordinate). Complex
    levels raise ValueError: the cast would drop their imaginary parts."""
    inst = solution.instance
    K, w = inst.K, inst.arc_measure
    levels = sphere._real_array(solution.levels, "levels")
    base = solution.base_p
    if levels.shape != (K,) or not np.all(np.isfinite(levels)) or base <= 0.0:
        return False
    if abs(float(np.dot(levels, np.full(K, w))) - 1.0) > 1e-12:
        return False
    if np.max(np.abs(levels - levels[::-1])) > 1e-12 * base:
        return False
    hi_v = math.exp(0.5 * inst.eps) * base
    lo_v = math.exp(-0.5 * inst.eps) * base
    # below both the low level and the level gap, so that at small eps no
    # level counts as both and at large eps the low level keeps its digits
    tol = 1e-9 * min(lo_v, hi_v - lo_v)
    if np.any(levels < lo_v - tol) or np.any(levels > hi_v + tol):
        return False
    half = K // 2
    pair_levels = levels[:half]
    is_hi = np.abs(pair_levels - hi_v) <= tol
    is_lo = np.abs(pair_levels - lo_v) <= tol
    transitional = ~(is_hi | is_lo)
    if int(transitional.sum()) > 1:
        return False
    # pair index is descending in xbar, so the high set must be a prefix,
    # with any transitional pair sitting exactly at the boundary
    k_hi = int(is_hi.sum())
    if not np.all(is_hi[:k_hi]):
        return False
    if transitional.any() and int(np.flatnonzero(transitional)[0]) != k_hi:
        return False
    # exchange test: every high pair's mean x beats every low pair's
    xbar = inst.arc_mean_x[:half]
    if is_hi.any() and is_lo.any():
        if float(xbar[is_hi].min()) < float(xbar[is_lo].max()) - 1e-15:
            return False
    return True
