"""Budget tuning: split a total privacy budget eps between the mixture
weight (eps0, driving p) and the threshold mass (eps1, driving q), with the
product constraint saturated, p = sigmoid(eps0) and q = sigmoid(eps1), and
minimize the analytic error over the split.

Error is monotone improving toward the constraint boundary for both
randomizers, so the 2-D constrained problem reduces to a 1-D search over
the threshold, which :func:`tune` runs by Brent's method. The two laws
differ only in their private helpers, which share one interface
(``_law``): a mass helper (gamma, q_comp, tail_mean) at a threshold, and
a scalar error of (d, p, p_comp, q, q_comp, gamma, m). The error is smooth
in the threshold with a single minimum. PrivUnit's error is evaluated
without cancellation, and PrivUnitG's stays above 7e-4 on the envelope,
far above its rounding, so the search over the whole bracket finds it.
The scaled constant eps*err/d converges in d (c_eps) and keeps falling in
eps: at d = 50000 it passes 0.614 near eps 38.5 and reads 0.509 at 700.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import privunit, privunitg, specfun, sphere
from .errors import NumericsError
from .privunit import CapParams
from .privunitg import GaussParams

__all__ = [
    "BudgetSplit",
    "TunedResult",
    "budget_split",
    "tune",
    "c_eps",
    "repetition_err",
]

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section fraction
_ALGS = ("privunit", "privunitg")
_LN2 = math.log(2.0)
# the smallest cap of a float gamma: gamma = 1 - 2^-53, x = (1 - gamma)/2 = 2^-54
_GAMMA_EDGE = 1.0 - 2.0**-53
_S_EDGE = 54.0 * _LN2
# Brent's tolerance as a fraction of the bracket: the square root of the
# double epsilon, below which differences of the error sink into its rounding
_TOL = 2.0**-26


def _sigmoid(t: float) -> float:
    # e^t/(e^t+1) without overflow; _sigmoid(-t) is the exact complement
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


@dataclass(frozen=True)
class BudgetSplit:
    """A split eps0 + eps1 of the budget eps (all of it from budget_split);
    p and q are the sigmoid levels, with exact complements exposed so that
    downstream formulas avoid 1-p cancellation at large budgets."""

    eps: float
    eps0: float
    eps1: float

    @property
    def p(self) -> float:
        return _sigmoid(self.eps0)

    @property
    def p_comp(self) -> float:
        return _sigmoid(-self.eps0)

    @property
    def q(self) -> float:
        return _sigmoid(self.eps1)

    @property
    def q_comp(self) -> float:
        return _sigmoid(-self.eps1)


def budget_split(eps: float, eps1: float) -> BudgetSplit:
    # past about 708 nats sigmoid(-eps) is subnormal, and the exact
    # complements the privacy accounting rests on lose their precision
    if not (0.0 < eps <= 700.0):
        raise ValueError(f"eps must lie in (0, 700], got {eps!r}")
    if not (0.0 <= eps1 <= eps):
        raise ValueError(f"eps1 must lie in [0, eps], got {eps1!r}")
    return BudgetSplit(eps=eps, eps0=eps - eps1, eps1=eps1)


@dataclass(frozen=True)
class TunedResult:
    """Outcome of :func:`tune`: the best split found, the built parameter
    object, its analytic error err_star, and c_const = eps*err_star/d."""

    split: BudgetSplit
    params: CapParams | GaussParams
    err_star: float
    c_const: float
    alg: str


def _law(alg: str) -> tuple:
    """(builder, analytic error, mass, scalar error) of the law: the mass
    helper maps (d, threshold[, q_comp]) to (gamma, q_comp, tail_mean), the
    scalar error takes (d, p, p_comp, q, q_comp, gamma, m). Looked up at
    each call, so a wrapped or patched module function is the one called."""
    if alg == "privunit":
        return privunit._build, privunit.analytic_err, privunit._cap_mass, privunit._cap_err
    return privunitg._build_gauss, privunitg.analytic_err_g, privunitg._gauss_mass, privunitg._gauss_err


def _params_at(split: BudgetSplit, d: int, alg: str):
    # the threshold whose upper mass is the budgeted q_comp; the builder
    # evaluates the masses at that threshold, so the budget it certifies is
    # that of the mechanism sampled (0.0 - t keeps gamma = +0.0 at q_comp = 1/2)
    if alg == "privunit":
        t = sphere.inv_marginal_cdf(split.q_comp, d)
    else:
        t = specfun.inv_std_normal_cdf(split.q_comp)
    return _law(alg)[0](d, split.p, split.p_comp, 0.0 - t)


def _err_at(split: BudgetSplit, d: int, alg: str):
    params = _params_at(split, d, alg)
    return _law(alg)[1](params).err, params


def _brent_min(f, a: float, b: float, tol: float) -> None:
    """Brent's localmin (Algorithms for Minimization without Derivatives,
    1973, ch. 5) of f on (a, b), to an absolute tolerance tol in the
    abscissa: parabolic steps through the best three points, a
    golden-section step whenever the parabola is not trusted; every probe
    lies at least tol inside (a, b), and the caller keeps what it needs."""
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    tol2 = 2.0 * tol
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol if x <= xm else -tol
        if golden:
            e = (a if x >= xm else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else (tol if d > 0.0 else -tol))
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def tune(eps: float, d: int, alg: str = "privunitg") -> TunedResult:
    """Minimize the analytic error over saturated splits eps0 + eps1 = eps.

    One Brent search (``_brent_min``) over the threshold that the builders
    take and the sampler draws with: s = -ln x with x = (1 - gamma)/2 for
    PrivUnit, s = g_std for PrivUnitG. A probe evaluates its threshold's
    mass q_comp once, takes eps1 = ln(q/q_comp) from it and sets
    eps0 = eps - eps1, so it spends the whole budget and needs no quantile
    inversion. Every probe is feasible: Brent probes at least tol inside
    the bracket, so its mass is at least sigmoid(-eps) > 0 (a float gamma
    <= 1 - 2^-53 keeps x >= 2^-54; at the edge every mass is at least the
    edge mass), and p_comp <= 1/2 and q_comp < 1/2 pass ``_q_and_m``. A
    probe evaluates scalars by the law's mass and error helpers, which the
    builders and ``analytic_err``/``analytic_err_g`` wrap, so it builds no
    parameter object and its error is the built parameters' bit for bit.
    The bracket runs from eps1 = 0 (x = 1/2, g_std = 0) to the threshold of
    mass sigmoid(-eps), the one quantile inversion of a tune, and the
    tolerance is 2^-26 of the bracket, over eps where eps < 1. A float
    gamma expresses no x below 2^-54, so PrivUnit's error is a staircase
    where its cap is that small (d <= 16 at large eps): where the bracket
    end lies beyond it, the bracket stops there and that smallest cap is
    probed once, so the search cannot settle on a stair above the lowest.

    Returns the best probe seen anywhere, built once, with the excess of
    its budget (rounding) taken back from eps0 at the same threshold so
    that budget <= eps exactly, one build per step, and the split its
    stored parameters spend. Raises NumericsError when its error is not
    positive or its budget stays above eps.
    """
    budget_split(eps, eps)  # validates eps
    d = sphere._check_dim(d)
    if alg not in _ALGS:
        raise ValueError(f"alg must be one of {_ALGS}, got {alg!r}")
    build, error, mass, err = _law(alg)
    q_and_m = privunit._q_and_m
    best: list = [math.inf, None]  # err, (eps0, threshold, mass)

    def probe(t: float, q_comp: float | None = None) -> float:
        # t is the builder's threshold: gamma for PrivUnit, g_std for PrivUnitG
        gamma, q_comp, tail_mean = mass(d, t, q_comp)
        # >= 0 despite float-gamma rounding at PrivUnit's far end (p = 1/2 cannot win)
        eps0 = max(0.0, eps - (math.log(1.0 - q_comp) - math.log(q_comp)))
        p, p_comp = _sigmoid(eps0), _sigmoid(-eps0)
        q, m = q_and_m(p, p_comp, q_comp, tail_mean)
        e = err(d, p, p_comp, q, q_comp, gamma, m)
        if e < best[0]:
            best[0], best[1] = e, (eps0, t, q_comp)
        return e

    y = _sigmoid(-eps)  # the mass at which eps1 = eps
    if alg == "privunit":
        lo, f = _LN2, lambda s: probe(1.0 - 2.0 * math.exp(-s))
        edge_mass = mass(d, _GAMMA_EDGE)[1]
        if edge_mass >= y:  # the threshold of mass y lies at or past the smallest cap
            hi = _S_EDGE
            probe(_GAMMA_EDGE, edge_mass)
        else:
            a = 0.5 * (d - 1)
            hi = -math.log(specfun.inv_reg_inc_beta(y, a, a))
    else:
        lo, hi, f = 0.0, -specfun.inv_std_normal_cdf(y), probe
    _brent_min(f, lo, hi, _TOL * (hi - lo) / min(1.0, eps))

    err_star, (eps0, t, q_comp) = best
    # the probes evaluated the parameters' scalars; the winner's object is
    # built once. Rounding may put its budget above eps: take the excess
    # back from eps0 at the same threshold, doubling the step (2^-52 at
    # least: less cannot move p near 1/2) until the budget drops, and give
    # up before eps0 turns negative
    params = build(d, _sigmoid(eps0), _sigmoid(-eps0), t, q_comp)
    step = max(params.budget - eps, 2.0**-52)
    while params.budget > eps:
        if step > eps0:
            raise NumericsError(f"budget {params.budget!r} stays above eps={eps}, d={d}")
        eps0 -= step
        params = build(d, _sigmoid(eps0), _sigmoid(-eps0), t, q_comp)
        err_star = error(params).err
        step *= 2.0
    split = BudgetSplit(eps=eps, eps0=eps0, eps1=math.log(params.q) - math.log(params.q_comp))
    if not err_star > 0.0:
        # the true error is positive; it can only underflow
        raise NumericsError(f"best error {err_star!r} is not positive at eps={eps}, d={d}")
    return TunedResult(
        split=split,
        params=params,
        err_star=err_star,
        c_const=eps * err_star / d,
        alg=alg,
    )


def c_eps(eps: float, d_limit: int = 50000) -> float:
    """The scaled error constant eps*err/d of the Gaussian randomizer, taken
    at d_limit, within O(eps/d_limit) of its large-d limit. It falls as eps
    grows: 0.636 at eps 32, 0.625 at 35, 0.610 at 40, 0.548 at 100 and 0.509
    at 700 (d_limit = 50000)."""
    return tune(eps, d_limit, "privunitg").c_const


def repetition_err(eps: float, k: int, d: int, alg: str = "privunitg") -> float:
    """Error of averaging k independent runs at budget eps/k each (total
    budget eps by composition): tune(eps/k, d).err_star / k. Never beats
    tune(eps, d) directly, which is the repetition-optimality comparison."""
    k = sphere._check_int(k, "k", 1)
    return tune(eps / k, d, alg).err_star / k
