"""Budget tuning: split a total privacy budget eps between the mixture
weight (eps0, driving p) and the threshold mass (eps1, driving q), with the
product constraint saturated, p = sigmoid(eps0) and q = sigmoid(eps1), and
minimize the analytic error over the split.

Error is monotone improving toward the constraint boundary for both
randomizers, so the 2-D constrained problem reduces to a 1-D search over
the threshold. The dual of the paper's LP fixes the optimum there:
gamma = m, the threshold equals the normalizer. :func:`tune` finds the
root of that condition by the package's one safeguarded Newton search,
``specfun._root``, on its log form (``_search_residual``), which is linear
in eps0 where the condition is exponential, in about 4 error evaluations.
The two laws differ only in their private helpers, which share one
interface (``_law``): a mass helper (gamma, q_comp, tail_mean) at a
threshold, and a scalar error of (d, p, p_comp, q, q_comp, gamma, m).
The error is smooth in the threshold with a single minimum, the
condition's one root in the bracket. The scaled constant eps*err/d
converges in d, to c_eps(eps), and that limit keeps falling in eps: it
passes 0.614 near eps 38.5 and reads 0.509 at 700.
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

_ALGS = ("privunit", "privunitg")
# the smallest cap of a float gamma: gamma = 1 - 2^-53, x = (1 - gamma)/2 = 2^-54
_GAMMA_EDGE = 1.0 - 2.0**-53
_S_EDGE = 54.0 * specfun._LN2


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
    """(builder, mass, scalar error) of the law: mass(d, t) is (gamma, q_comp,
    tail_mean) at a threshold t, the builder takes (d, p, p_comp, t) and the
    last two from its caller, the error (d, p, p_comp, q, q_comp, gamma, m).
    Looked up at each call, so a wrapped or patched one is the one called."""
    if alg == "privunit":
        return privunit._build, privunit._cap_mass, privunit._cap_err
    return privunitg._build_gauss, privunitg._gauss_mass, privunitg._gauss_err


def _params_at(split: BudgetSplit, d: int, alg: str):
    # the threshold whose upper mass is the budgeted q_comp; the builder
    # takes the masses evaluated at that threshold, so the budget it certifies
    # is that of the mechanism sampled (0.0 - t keeps gamma = +0.0 at q_comp = 1/2)
    y = split.q_comp
    t = 0.0 - (sphere.inv_marginal_cdf(y, d) if alg == "privunit" else specfun.inv_std_normal_cdf(y))
    build, mass, _ = _law(alg)
    return build(d, split.p, split.p_comp, t, *mass(d, t)[1:])


def _err_at(split: BudgetSplit, d: int, alg: str):
    params = _params_at(split, d, alg)
    return privunit.analytic_err(params).err, params


def _search_residual(alg: str, d: int, t: float, p: float, p_comp: float, q: float, q_comp: float,
                     tail_mean: float, e: float, m: float) -> tuple[float, float]:
    """The residual that ``tune`` searches, R = ln(p_comp*/p_comp), and its
    slope in the search variable, from a probe's own numbers at threshold t:
    p = sigmoid(eps0), q, Q = q_comp, tau = tail_mean, error e and m.

    With mu = tau/Q the cap mean, m = mu (q - p_comp)/q falls as p_comp
    rises, so it meets the condition's m* at p_comp* = q (1 - m*/mu): R has
    the sign and the root of m - gamma. R is linear in eps0 where m - gamma
    holds p_comp = sigmoid(-eps0) as an exponential, so Newton's steps on R
    converge from the midpoint without bisecting toward the bracket's end.

    PrivUnit (s = -ln x, m* = gamma): mu - gamma = (m - gamma) + mu p_comp/q
    with m - gamma = 2x - e m^2/(1 + m), which does not cancel as
    gamma -> 1; F = a tau/(1 - x) = 2x f(gamma) is the slope of q, mu' =
    F (mu - gamma)/Q and (ln p_comp)' = p F/(q Q). PrivUnitG (g = g_std):
    K* = m* sqrt(d) is the positive root of g K^2 + (2d - 1 - g^2) K - 2dg
    = (K - g)(2d + gK) - K, the zero of the error's slope in g, taken in
    the form that does not cancel; with
    phi = tau sqrt(d), M = phi/Q (M' = M (M - g)) and u = K*/M,
    R = ln(q (1 - u)/p_comp)."""
    if alg == "privunit":
        a, x = 0.5 * (d - 1), 0.5 * (1.0 - t)
        mu = tail_mean / q_comp
        excess = 2.0 * x - e * m * m / (1.0 + m) + mu * p_comp / q  # mu - gamma
        f = a * tail_mean / (1.0 - x)
        r = math.log(q * excess / mu) - math.log(p_comp)
        return r, p_comp * f / (q * q_comp) - 2.0 * x / excess - f * excess / (q_comp * mu)
    phi = tail_mean * math.sqrt(d)
    big_m = phi / q_comp
    b = 2.0 * d - 1.0 - t * t
    root = math.sqrt(b * b + 8.0 * d * t * t)
    k = 4.0 * d * t / (b + root) if b > 0.0 else (root - b) / (2.0 * t)
    dk = (2.0 * d + 2.0 * t * k - k * k) / (2.0 * t * k + 2.0 * d - t * t - 1.0)
    u = k / big_m
    du = (dk - k * (big_m - t)) / big_m
    r = math.log(q * (1.0 - u)) - math.log(p_comp)
    return r, phi / q - du / (1.0 - u) - p * phi / (q * q_comp)


def _bracket(alg: str, eps: float, d: int) -> tuple[float, float, float]:
    """(lo, hi, tol) of tune's search: from eps1 = 0 (s = ln 2, g_std = 0) to
    the threshold of mass sigmoid(-eps), or, with no cdf inverted, to the
    smallest float cap where that lies past it; tol is ``specfun._TOL`` of
    the bracket, over eps where eps < 1."""
    y = _sigmoid(-eps)  # the mass at which eps1 = eps
    if alg == "privunitg":
        lo, hi = 0.0, -specfun.inv_std_normal_cdf(y)
    elif privunit._cap_mass(d, _GAMMA_EDGE)[1] >= y:
        lo, hi = specfun._LN2, _S_EDGE
    else:
        lo, hi = specfun._LN2, -math.log(specfun.inv_reg_inc_beta(y, 0.5 * (d - 1)))
    return lo, hi, specfun._TOL * (hi - lo) / min(1.0, eps)


def _probe(alg: str, eps: float, d: int, t: float) -> tuple:
    """(eps0, p, p_comp, q, q_comp, tail_mean, err, m) of tune's probe at the
    builder threshold t (gamma or g_std): eps0 spends what the mass of t
    leaves of eps, and the rest are the scalars its parameters would hold."""
    _, mass, err = _law(alg)
    gamma, q_comp, tail_mean = mass(d, t)
    # >= 0 despite float-gamma rounding at PrivUnit's far end (p = 1/2 cannot win)
    eps0 = max(0.0, eps - (math.log(1.0 - q_comp) - math.log(q_comp)))
    p, p_comp = _sigmoid(eps0), _sigmoid(-eps0)
    q, m = privunit._q_and_m(p, p_comp, q_comp, tail_mean)
    return eps0, p, p_comp, q, q_comp, tail_mean, err(d, p, p_comp, q, q_comp, gamma, m), m


def tune(eps: float, d: int, alg: str = "privunitg") -> TunedResult:
    """Minimize the analytic error over saturated splits eps0 + eps1 = eps.

    One root find (``specfun._root``, from the bracket's midpoint) of the
    first-order condition, gamma = m, in its log form
    R = ln(p_comp*/p_comp) (``_search_residual``), over the threshold that
    the builders take and the sampler draws with: s = -ln x with
    x = (1 - gamma)/2 for PrivUnit, g = g_std for PrivUnitG, in the bracket
    of ``_bracket``. A probe (``_probe``) evaluates its threshold's mass
    q_comp once, takes eps1 = ln(q/q_comp) from it and sets eps0 = eps - eps1,
    so it spends the whole budget and needs no quantile inversion. Every
    probe is feasible: ``_root`` probes at least tol inside the bracket, so
    its mass is at least sigmoid(-eps) > 0, and p_comp <= 1/2 and
    q_comp < 1/2 pass ``_q_and_m``.
    A probe evaluates scalars by the law's mass and error helpers, whose
    results the builders take and ``analytic_err`` wraps, so it builds no
    parameter object and its error is the built parameters' bit for bit.
    A float gamma expresses no x below 2^-54, so PrivUnit's error is a
    staircase where its cap is that small (d up to about 44 at large eps):
    where the bracket end lies beyond it, the bracket stops there, and a
    Newton step past that end probes b - tol, which rounds onto the
    smallest cap; a probe that rounds to the float threshold of the probe
    before it ends the search.

    The winner is the search's last probe or, where it ended on the stairs,
    the best probe seen: there the float error decides, not the root. It is
    built once from its probe's mass, with the excess of its budget
    (rounding) taken back from eps0 at the same threshold and mass so that
    budget <= eps exactly, one build per step, and the split its stored
    parameters spend. Raises NumericsError
    when its error is not positive or its budget stays above eps.
    """
    budget_split(eps, eps)  # validates eps
    d = sphere._check_dim(d)
    if alg not in _ALGS:
        raise ValueError(f"alg must be one of {_ALGS}, got {alg!r}")
    # (err, eps0, threshold, q_comp, tail_mean) of the last probe, the winner, and the best one seen
    last = best = (math.inf, None, None, None, None)

    def residual(u: float) -> tuple[float, float] | None:
        nonlocal last, best
        t = 1.0 - 2.0 * math.exp(-u) if alg == "privunit" else u
        if t == last[2]:
            # PrivUnit's float-gamma stairs: further probes would evaluate the
            # same floats, and the float error, not the root, picks the winner
            last = best
            return None
        eps0, p, p_comp, q, q_comp, tail_mean, e, m = _probe(alg, eps, d, t)
        last = (e, eps0, t, q_comp, tail_mean)
        if e < best[0]:
            best = last
        return _search_residual(alg, d, t, p, p_comp, q, q_comp, tail_mean, e, m)

    lo, hi, tol = _bracket(alg, eps, d)
    specfun._root(residual, 0.5 * (lo + hi), lo, hi, tol)
    err_star, eps0, *at = last  # at: the winner's threshold and its mass
    # the winner's object is built once; where rounding puts its budget above
    # eps, the excess comes back from eps0 in doubling steps (2^-52 at least:
    # less cannot move p near 1/2), giving up before eps0 turns negative
    build = _law(alg)[0]
    params = build(d, _sigmoid(eps0), _sigmoid(-eps0), *at)
    step = max(params.budget - eps, 2.0**-52)
    while params.budget > eps:
        if step > eps0:
            raise NumericsError(f"budget {params.budget!r} stays above eps={eps}, d={d}")
        eps0 -= step
        params = build(d, _sigmoid(eps0), _sigmoid(-eps0), *at)
        err_star = privunit.analytic_err(params).err
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


def c_eps(eps: float) -> float:
    """The d -> infinity limit of PrivUnitG's scaled constant eps*err/d,
    read at d = 10^8, where the gap (it shrinks like 1/d^2) is below tune's
    rounding: within 4e-13 relative of the erfc-only tests/oracles.c_inf for
    eps in [1e-3, 700]. It falls with eps: 6.33 at 1, 0.636 at 32, 0.509 at 700."""
    return tune(eps, 10**8, "privunitg").c_const


def repetition_err(eps: float, k: int, d: int, alg: str = "privunitg") -> float:
    """Error of averaging k independent runs at budget eps/k each (total
    budget eps by composition): tune(eps/k, d).err_star / k. Never beats
    tune(eps, d) directly, which is the repetition-optimality comparison."""
    k = sphere._check_int(k, "k", 1)
    return tune(eps / k, d, alg).err_star / k
