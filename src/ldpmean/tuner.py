"""Budget tuning: split a total privacy budget eps between the mixture
weight (eps0, driving p) and the threshold mass (eps1, driving q), with the
product constraint saturated, p = sigmoid(eps0) and q = sigmoid(eps1), and
minimize the analytic error over the split.

Error is monotone improving toward the constraint boundary for both
randomizers, so the 2-D constrained problem reduces to a 1-D search over
the threshold. The dual of the paper's LP fixes the optimum there:
gamma = m, the threshold equals the normalizer. :func:`tune` finds the
root of that condition by the package's one safeguarded Newton search,
``specfun._root``, on its log form, which is linear in eps0 where the
condition is exponential, in about 4 error evaluations; a probe leaves a
bound on its budget's rounding unspent, so the winner is built once within
eps. The search names no law: each law module binds the pieces it runs,
as ``_law`` states. The error is smooth in the threshold with a single
minimum, the condition's one root in the bracket. The scaled constant
eps*err/d converges in d, to c_eps(eps), and that limit keeps falling in
eps: it passes 0.614 near eps 38.5 and reads 0.509 at 700.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import ModuleType

from . import privunit, privunitg, specfun, sphere
from .errors import NumericsError

__all__ = ["BudgetSplit", "TunedResult", "budget_split", "tune", "c_eps", "repetition_err"]

_LAWS = {"privunit": privunit, "privunitg": privunitg}
_ALGS = tuple(_LAWS)


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
    sphere._check_eps(eps)
    if not (0.0 <= eps1 <= eps):
        raise ValueError(f"eps1 must lie in [0, eps], got {eps1!r}")
    return BudgetSplit(eps=eps, eps0=eps - eps1, eps1=eps1)


@dataclass(frozen=True)
class TunedResult:
    """Outcome of :func:`tune`: the best split found, the built parameter
    object, its analytic error err_star, and c_const = eps*err_star/d."""

    split: BudgetSplit
    params: privunit.ThresholdParams
    err_star: float
    c_const: float
    alg: str


def _law(alg: str) -> ModuleType:
    """The module of the law that alg names. Each law module binds the
    pieces below under the same private names, and the tuner looks each up
    at its use, so a wrapped or patched piece is the one called. t is the
    threshold that the parameters store and the sampler draws with (gamma
    for PrivUnit, g_std for PrivUnitG), u the search variable:

    - ``_mass(d, t)``: (gamma, q_comp, tail_mean), with q_comp = P(T >= gamma)
      and tail_mean = E[T 1{T >= gamma}];
    - ``_err(d, p, p_comp, q, q_comp, gamma, m)``: the scalar error, which
      ``privunit.analytic_err`` wraps;
    - ``_build(d, p, p_comp, t, q_comp, tail_mean)``: the parameters at t,
      from the mass that the caller took from ``_mass(d, t)``;
    - ``_quantile(y, d)``: the threshold of upper mass y;
    - ``_threshold(u)``: the threshold at the search variable u;
    - ``_bracket(y, d)``: (lo, hi), the search from eps1 = 0 to the
      threshold of mass y;
    - ``_residual(d, t, p, p_comp, q, q_comp, tail_mean, e, m)``: the
      residual R = ln(p_comp*/p_comp) that ``tune`` searches and its slope
      in u, from a probe's own numbers at t: p = sigmoid(eps0), q,
      Q = q_comp, tau = tail_mean, error e and m.

    With mu = tau/Q the cap mean, m = mu (q - p_comp)/q falls as p_comp
    rises, so it meets the condition's m* at p_comp* = q (1 - m*/mu): R has
    the sign and the root of m - m*. R is linear in eps0 where m - m* holds
    p_comp = sigmoid(-eps0) as an exponential, so Newton's steps on R
    converge from the midpoint without bisecting toward the bracket's end."""
    return _LAWS[alg]


def _params_at(split: BudgetSplit, d: int, alg: str):
    # the threshold whose upper mass is the budgeted q_comp; the builder
    # takes the masses evaluated at that threshold, so the budget it certifies
    # is that of the mechanism sampled
    law = _law(alg)
    t = law._quantile(split.q_comp, d)
    return law._build(d, split.p, split.p_comp, t, *law._mass(d, t)[1:])


def _bracket(law: ModuleType, eps: float, d: int) -> tuple[float, float, float]:
    """(lo, hi, tol) of tune's search: the law's bracket to the threshold of
    mass sigmoid(-eps), where eps1 = eps; tol is ``specfun._TOL`` of the
    bracket, over eps where eps < 1."""
    lo, hi = law._bracket(_sigmoid(-eps), d)
    return lo, hi, specfun._TOL * (hi - lo) / min(1.0, eps)


def _margin(eps: float) -> float:
    """delta, the part of eps a probe leaves unspent: a bound on the float
    rounding of the budget (ln p - ln q_comp) - (ln p_comp - ln q) at its
    p, p_comp, q and q_comp. With u = 2^-53 for each operation's relative
    error (glibc's exp and log are within 0.52 ulp), t = eps0 and
    l(x) = ln(1 + e^x): ln q and ln q_comp are the same floats in eps1 and
    the budget, so they cancel; eps1, eps - delta and eps0 round by
    u (eps1 + eps + t); p = 1/s and p_comp = e/s share e = exp(-t) and
    s = 1 + e, so ln(p/p_comp) is t to 3u; ln p, ln p_comp, the two levels
    and their difference round by u (l(-t) + l(t) + l(eps1) - l(-t) + l(t)
    - l(-eps1) + eps). As l(x) - l(-x) = x and t + eps1 <= eps, the sum is
    at most u (3 + 2 ln 2 + 5 eps), rounded up over libm's 4 % and the
    second-order terms: 2.25 ulp(eps + 1) at small eps."""
    return 2.0**-53 * (4.5 + 5.5 * eps)


def _probe(law: ModuleType, eps: float, d: int, t: float) -> tuple:
    """(eps0, p, p_comp, q, q_comp, tail_mean, err, m) of tune's probe at the
    law's threshold t: eps0 spends what the mass of t leaves of eps less
    ``_margin(eps)``, and the rest are the scalars its parameters hold."""
    gamma, q_comp, tail_mean = law._mass(d, t)
    # >= 0 where the mass leaves less than the margin (p = 1/2 cannot win)
    eps0 = max(0.0, (eps - _margin(eps)) - (math.log(1.0 - q_comp) - math.log(q_comp)))
    p, p_comp = _sigmoid(eps0), _sigmoid(-eps0)
    q, m = privunit._q_and_m(p, p_comp, q_comp, tail_mean)
    return eps0, p, p_comp, q, q_comp, tail_mean, law._err(d, p, p_comp, q, q_comp, gamma, m), m


def tune(eps: float, d: int, alg: str = "privunitg") -> TunedResult:
    """Minimize the analytic error over saturated splits eps0 + eps1 = eps.

    One root find (``specfun._root``, from the bracket's midpoint) of the
    first-order condition, gamma = m, in its log form R, over the law's
    search variable in the bracket of ``_bracket``, by the law's pieces
    (``_law``). A probe (``_probe``) evaluates its threshold's mass q_comp
    once, spends eps1 = ln(q/q_comp) on it and the rest of eps less the
    margin ``_margin(eps)`` on eps0, so it needs no quantile inversion.
    Every probe is feasible: ``_root`` probes at least tol inside the
    bracket, so its mass is at least sigmoid(-eps) > 0, and p_comp <= 1/2
    and q_comp < 1/2 pass ``_q_and_m``. Where PrivUnit's bracket stops at
    the smallest float cap (``privunit._bracket``), a Newton step past that
    end probes b - tol, which rounds onto that cap; a probe that rounds to
    the float threshold of the probe before it ends the search.

    The winner is the search's last probe or, where it ended on the stairs,
    the best probe seen: there the float error decides, not the root. It is
    built once, from its probe's eps0 and mass, so err_star is that probe's
    error bit for bit, the margin keeps its budget at most eps, and the
    split is the one its parameters spend. Raises ValueError unless eps
    lies in (0, 700] and d in [2, 10^8], and NumericsError when its error
    is not positive or its budget is above eps all the same.
    """
    sphere._check_eps(eps)
    d = sphere._check_dim(d)
    if alg not in _ALGS:
        raise ValueError(f"alg must be one of {_ALGS}, got {alg!r}")
    law = _law(alg)
    # (err, eps0, threshold, q_comp, tail_mean) of the last probe, the winner, and the best one seen
    last = best = (math.inf, None, None, None, None)

    def residual(u: float) -> tuple[float, float] | None:
        nonlocal last, best
        t = law._threshold(u)
        if t == last[2]:
            # PrivUnit's float-gamma stairs: further probes would evaluate the
            # same floats, and the float error, not the root, picks the winner
            last = best
            return None
        eps0, p, p_comp, q, q_comp, tail_mean, e, m = _probe(law, eps, d, t)
        last = (e, eps0, t, q_comp, tail_mean)
        if e < best[0]:
            best = last
        return law._residual(d, t, p, p_comp, q, q_comp, tail_mean, e, m)

    lo, hi, tol = _bracket(law, eps, d)
    specfun._root(residual, 0.5 * (lo + hi), lo, hi, tol)
    err_star, eps0, *at = last  # at: the winner's threshold and its mass
    params = law._build(d, _sigmoid(eps0), _sigmoid(-eps0), *at)
    if params.budget > eps:
        raise NumericsError(f"budget {params.budget!r} stays above eps={eps}, d={d}, past its rounding margin")
    split = BudgetSplit(eps=eps, eps0=eps0, eps1=math.log(params.q) - math.log(params.q_comp))
    if not err_star > 0.0:
        # the true error is positive; it can only underflow
        raise NumericsError(f"best error {err_star!r} is not positive at eps={eps}, d={d}")
    return TunedResult(split=split, params=params, err_star=err_star, c_const=eps * err_star / d, alg=alg)


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
    sphere._check_eps(eps)
    k = sphere._check_int(k, "k", 1)
    return tune(eps / k, d, alg).err_star / k
