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
condition is exponential, in about 4 error evaluations. The search names
no law: each law module binds the pieces it runs, as ``_law`` states.
The error is smooth in the threshold with a single minimum, the
condition's one root in the bracket. The scaled constant eps*err/d
converges in d, to c_eps(eps), and that limit keeps falling in eps: it
passes 0.614 near eps 38.5 and reads 0.509 at 700.
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


def _err_at(split: BudgetSplit, d: int, alg: str):
    params = _params_at(split, d, alg)
    return privunit.analytic_err(params).err, params


def _bracket(law: ModuleType, eps: float, d: int) -> tuple[float, float, float]:
    """(lo, hi, tol) of tune's search: the law's bracket to the threshold of
    mass sigmoid(-eps), where eps1 = eps; tol is ``specfun._TOL`` of the
    bracket, over eps where eps < 1."""
    lo, hi = law._bracket(_sigmoid(-eps), d)
    return lo, hi, specfun._TOL * (hi - lo) / min(1.0, eps)


def _probe(law: ModuleType, eps: float, d: int, t: float) -> tuple:
    """(eps0, p, p_comp, q, q_comp, tail_mean, err, m) of tune's probe at the
    law's threshold t: eps0 spends what the mass of t leaves of eps, and
    the rest are the scalars its parameters would hold."""
    gamma, q_comp, tail_mean = law._mass(d, t)
    # >= 0 despite float-gamma rounding at PrivUnit's far end (p = 1/2 cannot win)
    eps0 = max(0.0, eps - (math.log(1.0 - q_comp) - math.log(q_comp)))
    p, p_comp = _sigmoid(eps0), _sigmoid(-eps0)
    q, m = privunit._q_and_m(p, p_comp, q_comp, tail_mean)
    return eps0, p, p_comp, q, q_comp, tail_mean, law._err(d, p, p_comp, q, q_comp, gamma, m), m


def tune(eps: float, d: int, alg: str = "privunitg") -> TunedResult:
    """Minimize the analytic error over saturated splits eps0 + eps1 = eps.

    One root find (``specfun._root``, from the bracket's midpoint) of the
    first-order condition, gamma = m, in its log form R, over the law's
    search variable in the bracket of ``_bracket``, by the law's pieces
    (``_law``). A probe (``_probe``) evaluates its threshold's mass q_comp
    once, takes eps1 = ln(q/q_comp) from it and sets eps0 = eps - eps1, so
    it spends the whole budget and needs no quantile inversion. Every
    probe is feasible: ``_root`` probes at least tol inside the bracket, so
    its mass is at least sigmoid(-eps) > 0, and p_comp <= 1/2 and
    q_comp < 1/2 pass ``_q_and_m``. A probe evaluates scalars only, whose
    results the builders take and ``analytic_err`` wraps, so it builds no
    parameter object and its error is the built parameters' bit for bit.
    Where PrivUnit's bracket stops at the smallest float cap
    (``privunit._bracket``), a Newton step past that end probes b - tol,
    which rounds onto that cap; a probe that rounds to the float threshold
    of the probe before it ends the search.

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
    # the winner's object is built once; where rounding puts its budget above
    # eps, the excess comes back from eps0 in doubling steps (2^-52 at least:
    # less cannot move p near 1/2), giving up before eps0 turns negative
    params = law._build(d, _sigmoid(eps0), _sigmoid(-eps0), *at)
    step = max(params.budget - eps, 2.0**-52)
    while params.budget > eps:
        if step > eps0:
            raise NumericsError(f"budget {params.budget!r} stays above eps={eps}, d={d}")
        eps0 -= step
        params = law._build(d, _sigmoid(eps0), _sigmoid(-eps0), *at)
        err_star = privunit.analytic_err(params).err
        step *= 2.0
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
    k = sphere._check_int(k, "k", 1)
    return tune(eps / k, d, alg).err_star / k
