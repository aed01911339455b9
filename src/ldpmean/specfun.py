"""Special-function kernel: the regularized incomplete beta and its inverse,
and the standard normal pdf/cdf/quantile. ln Gamma comes from
``math.lgamma``.

All public functions are scalar and pure. The continued-fraction incomplete
beta is evaluated in log space so that shape parameters of order 10^5 (half
of a large sphere dimension) neither overflow nor lose the tiny cap masses
that show up at large privacy budgets. Near its switch point the fraction
needs on the order of sqrt(a + b) terms, so its iteration budget,
200 + 4 sqrt(a + b), comes from the shapes.

Each algorithm is written once. The normal quantile is the standard
library's ``statistics.NormalDist.inv_cdf``, Wichura's AS241 (1988),
accurate to double precision without refinement. The inverse incomplete
beta starts from one function for every shape (A&S 26.5.22 for shapes >= 1,
power-law tails otherwise) and refines by safeguarded Newton. No sampler
inverts a cdf: the samplers draw by rejection (``sphere._draw_above``). The
private ``*_vec`` names apply the one-value inverses elementwise to an array
and are kept for callers that look them up by name; numpy serves only them.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from .errors import NumericsError

__all__ = [
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "std_normal_pdf",
    "std_normal_cdf",
    "inv_std_normal_cdf",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_LN_2SQRTPI = math.log(2.0 * math.sqrt(math.pi))
# continued-fraction convergence threshold; tighter than every accuracy a
# public function promises, so the CF never limits it
_CF_EPS = 1e-15
_FPMIN = 1e-300
# iteration cap of the inverse's Newton loop
_MAX_ITER = 200
# the one normal quantile of the package, also A&S 26.5.22's
_STD_NORMAL = statistics.NormalDist()


def _cf_budget(a: float, b: float) -> int:
    return 200 + int(4.0 * math.sqrt(a + b))


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    Valid for x below the symmetry switch point; callers flip otherwise.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    budget = _cf_budget(a, b)
    for m in range(1, budget + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NumericsError(
        f"incomplete beta continued fraction did not converge in {budget} "
        f"iterations (x={x}, a={a}, b={b})"
    )


def _ln_4a_beta_aa(a: float) -> float:
    """ln(4^a B(a, a)) = ln(2 sqrt(pi)) + ln Gamma(a) - ln Gamma(a + 1/2), by
    the duplication formula. From a = 500 on the difference comes from its
    asymptotic series -ln(a)/2 + 1/(8a) - 1/(192 a^3) + 1/(640 a^5) (next
    term below 2e-22), where lgamma's values are too large to leave it
    more than a few ulps of precision."""
    if a >= 500.0:
        r = 1.0 / (a * a)
        return _LN_2SQRTPI - 0.5 * math.log(a) + (0.125 - r * (1.0 / 192.0 - r / 640.0)) / a
    return _LN_2SQRTPI + math.lgamma(a) - math.lgamma(a + 0.5)


def _ln_front(x: float, a: float, b: float) -> float:
    """ln(x^a (1-x)^b / B(a, b)), the front factor of I_x(a, b), for 0 < x < 1
    and shapes the caller has checked (so B comes from math.lgamma directly).

    For a = b it is a ln(4x(1-x)) - ln(4^a B(a, a)), two terms of moderate
    size: with y = min(x, 1-x) (1 - x is exact above 1/2), ln(4y(1-y)) is
    log1p(-(1-2y)^2), 1 - 2y exact, from y = 1/4 on, and ln(4y) + log1p(-y)
    below."""
    if a == b:
        y = x if x <= 0.5 else 1.0 - x
        ln4xy = math.log1p(-(1.0 - 2.0 * y) ** 2) if y >= 0.25 else math.log(4.0 * y) + math.log1p(-y)
        return a * ln4xy - _ln_4a_beta_aa(a)
    return a * math.log(x) + b * math.log1p(-x) - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _check_shapes(a: float, b: float) -> None:
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], finite a, b > 0."""
    _check_shapes(a, b)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _reg_inc_beta_front(x, a, b, math.exp(_ln_front(x, a, b)))


def _reg_inc_beta_front(x: float, a: float, b: float, front: float) -> float:
    """I_x(a, b) for 0 <= x < 1, given its front factor
    front = exp(_ln_front(x, a, b)), which is 0 at x = 0: the fraction on the side of the switch
    point x = (a + 1)/(a + b + 2) where it converges, the complement on the
    other, and 1/2 exactly at x = 1/2 when a = b, by symmetry. Callers that
    need the front factor themselves evaluate it once for both."""
    if x == 0.5 and a == b:
        return 0.5
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def _beta_start(y: float, a: float, b: float) -> float:
    """Starting point of the inverse incomplete beta at a target y in
    (0, 1/2]; the caller clips it into (0, 1)."""
    if a >= 1.0 and b >= 1.0:
        # normal approximation to the beta quantile (Abramowitz & Stegun
        # 26.5.22, stated in terms of the upper-tail normal quantile)
        z = -_STD_NORMAL.inv_cdf(y)
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * (al + h) ** 0.5 / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            al + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        # x = a / (a + b e^{2w}); w > -0.1 for y <= 1/2, so e^{-2w} stays finite
        e = math.e ** (-2.0 * w)
        return a * e / (a * e + b)
    # power-law tails for small shapes: I_x ~ x^a / (a s) near 0 and
    # 1 - (1 - x)^b / (b s) near 1, meeting at y = t / s
    t = (a / (a + b)) ** a / a
    u = (b / (a + b)) ** b / b
    s = t + u
    return (a * s * y) ** (1.0 / a) if y < t / s else 1.0 - (b * s * (1.0 - y)) ** (1.0 / b)


def inv_reg_inc_beta(y: float, a: float, b: float) -> float:
    """Inverse of ``reg_inc_beta`` in x: returns x with I_x(a, b) = y.

    Starts from ``_beta_start`` and refines by safeguarded Newton; falls
    back to bisection whenever a step leaves the current bracket, so
    convergence is guaranteed for monotone I_x. The Newton step on ln I
    taken from |ln I_x - ln y| <= 1e-7 is returned without evaluating I again:
    it leaves a residual near 1e-14, and callers evaluate I where they need it.
    """
    _check_shapes(a, b)
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"y must lie in [0, 1], got {y!r}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    if y == 0.5 and a == b:
        return 0.5  # exact by symmetry
    if y > 0.5:
        # invert the complementary tail with swapped shapes: the target mass
        # and the kernel evaluations then carry full relative precision
        # instead of cancelling against 1
        return 1.0 - inv_reg_inc_beta(1.0 - y, b, a)
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    x = min(max(_beta_start(y, a, b), _FPMIN), 1.0 - 1e-16)
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_ITER):
        cur = reg_inc_beta(x, a, b)
        f = cur - y
        if f > 0.0:
            hi = x
        elif f < 0.0:
            lo = x
        else:
            return x
        # residual measured relative to the target mass (y <= 1/2 after the
        # complement reduction, and the CF side evaluates that tail without
        # cancellation); the bracket test is the fallback where the
        # edge-singular pdf of sub-1 shapes makes the residual unreachable
        if abs(f) <= 1e-12 * y or hi - lo <= 1e-15 * min(x, 1.0 - x):
            return x
        ln_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_b
        x_new = 0.5 * (lo + hi)
        if ln_pdf > -700.0:
            if cur > 0.0:
                # Newton on ln I: far better conditioned deep in the tail
                ln_res = math.log(cur) - math.log(y)
                step = -ln_res * cur * math.exp(-ln_pdf)
            else:
                ln_res, step = math.inf, -f * math.exp(-ln_pdf)
            if lo < x + step < hi:
                x_new = x + step
                if abs(ln_res) <= 1e-7:
                    return x_new
        if x_new == x or x_new == 0.0:
            # at float resolution, or at a root below the smallest double;
            # neither criterion can fire
            return x_new
        x = x_new
    raise NumericsError(
        f"inverse incomplete beta did not converge (y={y}, a={a}, b={b})"
    )


def std_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def inv_std_normal_cdf(p: float) -> float:
    """Standard normal quantile, relative error below 1e-15."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    return _STD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# private elementwise variants


def _inv_std_normal_cdf_vec(p) -> np.ndarray:
    """``inv_std_normal_cdf`` at each element of an array."""
    return np.vectorize(inv_std_normal_cdf, otypes=[float])(p)


def _inv_reg_inc_beta_vec(y, a: float, b: float) -> np.ndarray:
    """``inv_reg_inc_beta`` at each element of an array."""
    return np.vectorize(inv_reg_inc_beta, otypes=[float])(y, a, b)
