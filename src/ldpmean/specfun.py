"""Special-function kernel: the regularized incomplete beta of the one beta
law the package uses, the symmetric I_x(a, a) of a sphere coordinate, and
its inverse, and the standard normal pdf/cdf/quantile.

All public functions are scalar and pure. The continued-fraction incomplete
beta is evaluated in log space so that shapes of order 10^5 (half of a
large sphere dimension) neither overflow nor lose the tiny cap masses that
show up at large privacy budgets. Near x = 1/2 the fraction needs on the
order of sqrt(a + b) terms, so its iteration budget, 200 + 4 sqrt(a + b),
comes from the shapes; it keeps two, as ``privunit._err`` takes it at
(a + 1, a).

Each algorithm is written once. The normal quantile is
``statistics.NormalDist.inv_cdf`` (Wichura's AS241), accurate to double
precision. ``_root`` is the package's one safeguarded Newton root finder,
run by the tuner and by the inverse incomplete beta, which refines one
start (``_beta_start``) in ln x: at most 4 fraction evaluations per cap
mass sigmoid(-eps) of the envelope. No sampler inverts a cdf: the samplers
draw by rejection (``sphere._draw_above``). The private ``*_vec`` names
apply the one-value inverses elementwise to an array; nothing in the
package calls them, and they stay because the benchmark's spans
(``bench/spans.py``) resolve them by name. numpy serves only them.
"""

from __future__ import annotations

import math
import statistics
import sys

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
_LN2 = math.log(2.0)
# continued-fraction convergence threshold; tighter than every accuracy a
# public function promises, so the CF never limits it
_CF_EPS = 1e-15
_FPMIN = 1e-300
# s = -ln x of the smallest normal double, the far end of the inverse's
# search: below it x = exp(-s) cannot express the root, only its grid step
_S_MAX = -math.log(sys.float_info.min)
# the tolerance of a root's abscissa, the square root of the double epsilon:
# absolute in the inverse's s = -ln x, and a fraction of the bracket in the
# tuner's search, where the error's differences below it sink into rounding
_TOL = 2.0**-26
# the one normal quantile of the package, also A&S 26.5.22's
_STD_NORMAL = statistics.NormalDist()


def _cf_budget(a: float, b: float) -> int:
    return 200 + int(4.0 * math.sqrt(a + b))


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    Converges for x below (a + 1)/(a + b + 2); callers flip otherwise.
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


def _ln_front(x: float, a: float) -> float:
    """ln(x^a (1-x)^a / B(a, a)), the front factor of I_x(a, a), for 0 < x < 1
    and a shape the caller has checked: a ln(4x(1-x)) - ln(4^a B(a, a)), two
    terms of moderate size. With y = min(x, 1-x) (1 - x is exact above 1/2),
    ln(4y(1-y)) is log1p(-(1-2y)^2), 1 - 2y exact, from y = 1/4 on, and
    ln(4y) + log1p(-y) below."""
    y = x if x <= 0.5 else 1.0 - x
    ln4xy = math.log1p(-(1.0 - 2.0 * y) ** 2) if y >= 0.25 else math.log(4.0 * y) + math.log1p(-y)
    return a * ln4xy - _ln_4a_beta_aa(a)


def _check_shape(a: float) -> None:
    if not 0.0 < a < math.inf:
        raise ValueError(f"the shape parameter must be positive and finite, got a={a}")


def reg_inc_beta(x: float, a: float) -> float:
    """Regularized incomplete beta I_x(a, a), the cdf of the symmetric
    Beta(a, a) law, for x in [0, 1] and finite a > 0."""
    _check_shape(a)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _reg_inc_beta_front(x, a, math.exp(_ln_front(x, a)))


def _reg_inc_beta_front(x: float, a: float, front: float) -> float:
    """I_x(a, a) for 0 <= x < 1, given its front factor
    front = exp(_ln_front(x, a)), 0 at x = 0: the fraction below 1/2, where
    it converges, the complement 1 - I_{1-x}(a, a) above, and 1/2 exactly
    at 1/2. Callers that need the front factor evaluate it once for both."""
    if x < 0.5:
        return front * _beta_cf(x, a, a) / a
    if x > 0.5:
        return 1.0 - front * _beta_cf(1.0 - x, a, a) / a
    return 0.5


def _beta_start(y: float, a: float) -> float:
    """Starting point of the inverse of I_x(a, a) at a target y in
    (0, 1/2); the caller clips it into (0, 1)."""
    if a >= 1.0:
        # normal approximation to the beta quantile (Abramowitz & Stegun
        # 26.5.22 at b = a, in terms of the upper-tail normal quantile)
        z = -_STD_NORMAL.inv_cdf(y)
        h = 2.0 * a - 1.0
        w = z * ((z * z - 3.0) / 6.0 + h) ** 0.5 / h
        # x = a / (a + a e^{2w}), not e/(e + 1), which rounds some roots
        # differently; w > -0.1 for y <= 1/2, so e^{-2w} stays finite
        e = math.e ** (-2.0 * w)
        return a * e / (a * e + a)
    # power-law tail for a small shape: I_x ~ x^a / (a B(a, a)) near 0, with
    # B(a, a) taken as 2^(1 - a)/a
    return (2.0 * 0.5**a * y) ** (1.0 / a)


def _root(f, t: float, a: float, b: float, tol: float) -> None:
    """A root in (a, b), to an absolute tolerance tol, of a residual that is
    positive below it and negative above; f(t) returns (r, dr/dt) and keeps
    what the caller needs, or None to end the search. Newton steps from the
    start t, a bisection where a step leaves the bracket of the root or
    fails to halve the step before it (Numerical Recipes' rtsafe), until a
    Newton correction or a step is below tol: a correction below tol ends
    the search also where it rounds onto t. A Newton step past b while no
    probe has bounded the root from above probes b - tol instead of
    bisecting, so a root beyond b takes two probes, not a walk. Probes,
    the start among them, are clamped to [a + tol, b - tol], or onto the
    midpoint of a bracket narrower than 2 tol: a residual of one sign ends
    at that end."""
    lo, hi, end = a + tol, b - tol, b
    if lo > hi:
        lo = hi = 0.5 * (a + b)
    t, step = min(max(t, lo), hi), b - a
    while True:
        rd = f(t)
        if rd is None:
            return
        r, dr = rd
        if r > 0.0:
            a = t
        elif r < 0.0:
            b = t
        if dr < 0.0 and abs(r) < -dr * tol:
            return
        u = t - r / dr if dr < 0.0 else t
        if u >= b == end:
            u = hi
        elif not (a < u < b and abs(u - t) <= 0.5 * step):
            u = 0.5 * (a + b)
        u = min(max(u, lo), hi)
        step = abs(u - t)
        if step < tol:
            return
        t = u


def inv_reg_inc_beta(y: float, a: float) -> float:
    """Inverse of ``reg_inc_beta`` in x: returns x with I_x(a, a) = y.

    Refines ``_beta_start`` by one ``_root`` search on r(s) = ln I - ln y
    in s = -ln x below x = 1/2, where r = ln front + ln(CF/a) does not
    underflow and Newton is exact where I is a power law of x; y > 1/2 is
    1 - x of the complement's. The search ends at the smallest normal
    double; the last probe's Newton correction, x exp(r/(dr/ds)), places a
    subnormal root to its grid step (0.0 below the smallest double) and
    stops at 1/2, passed only where I is flat to the last bits of y.
    """
    _check_shape(a)
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"y must lie in [0, 1], got {y!r}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    if y == 0.5:
        return 0.5  # exact by symmetry
    if y > 0.5:
        # invert the complementary tail: the target mass and the kernel
        # evaluations then carry full relative precision instead of
        # cancelling against 1
        return 1.0 - inv_reg_inc_beta(1.0 - y, a)
    x0 = min(max(_beta_start(y, a), _FPMIN), 1.0 - 1e-16)
    ln_y = math.log(y)
    last = None

    def residual(s: float) -> tuple[float, float]:
        # keeps (x, s, r, dr/ds), with dr/ds = -a/((1 - x) CF)
        nonlocal last
        x = math.exp(-s)
        cf = _beta_cf(x, a, a)
        last = (x, s, _ln_front(x, a) + math.log(cf / a) - ln_y, -a / ((1.0 - x) * cf))
        return last[2:]

    # _root probes at least tol inside its bracket: this one reaches x = 1/2
    _root(residual, -math.log(x0), _LN2 - _TOL, _S_MAX, _TOL)
    x, s, r, dr = last
    return x * math.exp(min(r / dr, s - _LN2))


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


def _inv_reg_inc_beta_vec(y, a: float) -> np.ndarray:
    """``inv_reg_inc_beta`` at each element of an array."""
    return np.vectorize(inv_reg_inc_beta, otypes=[float])(y, a)
