"""Special-function kernel: the regularized incomplete beta and its inverse,
and the standard normal pdf/cdf/quantile. ln Gamma comes from
``math.lgamma``, and ln B from Stirling's series where a shape is 20 or
more.

All public functions are scalar and pure. The continued-fraction incomplete
beta is evaluated in log space so that shape parameters of order 10^5 (half
of a large sphere dimension) neither overflow nor lose the tiny cap masses
that show up at large privacy budgets. Near its switch point the fraction
needs on the order of sqrt(a + b) terms, so its iteration budget,
200 + 4 sqrt(a + b), comes from the shapes.

Each algorithm is written once. The normal quantile is
``statistics.NormalDist.inv_cdf`` (Wichura's AS241), accurate to double
precision. ``_root`` is the package's one safeguarded Newton root finder,
run by the tuner and by the inverse incomplete beta, which refines one
start for every shape (``_beta_start``) in ln x: at most 4 fraction
evaluations per cap mass sigmoid(-eps) of the envelope. No sampler inverts
a cdf: the samplers draw by rejection (``sphere._draw_above``). The private
``*_vec`` names apply the one-value inverses elementwise to an array and
are kept for callers that look them up by name; numpy serves only them.
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
_LN_SQRT2PI = 0.5 * math.log(2.0 * math.pi)
# continued-fraction convergence threshold; tighter than every accuracy a
# public function promises, so the CF never limits it
_CF_EPS = 1e-15
_FPMIN = 1e-300
# s = -ln x of the smallest double, the far end of the inverse's search
_S_MAX = -math.log(5e-324)
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


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2, z >= 20 (error < 1e-17)."""
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / z


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b). From a shape of 20 on, lgamma's values are too large to
    leave their difference more than a few ulps (1.2e-13 of ln B at
    a = 0.81, b = 303): each ln Gamma of 20 or more comes from Stirling's
    series, with (z - 1/2) ln z - z collected into differences of log1p."""
    a, b = min(a, b), max(a, b)
    if b < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    c = a + b
    ln_b = _stirling_tail(b) - _stirling_tail(c) - (b - 0.5) * math.log1p(a / b)
    if a < 20.0:
        return ln_b + math.lgamma(a) - a * math.log(c) + a
    return ln_b + _stirling_tail(a) - (a - 0.5) * math.log1p(b / a) + _LN_SQRT2PI - 0.5 * math.log(c)


def _ln_front(x: float, a: float, b: float) -> float:
    """ln(x^a (1-x)^b / B(a, b)), the front factor of I_x(a, b), for 0 < x < 1
    and shapes the caller has checked.

    For a = b it is a ln(4x(1-x)) - ln(4^a B(a, a)), two terms of moderate
    size: with y = min(x, 1-x) (1 - x is exact above 1/2), ln(4y(1-y)) is
    log1p(-(1-2y)^2), 1 - 2y exact, from y = 1/4 on, and ln(4y) + log1p(-y)
    below."""
    if a == b:
        y = x if x <= 0.5 else 1.0 - x
        ln4xy = math.log1p(-(1.0 - 2.0 * y) ** 2) if y >= 0.25 else math.log(4.0 * y) + math.log1p(-y)
        return a * ln4xy - _ln_4a_beta_aa(a)
    return a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)


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


def _switch(a: float, b: float) -> float:
    return (a + 1.0) / (a + b + 2.0)


def _reg_inc_beta_front(x: float, a: float, b: float, front: float) -> float:
    """I_x(a, b) for 0 <= x < 1, given its front factor
    front = exp(_ln_front(x, a, b)), 0 at x = 0: the fraction up to the
    switch point, where it converges, the complement above it, and 1/2
    exactly at x = 1/2 when a = b. Callers that need the front factor
    evaluate it once for both."""
    if x == 0.5 and a == b:
        return 0.5
    if x <= _switch(a, b):
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


def inv_reg_inc_beta(y: float, a: float, b: float) -> float:
    """Inverse of ``reg_inc_beta`` in x: returns x with I_x(a, b) = y.

    Refines ``_beta_start`` by one ``_root`` search on r(s) = ln I - ln y
    in s = -ln x below the switch point, where r = ln front + ln(CF/a) does
    not underflow and Newton is exact where I is a power law of x. A root
    above it (I_x < y there, never when a = b) is 1 - x of the complement's,
    I_{1-x}(b, a) = 1 - y. The last probe's Newton correction applies to
    its own x, x exp(r/(dr/ds)), and stops at the switch point, passed only
    where I is flat to the last bits of y; a root below the smallest double
    comes back as 0.0.
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
    x0 = min(max(_beta_start(y, a, b), _FPMIN), 1.0 - 1e-16)
    flip = a != b and reg_inc_beta(_switch(a, b), a, b) < y
    if flip:
        y, a, b, x0 = 1.0 - y, b, a, 1.0 - x0
    ln_y, s_switch = math.log(y), -math.log(_switch(a, b))
    last = None

    def residual(s: float) -> tuple[float, float]:
        # keeps (x, s, r, dr/ds), with dr/ds = -a/((1 - x) CF)
        nonlocal last
        x = math.exp(-s)
        cf = _beta_cf(x, a, b)
        last = (x, s, _ln_front(x, a, b) + math.log(cf / a) - ln_y, -a / ((1.0 - x) * cf))
        return last[2:]

    # _root probes at least tol inside its bracket: this one reaches the switch point
    _root(residual, -math.log(x0), s_switch - _TOL, _S_MAX, _TOL)
    x, s, r, dr = last
    x *= math.exp(min(r / dr, s - s_switch))
    return 1.0 - x if flip else x


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
