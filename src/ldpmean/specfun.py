"""Special-function kernel: the regularized incomplete beta and its inverse,
and the standard normal pdf/cdf/quantile. ln Gamma comes from
``math.lgamma``.

All public functions are scalar and pure. The continued-fraction incomplete
beta is evaluated in log space so that shape parameters of order 10^5 (half
of a large sphere dimension) neither overflow nor lose the tiny cap masses
that show up at large privacy budgets. Near its switch point the fraction
needs on the order of sqrt(a + b) terms, so its iteration budget,
200 + 4 sqrt(a + b), comes from the shapes.

Each algorithm is written once. The normal quantile is Wichura's AS241
(1988), accurate to double precision without refinement. The inverse
incomplete beta starts from one function for every shape (A&S 26.5.22 for
shapes >= 1, power-law tails otherwise) and refines by safeguarded Newton.
No sampler inverts a cdf: the samplers draw by rejection
(``sphere._draw_above``). The private ``*_vec`` names apply the one-value
inverses elementwise to an array and are kept for callers that look them
up by name.
"""

from __future__ import annotations

import math

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
        z = -_as241(y)
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


# Wichura's AS241 (PPND16): numerator coefficients n0..n7 and denominator
# coefficients d1..d7 (d0 = 1) of the central branch |p - 1/2| <= 0.425 and
# of the tail branches r = sqrt(-ln min(p, 1 - p)) <= 5 and r > 5
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3, 1.3731693765509461125e4,
     4.5921953931549871457e4, 6.7265770927008700853e4, 3.3430575583588128105e4, 2.5090809287301226727e3),
    (4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3, 2.1213794301586595867e4,
     3.9307895800092710610e4, 2.8729085735721942674e4, 5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
     1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1, 1.48103976427480074590e-1,
     1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
     2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2, 7.86869131145613259100e-4,
     1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15),
)


def _rational7(r: float, n, d) -> float:
    """(n0 + n1 r + ... + n7 r^7) / (1 + d1 r + ... + d7 r^7) by Horner's
    rule."""
    top = ((((((n[7] * r + n[6]) * r + n[5]) * r + n[4]) * r + n[3]) * r + n[2]) * r + n[1]) * r + n[0]
    bot = ((((((d[6] * r + d[5]) * r + d[4]) * r + d[3]) * r + d[2]) * r + d[1]) * r + d[0]) * r + 1.0
    return top / bot


def inv_std_normal_cdf(p: float) -> float:
    """Standard normal quantile (AS241), relative error below 1e-15."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    return _as241(p)


def _as241(p: float) -> float:
    # the quantile for a p in (0, 1) already checked; ``_beta_start`` takes
    # its normal approximation from here, so an incomplete-beta inversion
    # makes no call of the public quantile
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _rational7(0.180625 - q * q, *_AS241_CENTRAL)
    # numpy's log: libm's may differ by an ulp, which would move tuned
    # PrivUnitG thresholds
    r = math.sqrt(-float(np.log(p if q < 0.0 else 1.0 - p)))
    x = _rational7(r - 1.6, *_AS241_NEAR) if r <= 5.0 else _rational7(r - 5.0, *_AS241_FAR)
    return -x if q < 0.0 else x


# ---------------------------------------------------------------------------
# private elementwise variants


def _inv_std_normal_cdf_vec(p) -> np.ndarray:
    """``inv_std_normal_cdf`` at each element of an array."""
    return np.vectorize(inv_std_normal_cdf, otypes=[float])(p)


def _inv_reg_inc_beta_vec(y, a: float, b: float) -> np.ndarray:
    """``inv_reg_inc_beta`` at each element of an array."""
    return np.vectorize(inv_reg_inc_beta, otypes=[float])(y, a, b)
