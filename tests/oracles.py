"""Independent reference implementations used to cross-check the library.

Everything here is deliberately primitive: adaptive Simpson quadrature over
log-space integrands, three closed forms (the truncated Gaussian moments, by
the inverse Mills ratio, the residual of the tuner's first-order condition
at a probe's scalars, and PrivUnitG's d -> infinity constant), and nothing
from the package's own kernels beyond math.lgamma. Slow and simple beats fast and shared-bug.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, max_depth: int = 50) -> float:
    """Classic recursive adaptive Simpson rule."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, flm, f1, left, 0.5 * eps, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, 0.5 * eps, depth + 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def panelled_quad(f, lo: float, hi: float, panels: int = 24, tol: float = 1e-13) -> float:
    """Adaptive Simpson summed over fixed panels, so a spike strictly inside
    the range cannot slip between the initial sample points."""
    if hi <= lo:
        return 0.0
    knots = [lo + (hi - lo) * i / panels for i in range(panels + 1)]
    return sum(adaptive_simpson(f, knots[i], knots[i + 1], tol / panels) for i in range(panels))


def beta_cdf_quad(x: float, a: float, b: float, tol: float = 1e-12) -> float:
    """Regularized incomplete beta by direct quadrature of the density."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if b < 1.0 and x > 0.5:
        # send the right-edge singularity to the left edge, which the
        # substitution below removes exactly
        return 1.0 - beta_cdf_quad(1.0 - x, b, a, tol)
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            # interior limits: the endpoint value only matters for a,b < 1,
            # where the integrable singularity is handled by the substitution
            # below, so plain 0 is fine here
            return 0.0
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - ln_beta)

    if a >= 1.0:
        val = panelled_quad(pdf, 0.0, x, tol=tol)
    else:
        # substitute t = s^(1/a) to remove the left-edge singularity:
        # integrand becomes s^((a-1)/a) * pdf(s^(1/a)) / (a * s^((a-1)/a)) ... =
        # (1/a) * s^(1/a - 1) * pdf contributions folded analytically:
        # d t = (1/a) s^(1/a - 1) ds and t^(a-1) = s^((a-1)/a), so
        # t^(a-1) dt = (1/a) ds * s^0 -- the singular factor cancels exactly.
        def g(s: float) -> float:
            if s <= 0.0:
                return math.exp(-ln_beta) / a
            t = s ** (1.0 / a)
            return math.exp((b - 1.0) * math.log1p(-min(t, 1.0 - 1e-17)) - ln_beta) / a

        val = panelled_quad(g, 0.0, x**a, tol=tol)
    return min(max(val, 0.0), 1.0)


def normal_cdf_quad(x: float, tol: float = 1e-13) -> float:
    """Standard normal cdf by quadrature of the density from 0."""

    def pdf(t: float) -> float:
        return math.exp(-0.5 * t * t) / _SQRT2PI

    if x >= 0.0:
        return 0.5 + adaptive_simpson(pdf, 0.0, x, tol)
    return 0.5 - adaptive_simpson(pdf, x, 0.0, tol)


def trunc_gauss_moment_quad(gamma: float, sigma: float, power: int, above: bool) -> float:
    """E[U^power | side of gamma] for U ~ N(0, sigma^2), by quadrature."""

    def pdf(t: float) -> float:
        z = t / sigma
        return math.exp(-0.5 * z * z) / (_SQRT2PI * sigma)

    span = 40.0 * sigma
    if above:
        lo, hi = gamma, max(gamma, 0.0) + span
    else:
        lo, hi = min(gamma, 0.0) - span, gamma
    mass = panelled_quad(pdf, lo, hi, panels=96)
    mom = panelled_quad(lambda t: (t**power) * pdf(t), lo, hi, panels=96)
    return mom / mass


def trunc_gauss_moments(gamma: float, sigma: float) -> tuple[float, float, float, float]:
    """(E[U | U >= gamma], E[U^2 | U >= gamma], E[U | U < gamma], E[U^2 | U < gamma])
    for U ~ N(0, sigma^2), in closed form by the inverse Mills ratio:
    m_above = sigma phi(g)/(1 - Phi(g)), s_above = sigma^2 (1 + g phi(g)/(1 - Phi(g)))
    with g = gamma/sigma, and the sign-mirrored forms below."""
    g = gamma / sigma
    pdf = math.exp(-0.5 * g * g) / _SQRT2PI
    haz_above = pdf / (0.5 * math.erfc(g / _SQRT2))
    haz_below = pdf / (0.5 * math.erfc(-g / _SQRT2))
    return (sigma * haz_above, sigma * sigma * (1.0 + g * haz_above),
            -sigma * haz_below, sigma * sigma * (1.0 - g * haz_below))


def sphere_first_coord_moment_quad(d: int, gamma: float, power: int, above: bool) -> float:
    """E[W1^power | side of gamma] for W1 the first coordinate of a uniform
    point on the (d-1)-sphere, whose density is proportional to
    (1-t^2)^((d-3)/2) on [-1, 1].

    Integrated in the angle t = sin(theta), where the density becomes
    cos(theta)^(d-2): smooth for every d >= 2, unlike the t-space integrand
    whose endpoint singularity at d = 2 defeats adaptive refinement.
    """

    def weight(theta: float) -> float:
        c = math.cos(theta)
        if c <= 0.0:
            return 0.0
        return math.exp((d - 2.0) * math.log(c))

    if above:
        t_lo, t_hi = math.asin(gamma), 0.5 * math.pi
    else:
        t_lo, t_hi = -0.5 * math.pi, math.asin(gamma)
    mass = panelled_quad(weight, t_lo, t_hi, panels=64)
    mom = panelled_quad(lambda t: (math.sin(t) ** power) * weight(t), t_lo, t_hi, panels=64)
    return mom / mass


def _upper(g: float) -> float:
    # Phi(-g), the standard normal mass above g
    return 0.5 * math.erfc(g / _SQRT2)


def _bisect(holds, lo: float, hi: float) -> float:
    """The float where holds turns false, for holds(lo) true, holds(hi)
    false and one change between: lo once lo and hi are adjacent floats."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _gauss_k(eps: float, g: float) -> float:
    """K = m sqrt(d) = phi(g)(p/Phi(-g) - p_comp/Phi(g)) of PrivUnitG's
    saturated split at the threshold g in standard units, free of d:
    q_comp = Phi(-g) by math.erfc, eps1 = ln(q/q_comp), p = sigmoid(eps - eps1),
    taken as phi(g)(p + q - 1)/(q q_comp)."""
    q_comp, q = _upper(g), _upper(-g)
    eps0 = max(0.0, eps - (math.log(q) - math.log(q_comp)))
    # p + q - 1 = (p - 1/2) + (q - 1/2), with p - 1/2 = tanh(eps0/2)/2
    return math.exp(-0.5 * g * g) / _SQRT2PI * (0.5 * math.tanh(0.5 * eps0) + (0.5 - q_comp)) / (q * q_comp)


def _gauss_end(eps: float) -> float:
    # the threshold of mass sigmoid(-eps), where eps1 = eps
    y = math.exp(-eps) / (1.0 + math.exp(-eps))
    hi = 1.0
    while _upper(hi) >= y:
        hi *= 2.0
    return _bisect(lambda g: _upper(g) >= y, 0.0, hi)


def gauss_tuned_err_scan(eps: float, d: int, points: int = 2001) -> float:
    """The least PrivUnitG error d/K^2 + g/K - 1 over saturated splits, with
    K of ``_gauss_k`` at the threshold g in standard units. A scan of
    `points` thresholds from 0 to the one of mass sigmoid(-eps) (found by
    bisection), then golden-section refinement around the best of them;
    returns the least error seen."""

    def err(g: float) -> float:
        k = _gauss_k(eps, g)
        return d / (k * k) + g / k - 1.0

    lo = _gauss_end(eps)
    grid = [lo * i / (points - 1) for i in range(points)]
    values = [err(g) for g in grid]
    i = min(range(points), key=values.__getitem__)
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
    best = values[i]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, e = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fe = err(c), err(e)
    for _ in range(200):
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - inv_phi * (b - a)
            fc = err(c)
        else:
            a, c, fc = c, e, fe
            e = a + inv_phi * (b - a)
            fe = err(e)
        best = min(best, fc, fe)
        if b - a <= 1e-15 * max(lo, 1.0):
            break
    return best


def c_inf(eps: float) -> float:
    """The d -> infinity limit eps/g*^2 of PrivUnitG's scaled constant
    eps*err/d. With err = d/K^2 + g/K - 1 and K of ``_gauss_k`` free of d,
    eps*err/d tends to eps/K^2 at the best g; K' = K(K - g) puts the
    maximum of K where K(g*) = g*, the one root of K(g) - g in (0, g_end),
    g_end the threshold of mass sigmoid(-eps). Found by bisection from
    math.erfc alone."""
    return eps / _bisect(lambda g: _gauss_k(eps, g) >= g, 0.0, _gauss_end(eps)) ** 2


def first_order_residual(alg: str, d: int, t: float, e: float, m: float) -> tuple[float, float]:
    """The residual of the tuner's first-order condition gamma = m, positive
    while the error falls, and its slope in the search variable, at a probe
    of threshold t (gamma or g_std), error e and normalizer m; it certifies
    a tune. A saturated probe has m = c tau/(1 + c Q), with c = e^eps - 1,
    Q = q_comp and tau = tail_mean: m'(gamma) = f m (m - gamma)/tau for the
    law's density f. PrivUnit's residual is m - gamma = 2x - (1 - m) in
    s = -ln x, 1 - m = e m^2/(1 + m) so that it does not cancel as
    gamma -> 1, with f = a tau/(2x(1 - x)), a = (d - 1)/2. PrivUnitG's is
    G = (K - g)(2d + gK) - K in g, K = m sqrt(d): K' = K(K - g),
    d err/dg = -G/K^2."""
    if alg == "privunit":
        a, x = 0.5 * (d - 1), 0.5 * (1.0 - t)
        r = 2.0 * x - e * m * m / (1.0 + m)
        return r, a * m * r / (1.0 - x) - 2.0 * x
    k = m * math.sqrt(d)
    dk, w = k * (k - t), 2.0 * d + t * k
    return (k - t) * w - k, (dk - 1.0) * w + (k - t) * (k + t * dk) - dk
