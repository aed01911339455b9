"""Special-function kernel: log-gamma, regularized incomplete beta and its
inverse, the standard normal pdf/cdf/quantile, and truncated-Gaussian
moments.

All public functions are scalar and pure. The continued-fraction incomplete
beta is evaluated in log space so that shape parameters of order 10^5 (half
of a large sphere dimension) neither overflow nor lose the tiny cap masses
that show up at large privacy budgets. A few private ``*_vec`` variants
vectorize the same kernels for the batch samplers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

__all__ = [
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "std_normal_pdf",
    "std_normal_cdf",
    "inv_std_normal_cdf",
    "trunc_gauss_moments",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# continued-fraction convergence threshold; tighter than every accuracy a
# public function promises, so the CF never limits it
_CF_EPS = 1e-15
_FPMIN = 1e-300
# iteration cap of the continued fraction and of the inverse's Newton loop
_MAX_ITER = 200


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


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
    for m in range(1, _MAX_ITER + 1):
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
        f"incomplete beta continued fraction did not converge in {_MAX_ITER} "
        f"iterations (x={x}, a={a}, b={b})"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x == 0.5 and a == b:
        return 0.5  # exact by symmetry
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(x, a, b) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(1.0 - x, b, a) / b


def _log_beta_pdf(x: float, a: float, b: float, ln_beta: float) -> float:
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_beta


def inv_reg_inc_beta(y: float, a: float, b: float) -> float:
    """Inverse of ``reg_inc_beta`` in x: returns x with I_x(a, b) = y.

    Rational/normal-approximation initial guess refined by safeguarded
    Newton; falls back to bisection whenever a step leaves the current
    bracket, so convergence is guaranteed for monotone I_x.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
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
    ln_b = log_beta(a, b)
    if a >= 1.0 and b >= 1.0:
        # normal approximation to the beta quantile (Abramowitz & Stegun
        # 26.5.22, stated in terms of the upper-tail normal quantile)
        z = -inv_std_normal_cdf(y)
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            al + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        x = a / (a + b * math.exp(2.0 * w))
    else:
        # power-law tails for small shapes
        t = math.exp(a * math.log(a / (a + b))) / a
        u = math.exp(b * math.log(b / (a + b))) / b
        s = t + u
        if y < t / s:
            x = (a * s * y) ** (1.0 / a)
        else:
            x = 1.0 - (b * s * (1.0 - y)) ** (1.0 / b)
    x = min(max(x, _FPMIN), 1.0 - 1e-16)
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
        ln_pdf = _log_beta_pdf(x, a, b, ln_b)
        x_new = 0.5 * (lo + hi)
        if ln_pdf > -700.0:
            if cur > 0.0:
                # Newton on ln I: far better conditioned deep in the tail
                step = -(math.log(cur) - math.log(y)) * cur * math.exp(-ln_pdf)
            else:
                step = -f * math.exp(-ln_pdf)
            if lo < x + step < hi:
                x_new = x + step
        if x_new == x:
            return x  # at float resolution; neither criterion can fire
        x = x_new
    raise NumericsError(
        f"inverse incomplete beta did not converge (y={y}, a={a}, b={b})"
    )


def std_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


# Acklam's rational approximation to the normal quantile (relative error
# ~1.15e-9), refined below with Halley steps against the erfc-based cdf.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_PLOW = 0.02425


def _acklam(p: float) -> float:
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if p < _ACK_PLOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - _ACK_PLOW:
        q = math.sqrt(-2.0 * math.log1p(-p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def inv_std_normal_cdf(p: float) -> float:
    """Standard normal quantile, |cdf(result) - p| <= 1e-12 on [1e-15, 1-1e-15]."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    x = _acklam(p)
    for _ in range(2):
        e = std_normal_cdf(x) - p
        arg = 0.5 * x * x
        if arg > 700.0:  # Halley factor would overflow far in the tails
            break
        u = e * _SQRT2PI * math.exp(arg)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def trunc_gauss_moments(gamma: float, sigma: float) -> tuple[float, float, float, float]:
    """First and second moments of U ~ N(0, sigma^2) conditioned on each
    side of gamma.

    Returns (m_above, s_above, m_below, s_below) =
    (E[U | U >= gamma], E[U^2 | U >= gamma], E[U | U < gamma], E[U^2 | U < gamma]),
    computed from the inverse Mills ratio:
    m_above = sigma*phi(g)/(1 - Phi(g)), s_above = sigma^2*(1 + g*phi(g)/(1 - Phi(g)))
    with g = gamma/sigma, and the sign-mirrored forms below.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    g = gamma / sigma
    mass_above = 0.5 * math.erfc(g / _SQRT2)  # 1 - Phi(g)
    mass_below = 0.5 * math.erfc(-g / _SQRT2)  # Phi(g)
    if mass_above < 1e-300 or mass_below < 1e-300:
        raise NumericsError(
            f"conditioning tail mass saturated below 1e-300 at gamma/sigma={g}"
        )
    pdf = std_normal_pdf(g)
    haz_above = pdf / mass_above
    haz_below = pdf / mass_below
    m_above = sigma * haz_above
    s_above = sigma * sigma * (1.0 + g * haz_above)
    m_below = -sigma * haz_below
    s_below = sigma * sigma * (1.0 - g * haz_below)
    return m_above, s_above, m_below, s_below


# ---------------------------------------------------------------------------
# private vectorized variants (batch sampling paths)

_ERFC_UFUNC = np.frompyfunc(math.erfc, 1, 1)


def _std_normal_cdf_vec(x: np.ndarray) -> np.ndarray:
    return 0.5 * _ERFC_UFUNC(-np.asarray(x, dtype=float) / _SQRT2).astype(float)


def _inv_std_normal_cdf_vec(p: np.ndarray) -> np.ndarray:
    """Vectorized normal quantile: Acklam initialization plus one Halley
    refinement (residual ~1e-15, limited by the erfc-based cdf)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("quantile arguments must lie strictly in (0, 1)")
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    x = np.empty_like(p)

    low = p < _ACK_PLOW
    high = p > 1.0 - _ACK_PLOW
    mid = ~(low | high)
    if low.any():
        q = np.sqrt(-2.0 * np.log(p[low]))
        x[low] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if high.any():
        q = np.sqrt(-2.0 * np.log1p(-p[high]))
        x[high] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if mid.any():
        q = p[mid] - 0.5
        r = q * q
        x[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )

    e = _std_normal_cdf_vec(x) - p
    arg = 0.5 * x * x
    safe = arg < 700.0
    u = np.where(safe, e * _SQRT2PI * np.exp(np.where(safe, arg, 0.0)), 0.0)
    x -= u / (1.0 + 0.5 * x * u)
    return x


def _beta_cf_vec(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Vectorized modified-Lentz continued fraction; scalar shapes only."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            return h
    raise NumericsError(
        f"vectorized incomplete beta continued fraction did not converge "
        f"in {_MAX_ITER} iterations (a={a}, b={b})"
    )


def _reg_inc_beta_vec(x: np.ndarray, a: float, b: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    zero = x <= 0.0
    one = x >= 1.0
    switch = (a + 1.0) / (a + b + 2.0)
    ln_b = log_beta(a, b)
    direct = (x < switch) & ~zero
    flip = ~(x < switch) & ~one
    if direct.any():
        xd = x[direct]
        front = np.exp(a * np.log(xd) + b * np.log1p(-xd) - ln_b)
        out[direct] = front * _beta_cf_vec(xd, a, b) / a
    if flip.any():
        xf = 1.0 - x[flip]
        front = np.exp(b * np.log(xf) + a * np.log1p(-xf) - ln_b)
        out[flip] = 1.0 - front * _beta_cf_vec(xf, b, a) / b
    out[zero] = 0.0
    out[one] = 1.0
    if a == b:
        out[x == 0.5] = 0.5  # exact by symmetry, matches the scalar kernel
    return out


def _inv_beta_core(yy: np.ndarray, a: float, b: float) -> np.ndarray:
    """Safeguarded Newton for I_x(a, b) = yy with yy in (0, 1/2] and a, b >= 1."""
    ln_b = log_beta(a, b)
    z = -_inv_std_normal_cdf_vec(yy)  # upper-tail quantile, as in the scalar path
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = z * np.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
        al + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    x = a / (a + b * np.exp(2.0 * w))
    x = np.clip(x, _FPMIN, 1.0 - 1e-16)
    lo = np.zeros_like(yy)
    hi = np.ones_like(yy)
    active = np.arange(yy.size)
    for _ in range(_MAX_ITER):
        xa = x[active]
        ya = yy[active]
        cur = _reg_inc_beta_vec(xa, a, b)
        f = cur - ya
        lo_a = lo[active]
        hi_a = hi[active]
        hi_a = np.where(f > 0.0, np.minimum(hi_a, xa), hi_a)
        lo_a = np.where(f < 0.0, np.maximum(lo_a, xa), lo_a)
        hi[active] = hi_a
        lo[active] = lo_a
        # same stopping rule as the scalar kernel: relative residual or
        # exhausted bracket
        done = (np.abs(f) <= 1e-12 * ya) | (hi_a - lo_a <= 1e-15 * np.minimum(xa, 1.0 - xa))
        if done.all():
            active = active[:0]
            break
        keep = ~done
        active = active[keep]
        xa = xa[keep]
        ya = ya[keep]
        cur = cur[keep]
        f = f[keep]
        lo_a = lo_a[keep]
        hi_a = hi_a[keep]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inv_pdf = np.exp(ln_b - (a - 1.0) * np.log(xa) - (b - 1.0) * np.log1p(-xa))
            step = np.where(
                cur > 0.0,
                -(np.log(np.where(cur > 0.0, cur, 1.0)) - np.log(ya)) * cur * inv_pdf,
                -f * inv_pdf,
            )
            x_new = xa + step
        bad = ~np.isfinite(x_new) | (x_new <= lo_a) | (x_new >= hi_a)
        x_new = np.where(bad, 0.5 * (lo_a + hi_a), x_new)
        stalled = x_new == xa  # at float resolution; keep the current point
        x[active] = x_new
        if stalled.any():
            active = active[~stalled]
    if active.size:
        raise NumericsError(
            f"vectorized inverse incomplete beta left {active.size} points "
            f"unconverged (a={a}, b={b})"
        )
    return x


def _inv_reg_inc_beta_vec(y: np.ndarray, a: float, b: float) -> np.ndarray:
    """Vectorized inverse regularized incomplete beta."""
    y = np.asarray(y, dtype=float)
    if a < 1.0 or b < 1.0:
        # small-shape initialization is branchy; the scalar path handles it
        return np.array([inv_reg_inc_beta(float(v), a, b) for v in y.ravel()]).reshape(y.shape)
    out = np.empty_like(y)
    zero = y <= 0.0
    one = y >= 1.0
    out[zero] = 0.0
    out[one] = 1.0
    inner = ~(zero | one)
    if a == b:
        half = y == 0.5
        out[half] = 0.5  # exact by symmetry, matches the scalar kernel
        inner &= ~half
    # complement reduction as in the scalar kernel: solve within the smaller
    # tail so the residual test sees full relative precision
    low = inner & (y <= 0.5)
    high = inner & (y > 0.5)
    if low.any():
        out[low] = _inv_beta_core(y[low], a, b)
    if high.any():
        out[high] = 1.0 - _inv_beta_core(1.0 - y[high], b, a)
    return out
