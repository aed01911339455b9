"""The PrivUnit randomizer: with probability p report a uniform point of the
spherical cap {u : <u, v> >= gamma} around the input v, otherwise a uniform
point of the complement, then scale by 1/m so the output is an unbiased
estimate of v.

This is the threshold construction shared with ``privunitg``: parameters
extend :class:`ThresholdParams` and draws go through
``sphere._threshold_rows``, with the coordinate along v following the first
coordinate W_1 of a uniform point of S^{d-1} and the orthogonal part
uniform with norm sqrt(1 - alpha^2), so every report lies on the
radius-1/m sphere. ``randomize``, ``randomize_batch``, ``log_density`` and
``analytic_err`` serve both laws: they read the law from the parameters.

The normalizer combines the two reciprocal cap masses with a minus sign on
the complement term: unbiasedness forces it, since E[W_1] = 0 splits the
mixture mean into E[W_1 1{W_1 >= gamma}] * (p/(1-q) - (1-p)/q) with
q = P(W_1 <= gamma). Everything is evaluated in log space; parameters
carry exact complements (p_comp, q_comp) so that budgets near saturation
(q -> 1) keep full precision. The threshold gamma is the one input that
describes the mechanism: both builders take q_comp and the tail mean of
the stored gamma from their caller, which evaluates them by the law's
``_mass`` (a piece of ``tuner._law``), so ``budget`` certifies what
``randomize`` draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sphere, specfun
from .errors import DegenerateParameterError, SupportError
from .sphere import RngStream, as_unit_rows, as_unit_vector

__all__ = [
    "CapParams",
    "ErrorBreakdown",
    "cap_params",
    "privacy_eps",
    "analytic_err",
    "randomize",
    "randomize_batch",
    "log_density",
]

@dataclass(frozen=True)
class ErrorBreakdown:
    """Analytic moments and squared error of a configured randomizer.

    m is E[alpha] (the mean inner product with the input before scaling),
    alpha_sq is E[alpha^2], err the squared estimation error as evaluated
    in double precision.
    """

    m: float
    alpha_sq: float
    err: float
    d: int


@dataclass(frozen=True)
class ThresholdParams:
    """The parameters both randomizers share. A report's coordinate along
    its input follows a 1-D law T conditioned on the closed side
    T >= gamma with probability p, else on T < gamma. q = P(T < gamma) and
    q_comp = P(T >= gamma) are the masses of the stored threshold gamma, so
    budget = log_level_hi - log_level_lo certifies the mechanism that is
    sampled; p_comp and q_comp are carried as exact complements. m is the
    normalizer, log_level_hi/lo the two log density levels."""

    d: int
    p: float
    p_comp: float
    q: float
    q_comp: float
    gamma: float
    m: float
    log_level_hi: float
    log_level_lo: float
    budget: float


@dataclass(frozen=True)
class CapParams(ThresholdParams):
    """Validated PrivUnit parameters; build through :func:`cap_params`.
    T is the first coordinate of a uniform point of S^{d-1}, whose law is
    2B - 1 with B ~ Beta((d-1)/2, (d-1)/2)."""

    sigma = None  # not a field: names this law to the sampler and log_density, as GaussParams.sigma does its own


def _ln(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _two_log_levels(p: float, q: float, p_comp: float, q_comp: float) -> tuple[float, float]:
    # density levels w.r.t. the uniform probability measure: p mass on a cap
    # of measure q_comp, the rest on the complement of measure q
    return _ln(p) - _ln(q_comp), _ln(p_comp) - _ln(q)


def privacy_eps(p: float, q: float, p_comp: float | None = None, q_comp: float | None = None) -> float:
    """The privacy budget ln(p/(1-p)) + ln(q/(1-q)) certified by the two
    density levels; the randomizer is eps-DP iff this is <= eps.

    Endpoint p or q in {0, 1} signals an infinite budget (returns inf).
    Exact complements may be supplied to avoid 1-p cancellation; the result
    is then bit-identical to the difference of the stored log levels. A
    complement outside [0, 1], or one whose sum with its level is more than
    a few float steps from 1, is rejected: it would misstate the budget.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"p and q must lie in [0, 1], got p={p!r}, q={q!r}")
    if p_comp is None:
        p_comp = 1.0 - p
    if q_comp is None:
        q_comp = 1.0 - q
    for name, x, x_comp in (("p", p, p_comp), ("q", q, q_comp)):
        if not (0.0 <= x_comp <= 1.0 and abs(x + x_comp - 1.0) <= 2.0**-50):  # four float steps
            raise ValueError(f"{name}_comp={x_comp!r} is not the complement of {name}={x!r}")
    if p == 0.0 or p_comp == 0.0 or q == 0.0 or q_comp == 0.0:
        return math.inf
    log_hi, log_lo = _two_log_levels(p, q, p_comp, q_comp)
    return log_hi - log_lo


def _q_and_m(p: float, p_comp: float, q_comp: float, tail_mean: float) -> tuple[float, float]:
    """q = 1 - q_comp and the normalizer m = tail_mean * (p + q - 1) / (q q_comp)
    at a threshold of mass q_comp = P(T >= gamma) and tail mean
    tail_mean = E[T 1{T >= gamma}], rejected unless positive (p + q <= 1, a
    tail mean that underflowed to 0, or a cap of zero mass)."""
    q = 1.0 - q_comp
    num = tail_mean * (1.0 - (p_comp + q_comp))  # sign-corrected p + q - 1
    if not (num > 0.0 and q_comp > 0.0):
        raise DegenerateParameterError(f"normalizer is not positive at p={p}, q={q}, q_comp={q_comp}")
    return q, num / (q * q_comp)


def _threshold_fields(d: int, p: float, p_comp: float, gamma: float, q_comp: float, tail_mean: float) -> dict:
    """The ThresholdParams fields at the threshold gamma, given its mass
    q_comp and tail mean (see ``_q_and_m``): the last three arguments are a
    law's mass result."""
    q, m = _q_and_m(p, p_comp, q_comp, tail_mean)
    log_hi, log_lo = _two_log_levels(p, q, p_comp, q_comp)
    return dict(d=d, p=p, p_comp=p_comp, q=q, q_comp=q_comp, gamma=gamma, m=m,
                log_level_hi=log_hi, log_level_lo=log_lo, budget=log_hi - log_lo)


def _mass(d: int, gamma: float) -> tuple[float, float, float]:
    """(gamma, q_comp, tail_mean) of the cap {T >= gamma}. With a = (d-1)/2
    the cap is {X <= x} for X ~ Beta(a, a) and x = (1 - gamma)/2, so
    q_comp = I_x(a, a), bit for bit ``sphere.marginal_cdf(-gamma, d)``, and
    tail_mean = E[T 1{T >= gamma}] = x^a (1-x)^a / (a B(a, a)) is the front
    factor of that same I_x, evaluated once for both, whose rounding then
    cancels in m; x is 0 or >= 2^-54."""
    a = 0.5 * (d - 1)
    x = 0.5 * (1.0 - gamma)
    front = math.exp(specfun._ln_front(x, a)) if x > 0.0 else 0.0
    return gamma, specfun._reg_inc_beta_front(x, a, front), front / a


def _build(d: int, p: float, p_comp: float, gamma: float, q_comp: float, tail_mean: float) -> CapParams:
    """PrivUnit parameters at the sampled threshold gamma, from the mass
    q_comp and tail mean that the caller took from ``_mass(d, gamma)``."""
    return CapParams(**_threshold_fields(d, p, p_comp, gamma, q_comp, tail_mean))


def cap_params(d: int, p: float, gamma: float) -> CapParams:
    """Validate (d, p, gamma) and cache q, the normalizer m, and the two
    density levels. Degenerate parameters (m <= 0) are rejected here."""
    d = sphere._check_dim(d)
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p!r}")
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    return _build(d, p, 1.0 - p, gamma, *_mass(d, gamma)[1:])


def analytic_err(params: ThresholdParams) -> ErrorBreakdown:
    """Exact squared error of the law that ``params.sigma`` names. PrivUnit's
    is 1/m^2 - 1 (the output lies on the radius-1/m sphere), evaluated by
    ``_err`` without cancellation, with alpha_sq recorded
    informationally via the closed form
    E[W_1^2 under the mixture] = (1 + gamma (d-1) m) / d. PrivUnitG's is
    ``privunitg._err``, looked up at each call so that a wrapped or
    patched helper is the one called, with the alpha_sq the parameters hold."""
    d, m = params.d, params.m
    args = (d, params.p, params.p_comp, params.q, params.q_comp, params.gamma, m)
    if params.sigma is None:
        return ErrorBreakdown(m=m, alpha_sq=(1.0 + params.gamma * (d - 1) * m) / d, err=_err(*args), d=d)
    from . import privunitg  # deferred: privunitg imports this module
    return ErrorBreakdown(m=m, alpha_sq=params.alpha_sq, err=privunitg._err(*args), d=d)


def _err(d: int, p: float, p_comp: float, q: float, q_comp: float, gamma: float, m: float) -> float:
    """PrivUnit's squared error 1/m^2 - 1 as (1 - m)(1 + m)/m^2 with
    1 - m = p r + p_comp (1 + tau/q), a sum of positive terms, so a small
    err keeps its relative precision.

    tau = E[T 1{T >= gamma}] comes back from m, and r = 1 - tau/q_comp is
    1 - E[T | T >= gamma]. With a = (d-1)/2 and x = (1 - gamma)/2 <= 1/2,
    q_comp = I_x(a, a) and tau share the front factor of the continued
    fraction, so tau/q_comp is 1/CF(x; a, a) to rounding. Where it exceeds
    1/2, 1 - tau/q_comp would cancel, and r = I_x(a+1, a)/I_x(a, a) is
    taken as (2ax/(a+1)) CF(x; a+1, a)/CF(x; a, a) instead, whose front
    factors cancel."""
    tau = m * q * q_comp / (1.0 - (p_comp + q_comp))
    cap_mean = tau / q_comp
    if cap_mean <= 0.5:
        r = 1.0 - cap_mean
    else:
        a = 0.5 * (d - 1)
        x = 0.5 * (1.0 - gamma)
        r = 2.0 * a * x / (a + 1.0) * specfun._beta_cf(x, a + 1.0, a) * cap_mean
    one_minus_m = p * r + p_comp * (1.0 + tau / q)
    return one_minus_m * (1.0 + m) / (m * m)


# the smallest cap of a float gamma: gamma = 1 - 2^-53, x = (1 - gamma)/2 = 2^-54
_GAMMA_EDGE = 1.0 - 2.0**-53
_S_EDGE = 54.0 * specfun._LN2


def _quantile(y: float, d: int) -> float:
    return 0.0 - sphere.inv_marginal_cdf(y, d)  # 0.0 - t keeps gamma = +0.0 at y = 1/2


def _threshold(s: float) -> float:
    return 1.0 - 2.0 * math.exp(-s)  # the search runs in s = -ln x, x = (1 - gamma)/2


def _bracket(y: float, d: int) -> tuple[float, float]:
    """From s = ln 2 (gamma = 0) to the cap of mass y or, with no cdf
    inverted, to the smallest float cap where that lies past it: a float
    gamma expresses no x below 2^-54, so the error is a staircase where the
    cap is that small (d up to about 44 at large eps)."""
    if _mass(d, _GAMMA_EDGE)[1] >= y:
        return specfun._LN2, _S_EDGE
    return specfun._LN2, -math.log(specfun.inv_reg_inc_beta(y, 0.5 * (d - 1)))


def _residual(d: int, t: float, p: float, p_comp: float, q: float, q_comp: float,
              tail_mean: float, e: float, m: float) -> tuple[float, float]:
    """R and R' in s, with m* = gamma: mu - gamma = (m - gamma) + mu p_comp/q
    with m - gamma = 2x - e m^2/(1 + m), which does not cancel as
    gamma -> 1; F = a tau/(1 - x) = 2x f(gamma) is the slope of q, mu' =
    F (mu - gamma)/Q and (ln p_comp)' = p F/(q Q)."""
    a, x = 0.5 * (d - 1), 0.5 * (1.0 - t)
    mu = tail_mean / q_comp
    excess = 2.0 * x - e * m * m / (1.0 + m) + mu * p_comp / q  # mu - gamma
    f = a * tail_mean / (1.0 - x)
    r = math.log(q * excess / mu) - math.log(p_comp)
    return r, p_comp * f / (q * q_comp) - 2.0 * x / excess - f * excess / (q_comp * mu)


def _reports(v, params: ThresholdParams, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Threshold reports of the law that ``params.sigma`` names, drawn from
    rng by the sampler's block rule (``sphere._threshold_rows``): given
    size, size reports of the unit vector v, the rows of its broadcast view;
    else one per unit row of an (n, d) matrix v, or one 1-D report of a unit
    vector v, the one-row matrix."""
    if size is None:
        rows = as_unit_rows(v)
    else:
        vec = as_unit_vector(v)
        size = sphere._check_int(size, "size", 1)
        rows = np.broadcast_to(vec, (size, vec.size))
    out = _row_reports(rows, params, rng)
    return out[0] if size is None and np.ndim(v) == 1 else out


def _row_reports(rows, params: ThresholdParams, rng: RngStream) -> np.ndarray:
    """The reports of ``_reports`` for an (n, d) matrix of rows already
    validated as unit rows."""
    if rows.shape[1] != params.d:
        raise ValueError(f"input dimension {rows.shape[1]} != params dimension {params.d}")
    return sphere._threshold_rows(rows, rng, params.p, params.q, params.q_comp, params.gamma, params.m, params.sigma)


def randomize(v, params: CapParams, rng: RngStream) -> np.ndarray:
    """PrivUnit reports: a cap sample around the input with probability p,
    a complement sample otherwise, scaled to the radius-1/m sphere, so
    E[report] = input. v is an (n, d) matrix of unit rows (one report per
    row) or one unit vector, which is the one-row matrix, drawn from rng
    by the sampler's block rule (``sphere._threshold_rows``)."""
    return _reports(v, params, rng)


def randomize_batch(v, params: CapParams, size: int, rng: RngStream) -> np.ndarray:
    """Vectorized draws: (size, d) array of independent PrivUnit outputs
    for the one input v, bit for bit the :func:`randomize` reports of the
    matrix of size copies of v on the same stream, with the same row
    blocks."""
    return _reports(v, params, rng, size)


def log_density(u, v, params: ThresholdParams) -> float:
    """Log density at u of a report of the unit vector v, for the law that
    ``params.sigma`` names: log_level_hi where m <u, v> >= gamma (the
    boundary is on the closed side), else log_level_lo, w.r.t. the uniform
    probability measure on the radius-1/m sphere for PrivUnit; PrivUnitG
    adds the N(0, sigma^2 I) log density at m u and d ln m.

    The side is that of the float m * np.dot(u, v), not of the draw: a
    report drawn in the cap can read below gamma by at most
    2 * np.spacing(gamma), as at tuned PrivUnit points where the cap is all
    but certain. This reads the mechanism in real arithmetic and claims
    nothing of the privacy of rounded reports."""
    u = sphere._real_array(u, "u")
    v = as_unit_vector(v)
    if u.shape != v.shape or v.size != params.d:
        raise ValueError(f"shape mismatch: u {u.shape} vs v {v.shape}, params dimension {params.d}")
    if not np.all(np.isfinite(u)):
        raise SupportError("u has a non-finite coordinate")
    level = params.log_level_hi if params.m * float(np.dot(u, v)) >= params.gamma else params.log_level_lo
    if params.sigma is None:
        norm = float(np.linalg.norm(u))
        if not abs(norm - 1.0 / params.m) <= 1e-6:
            raise SupportError(f"u has norm {norm!r}, support sphere has radius {1.0 / params.m!r}")
        return level
    s2 = params.sigma * params.sigma
    w = params.m * u
    base = -0.5 * float(np.dot(w, w)) / s2 - 0.5 * params.d * (math.log(2.0 * math.pi) + math.log(s2))
    return base + params.d * math.log(params.m) + level
