"""The Gaussian-based randomizer: the inner-product coordinate alpha is a
N(0, sigma^2) draw (sigma = 1/sqrt(d)) truncated above the threshold gamma
with probability p and below it otherwise; the orthogonal component keeps
independent N(0, sigma^2) coordinates, and the sum is scaled by 1/m.

This is the threshold construction shared with ``privunit``: parameters
extend ``privunit.ThresholdParams`` and draws go through
``sphere._threshold_rows``, with T ~ N(0, sigma^2) as the law of alpha.

Same two-level density structure as the cap randomizer, so privacy is the
same product condition on (p, q); here q = Phi(gamma/sigma) and the
normalizer has the closed form m = sigma phi(gamma/sigma) (p/(1-q) - (1-p)/q).
The orthogonal component is deliberately not rescaled by sqrt(1 - alpha^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sphere, specfun
from .errors import SupportError
from .privunit import ErrorBreakdown, ThresholdParams, _reports, _threshold_fields
from .sphere import RngStream, as_unit_vector

__all__ = [
    "GaussParams",
    "gauss_params",
    "analytic_err_g",
    "randomize_g",
    "randomize_g_batch",
    "log_density_g",
]

_LN2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussParams(ThresholdParams):
    """Validated parameters with cached derived quantities; build through
    :func:`gauss_params`. T ~ N(0, sigma^2), g_std = gamma/sigma is the
    threshold in standard units, alpha_sq the closed-form second moment
    sigma^2 + gamma*m."""

    sigma: float
    g_std: float
    alpha_sq: float


def _build_gauss(d: int, p: float, p_comp: float, g_std: float, q_comp: float | None = None) -> GaussParams:
    """PrivUnitG parameters whose masses and m are those of the sampled
    threshold g_std; q_comp, where given, is the caller's
    ``specfun.std_normal_cdf(-g_std)``, which is then not evaluated again."""
    sigma = 1.0 / math.sqrt(d)
    gamma = sigma * g_std
    tail_mean = sigma * specfun.std_normal_pdf(g_std)
    if q_comp is None:
        q_comp = specfun.std_normal_cdf(-g_std)
    base = _threshold_fields(d, p, p_comp, q_comp, gamma, tail_mean)
    return GaussParams(**base, sigma=sigma, g_std=g_std, alpha_sq=sigma * sigma + gamma * base["m"])


def gauss_params(d: int, p: float, q: float) -> GaussParams:
    """Validate (d, p, q) and cache sigma, gamma, m, and the density levels."""
    d = sphere._check_dim(d)
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p!r}")
    if not (0.5 <= q < 1.0):
        raise ValueError(f"q must lie in [1/2, 1), got {q!r}")
    # quantile of the complement keeps precision when q is close to 1
    return _build_gauss(d, p, 1.0 - p, 0.0 - specfun.inv_std_normal_cdf(1.0 - q))


def analytic_err_g(params: GaussParams) -> ErrorBreakdown:
    """Exact squared error (E[alpha^2] + (d-1)/d)/m^2 - 1 of the unbiased
    estimator: the orthogonal part contributes sigma^2 per coordinate."""
    m = params.m
    err = (params.alpha_sq + (params.d - 1.0) / params.d) / (m * m) - 1.0
    return ErrorBreakdown(m=m, alpha_sq=params.alpha_sq, err=err, d=params.d)


def randomize_g(v, params: GaussParams, rng: RngStream) -> np.ndarray:
    """Reports alpha*v + sigma*(g - <g,v>v) with g standard normal, scaled
    by 1/m, so E[report] = input v. v is an (n, d) matrix of unit rows (one
    report per row) or one unit vector, which is the one-row matrix, drawn
    from rng by the sampler's block rule (``sphere._threshold_rows``)."""
    return _reports(v, params, rng)


def randomize_g_batch(v, params: GaussParams, size: int, rng: RngStream) -> np.ndarray:
    """Vectorized draws: (size, d) array of independent outputs for the one
    input v, bit for bit the :func:`randomize_g` reports of the matrix of
    size copies of v on the same stream, with the same row blocks."""
    return _reports(v, params, rng, size)


def log_density_g(u, v, params: GaussParams) -> float:
    """Log density of the scaled output at u: the N(0, sigma^2 I) log
    density at w = m*u, plus the level ln(p/(1-q)) if <w,v> >= gamma else
    ln((1-p)/q), plus d*ln(m) for the change of variables."""
    u = np.asarray(u, dtype=float)
    v = as_unit_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: u {u.shape} vs v {v.shape}")
    if not np.all(np.isfinite(u)):
        raise SupportError("u has a non-finite coordinate")
    w = params.m * u
    s2 = params.sigma * params.sigma
    base = -0.5 * float(np.dot(w, w)) / s2 - 0.5 * params.d * (_LN2PI + math.log(s2))
    base += params.d * math.log(params.m)
    level = params.log_level_hi if float(np.dot(w, v)) >= params.gamma else params.log_level_lo
    return base + level
