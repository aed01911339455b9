"""The Gaussian-based randomizer: the inner-product coordinate alpha is a
N(0, sigma^2) draw (sigma = 1/sqrt(d)) conditioned on alpha >= gamma with
probability p and on alpha < gamma otherwise; the orthogonal component
keeps independent N(0, sigma^2) coordinates, and the sum is scaled by 1/m.

This is the threshold construction shared with ``privunit``: parameters
extend ``privunit.ThresholdParams`` and draws go through
``sphere._threshold_rows``, with T ~ N(0, sigma^2) as the law of alpha.
The density is ``privunit.log_density``, which serves both laws, and the
mass and error helpers ``_gauss_mass`` and ``_gauss_err`` take and return
what PrivUnit's ``_cap_mass`` and ``_cap_err`` do, so the tuner probes
both laws alike.

Same two-level density structure as the cap randomizer, so privacy is the
same product condition on (p, q); here q = Phi(gamma/sigma) and the
normalizer has the closed form m = sigma phi(gamma/sigma) (p/(1-q) - (1-p)/q).
The orthogonal component is deliberately not rescaled by sqrt(1 - alpha^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import privunit, sphere, specfun
from .privunit import ErrorBreakdown, ThresholdParams, _reports, _threshold_fields
from .sphere import RngStream

__all__ = [
    "GaussParams",
    "gauss_params",
    "analytic_err_g",
    "randomize_g",
    "randomize_g_batch",
]

@dataclass(frozen=True)
class GaussParams(ThresholdParams):
    """Validated parameters with cached derived quantities; build through
    :func:`gauss_params`. T ~ N(0, sigma^2), g_std = gamma/sigma is the
    threshold in standard units, alpha_sq the closed-form second moment
    sigma^2 + gamma*m."""

    sigma: float
    g_std: float
    alpha_sq: float


def _gauss_mass(d: int, g_std: float, q_comp: float | None = None) -> tuple[float, float, float]:
    """(gamma, q_comp, tail_mean) of the threshold g_std in standard units:
    gamma = sigma g_std, q_comp = P(T >= gamma) = Phi(-g_std) (a q_comp the
    caller gives is kept) and tail_mean = E[T 1{T >= gamma}] = sigma phi(g_std)."""
    sigma = 1.0 / math.sqrt(d)
    if q_comp is None:
        q_comp = specfun.std_normal_cdf(-g_std)
    return sigma * g_std, q_comp, sigma * specfun.std_normal_pdf(g_std)


def _gauss_err(d: int, p: float, p_comp: float, q: float, q_comp: float, gamma: float, m: float) -> float:
    """The exact squared error (E[alpha^2] + (d-1)/d)/m^2 - 1 of the unbiased
    estimator, with E[alpha^2] = sigma^2 + gamma m and sigma^2 per
    coordinate of the orthogonal part. It takes ``privunit._cap_err``'s
    arguments, so a caller evaluates either law's error alike; p, p_comp,
    q and q_comp are unused."""
    sigma = 1.0 / math.sqrt(d)
    return (sigma * sigma + gamma * m + (d - 1.0) / d) / (m * m) - 1.0


def _build_gauss(d: int, p: float, p_comp: float, g_std: float, q_comp: float | None = None) -> GaussParams:
    """PrivUnitG parameters whose masses and m are those of the sampled
    threshold g_std; q_comp, where given, is the caller's
    ``specfun.std_normal_cdf(-g_std)``, which is then not evaluated again."""
    sigma = 1.0 / math.sqrt(d)
    base = _threshold_fields(d, p, p_comp, *_gauss_mass(d, g_std, q_comp))
    return GaussParams(**base, sigma=sigma, g_std=g_std, alpha_sq=sigma * sigma + base["gamma"] * base["m"])


def gauss_params(d: int, p: float, q: float) -> GaussParams:
    """Validate (d, p, q) and cache sigma, gamma, m, and the density levels."""
    d = sphere._check_dim(d)
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p!r}")
    if not (0.5 <= q < 1.0):
        raise ValueError(f"q must lie in [1/2, 1), got {q!r}")
    # quantile of the complement keeps precision when q is close to 1
    return _build_gauss(d, p, 1.0 - p, 0.0 - specfun.inv_std_normal_cdf(1.0 - q))


def analytic_err_g(params: ThresholdParams) -> ErrorBreakdown:
    """The Gaussian name of ``privunit.analytic_err``, which reads the law
    from ``params.sigma``: for GaussParams, the exact squared error of
    ``_gauss_err`` with the second moment alpha_sq the parameters hold."""
    return privunit.analytic_err(params)


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
