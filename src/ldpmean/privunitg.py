"""The Gaussian-based randomizer: the inner-product coordinate alpha is a
N(0, sigma^2) draw (sigma = 1/sqrt(d)) conditioned on alpha >= gamma with
probability p and on alpha < gamma otherwise; the orthogonal component
keeps independent N(0, sigma^2) coordinates, and the sum is scaled by 1/m.

This is the threshold construction shared with ``privunit``: parameters
extend ``privunit.ThresholdParams`` and draws go through
``sphere._threshold_rows``, with T ~ N(0, sigma^2) as the law of alpha.
The density, the draws and the error are ``privunit``'s ``log_density``,
``randomize``, ``randomize_batch`` and ``analytic_err``, which serve both
laws. ``randomize_g``, ``randomize_g_batch`` and ``analytic_err_g`` are
the last three under Gaussian names; they are not public API and stay only
because the benchmark's spans (``bench/spans.py``) resolve them by name.
The mass and error helpers ``_gauss_mass`` and ``_gauss_err`` take and
return what PrivUnit's ``_cap_mass`` and ``_cap_err`` do, so the tuner
probes both laws alike.

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

__all__ = ["GaussParams", "gauss_params"]

@dataclass(frozen=True)
class GaussParams(ThresholdParams):
    """Validated parameters with cached derived quantities; build through
    :func:`gauss_params`. T ~ N(0, sigma^2), g_std = gamma/sigma is the
    threshold in standard units, alpha_sq the closed-form second moment
    sigma^2 + gamma*m."""

    sigma: float
    g_std: float
    alpha_sq: float


def _gauss_mass(d: int, g_std: float) -> tuple[float, float, float]:
    """(gamma, q_comp, tail_mean) of the threshold g_std in standard units:
    gamma = sigma g_std, q_comp = P(T >= gamma) = Phi(-g_std) and
    tail_mean = E[T 1{T >= gamma}] = sigma phi(g_std)."""
    sigma = 1.0 / math.sqrt(d)
    return sigma * g_std, specfun.std_normal_cdf(-g_std), sigma * specfun.std_normal_pdf(g_std)


def _gauss_err(d: int, p: float, p_comp: float, q: float, q_comp: float, gamma: float, m: float) -> float:
    """The exact squared error (E[alpha^2] + (d-1)/d)/m^2 - 1 of the unbiased
    estimator, with E[alpha^2] = sigma^2 + gamma m and sigma^2 per
    coordinate of the orthogonal part. It takes ``privunit._cap_err``'s
    arguments, so a caller evaluates either law's error alike; p, p_comp,
    q and q_comp are unused."""
    sigma = 1.0 / math.sqrt(d)
    return (sigma * sigma + gamma * m + (d - 1.0) / d) / (m * m) - 1.0


def _build_gauss(d: int, p: float, p_comp: float, g_std: float, q_comp: float, tail_mean: float) -> GaussParams:
    """PrivUnitG parameters at the sampled threshold g_std, from the mass
    q_comp and tail mean that the caller took from ``_gauss_mass(d, g_std)``."""
    sigma = 1.0 / math.sqrt(d)
    base = _threshold_fields(d, p, p_comp, sigma * g_std, q_comp, tail_mean)
    return GaussParams(**base, sigma=sigma, g_std=g_std, alpha_sq=sigma * sigma + base["gamma"] * base["m"])


def gauss_params(d: int, p: float, q: float) -> GaussParams:
    """Validate (d, p, q) and cache sigma, gamma, m, and the density levels."""
    d = sphere._check_dim(d)
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p!r}")
    if not (0.5 <= q < 1.0):
        raise ValueError(f"q must lie in [1/2, 1), got {q!r}")
    # quantile of the complement keeps precision when q is close to 1
    g_std = 0.0 - specfun.inv_std_normal_cdf(1.0 - q)
    return _build_gauss(d, p, 1.0 - p, g_std, *_gauss_mass(d, g_std)[1:])


def analytic_err_g(params: ThresholdParams) -> ErrorBreakdown:
    """``privunit.analytic_err`` under a Gaussian name; see the module docstring."""
    return privunit.analytic_err(params)


def randomize_g(v, params: GaussParams, rng: RngStream) -> np.ndarray:
    """``privunit.randomize`` under a Gaussian name; see the module docstring."""
    return _reports(v, params, rng)


def randomize_g_batch(v, params: GaussParams, size: int, rng: RngStream) -> np.ndarray:
    """``privunit.randomize_batch`` under a Gaussian name; see the module docstring."""
    return _reports(v, params, rng, size)
