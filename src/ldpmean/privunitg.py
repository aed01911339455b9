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
one-call delegations to the last three under Gaussian names; they are not
public API and stay only because the benchmark's spans (``bench/spans.py``)
resolve them by name, as they do ``_build_gauss``. The private pieces
``_mass`` to ``_residual`` are this law's side of the interface that
``tuner._law`` states.

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
from .privunit import ErrorBreakdown, ThresholdParams, _threshold_fields
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


def _mass(d: int, g_std: float) -> tuple[float, float, float]:
    """(gamma, q_comp, tail_mean) of the threshold g_std in standard units:
    gamma = sigma g_std, q_comp = P(T >= gamma) = Phi(-g_std) and
    tail_mean = E[T 1{T >= gamma}] = sigma phi(g_std)."""
    sigma = 1.0 / math.sqrt(d)
    return sigma * g_std, specfun.std_normal_cdf(-g_std), sigma * specfun.std_normal_pdf(g_std)


def _err(d: int, p: float, p_comp: float, q: float, q_comp: float, gamma: float, m: float) -> float:
    """The exact squared error (E[alpha^2] + (d-1)/d)/m^2 - 1 of the unbiased
    estimator, with E[alpha^2] = sigma^2 + gamma m and sigma^2 per
    coordinate of the orthogonal part; p, p_comp, q and q_comp, which the
    interface of ``tuner._law`` passes, are unused."""
    sigma = 1.0 / math.sqrt(d)
    return (sigma * sigma + gamma * m + (d - 1.0) / d) / (m * m) - 1.0


def _build(d: int, p: float, p_comp: float, g_std: float, q_comp: float, tail_mean: float) -> GaussParams:
    """PrivUnitG parameters at the sampled threshold g_std, from the mass
    q_comp and tail mean that the caller took from ``_mass(d, g_std)``."""
    sigma = 1.0 / math.sqrt(d)
    base = _threshold_fields(d, p, p_comp, sigma * g_std, q_comp, tail_mean)
    return GaussParams(**base, sigma=sigma, g_std=g_std, alpha_sq=sigma * sigma + base["gamma"] * base["m"])


_build_gauss = _build


def _quantile(y: float, d: int) -> float:
    return 0.0 - specfun.inv_std_normal_cdf(y)  # 0.0 - g keeps g_std = +0.0 at y = 1/2


def _threshold(g: float) -> float:
    return g  # the search runs in g_std itself


def _bracket(y: float, d: int) -> tuple[float, float]:
    return 0.0, _quantile(y, d)  # from g_std = 0 to the threshold of mass y


def _residual(d: int, t: float, p: float, p_comp: float, q: float, q_comp: float,
              tail_mean: float, e: float, m: float) -> tuple[float, float]:
    """R and R' in g = g_std: K* = m* sqrt(d) is the positive root of
    g K^2 + (2d - 1 - g^2) K - 2dg = (K - g)(2d + gK) - K, the zero of the
    error's slope in g, taken in the form that does not cancel; with
    phi = tau sqrt(d), M = phi/Q (M' = M (M - g)) and w = K*/M,
    R = ln(q (1 - w)/p_comp)."""
    phi = tail_mean * math.sqrt(d)
    big_m = phi / q_comp
    b = 2.0 * d - 1.0 - t * t
    root = math.sqrt(b * b + 8.0 * d * t * t)
    k = 4.0 * d * t / (b + root) if b > 0.0 else (root - b) / (2.0 * t)
    dk = (2.0 * d + 2.0 * t * k - k * k) / (2.0 * t * k + 2.0 * d - t * t - 1.0)
    w = k / big_m
    dw = (dk - k * (big_m - t)) / big_m
    r = math.log(q * (1.0 - w)) - math.log(p_comp)
    return r, phi / q - dw / (1.0 - w) - p * phi / (q * q_comp)


def gauss_params(d: int, p: float, q: float) -> GaussParams:
    """Validate (d, p, q) and cache sigma, gamma, m, and the density levels."""
    d = sphere._check_dim(d)
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p!r}")
    if not (0.5 <= q < 1.0):
        raise ValueError(f"q must lie in [1/2, 1), got {q!r}")
    # quantile of the complement keeps precision when q is close to 1
    g_std = _quantile(1.0 - q, d)
    return _build(d, p, 1.0 - p, g_std, *_mass(d, g_std)[1:])


def analytic_err_g(params: ThresholdParams) -> ErrorBreakdown:
    """``privunit.analytic_err`` under a Gaussian name; see the module docstring."""
    return privunit.analytic_err(params)


def randomize_g(v, params: GaussParams, rng: RngStream) -> np.ndarray:
    """``privunit.randomize`` under a Gaussian name; see the module docstring."""
    return privunit.randomize(v, params, rng)


def randomize_g_batch(v, params: GaussParams, size: int, rng: RngStream) -> np.ndarray:
    """``privunit.randomize_batch`` under a Gaussian name; see the module docstring."""
    return privunit.randomize_batch(v, params, size, rng)
