"""The PrivUnit randomizer: with probability p report a uniform point of the
spherical cap {u : <u, v> >= gamma} around the input v, otherwise a uniform
point of the complement, then scale by 1/m so the output is an unbiased
estimate of v.

This is the threshold construction shared with ``privunitg``: parameters
extend :class:`ThresholdParams` and draws go through
``sphere._threshold_rows``, with the coordinate along v following the first
coordinate W_1 of a uniform point of S^{d-1} and the orthogonal part
uniform with norm sqrt(1 - alpha^2), so every report lies on the
radius-1/m sphere.

The normalizer combines the two reciprocal cap masses with a minus sign on
the complement term: unbiasedness forces it, since E[W_1] = 0 splits the
mixture mean into E[W_1 1{W_1 >= gamma}] * (p/(1-q) - (1-p)/q) with
q = P(W_1 <= gamma). Everything is evaluated in log space; parameters may
carry exact complements (p_comp, q_comp) so that budgets near saturation
(q -> 1) keep full precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import sphere, specfun
from .errors import DegenerateParameterError, SupportError
from .sphere import RngStream, as_unit_rows, as_unit_vector

__all__ = [
    "CapParams",
    "ErrorBreakdown",
    "cap_params",
    "normalizer_m",
    "privacy_eps",
    "analytic_err",
    "randomize",
    "randomize_batch",
    "log_density",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ErrorBreakdown:
    """Analytic moments and squared error of a configured randomizer.

    m is E[alpha] (the mean inner product with the input before scaling),
    alpha_sq is E[alpha^2], err the exact squared estimation error.
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
    q_comp = P(T >= gamma); p_comp and q_comp are carried as exact
    complements. m is the normalizer, log_level_hi/lo the two log density
    levels, and budget = log_level_hi - log_level_lo."""

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
    is then bit-identical to the difference of the stored log levels.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"p and q must lie in [0, 1], got p={p!r}, q={q!r}")
    if p_comp is None:
        p_comp = 1.0 - p
    if q_comp is None:
        q_comp = 1.0 - q
    if p == 0.0 or p_comp == 0.0 or q == 0.0 or q_comp == 0.0:
        return math.inf
    log_hi, log_lo = _two_log_levels(p, q, p_comp, q_comp)
    return log_hi - log_lo


def _threshold_fields(
    d: int, p: float, p_comp: float, q: float, q_comp: float, gamma: float, tail_mean: float
) -> dict:
    """The ThresholdParams fields, given tail_mean = E[T 1{T >= gamma}]:
    m = tail_mean * (p + q - 1) / (q q_comp), rejected unless positive
    (p + q <= 1, or a tail mean that underflowed to 0)."""
    m = tail_mean * (1.0 - (p_comp + q_comp)) / (q * q_comp)  # sign-corrected p + q - 1
    if not m > 0.0:
        raise DegenerateParameterError(f"normalizer m = {m!r} is not positive at p={p}, q={q}")
    log_hi, log_lo = _two_log_levels(p, q, p_comp, q_comp)
    return dict(
        d=d,
        p=p,
        p_comp=p_comp,
        q=q,
        q_comp=q_comp,
        gamma=gamma,
        m=m,
        log_level_hi=log_hi,
        log_level_lo=log_lo,
        budget=log_hi - log_lo,
    )


def _build(d: int, p: float, p_comp: float, x: float, q: float, q_comp: float) -> CapParams:
    """PrivUnit parameters at the threshold gamma = 1 - 2x: x = (1 - gamma)/2
    is carried because gamma rounds to 1 on tiny caps, where x does not."""
    a = 0.5 * (d - 1)
    if x < sys.float_info.min:
        # an x that underflowed, to 0 or to a subnormal whose few significant
        # bits can give m > 1, is taken as 0: then m = 0
        x = 0.0
    gamma = 1.0 - 2.0 * x
    # E[W_1 1{W_1 >= gamma}] = (1-gamma^2)^a / ((d-1) 2^{d-2} B(a,a)); gamma
    # is exact for x >= 1/4, below it 1 - gamma^2 = 4x(1-x) keeps precision
    ln_1mg2 = math.log1p(-gamma * gamma) if x >= 0.25 else _ln(4.0 * x * (1.0 - x))
    ln_c = a * ln_1mg2 - (d - 2) * _LN2 - math.log(d - 1) - specfun.log_beta(a, a)
    return CapParams(**_threshold_fields(d, p, p_comp, q, q_comp, gamma, math.exp(ln_c)))


def cap_params(d: int, p: float, gamma: float) -> CapParams:
    """Validate (d, p, gamma) and cache q, the normalizer m, and the two
    density levels. Degenerate parameters (m <= 0) are rejected here."""
    d = sphere._check_dim(d)
    if not (0.5 <= p <= 1.0):
        raise ValueError(f"p must lie in [1/2, 1], got {p!r}")
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    q = sphere.marginal_cdf(gamma, d)
    q_comp = sphere.marginal_cdf(-gamma, d)  # cap mass above, by symmetry
    return _build(d, p, 1.0 - p, 0.5 * (1.0 - gamma), q, q_comp)


def normalizer_m(d: int, p: float, gamma: float) -> float:
    """The exact normalizer m = E[<unscaled output, e_1>] > 0."""
    return cap_params(d, p, gamma).m


def analytic_err(params: CapParams) -> ErrorBreakdown:
    """Exact squared error 1/m^2 - 1 (the output lies on the radius-1/m
    sphere). alpha_sq is recorded informationally via the closed form
    E[W_1^2 under the mixture] = (1 + gamma (d-1) m) / d."""
    m = params.m
    alpha_sq = (1.0 + params.gamma * (params.d - 1) * m) / params.d
    return ErrorBreakdown(m=m, alpha_sq=alpha_sq, err=1.0 / (m * m) - 1.0, d=params.d)


def _checked_input(v, params: ThresholdParams, size: int) -> np.ndarray:
    v = as_unit_vector(v)
    if v.size != params.d:
        raise ValueError(f"input dimension {v.size} != params dimension {params.d}")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    return v


def _report_rows(v, params: ThresholdParams, rng: RngStream, sigma: float | None = None) -> np.ndarray:
    """One threshold report per unit row of v, an (n, d) matrix, drawn from
    one stream; a 1-D v is the one-row matrix and gives one 1-D report."""
    rows = as_unit_rows(v)
    if rows.shape[1] != params.d:
        raise ValueError(f"input dimension {rows.shape[1]} != params dimension {params.d}")
    out = sphere._threshold_rows(
        rows, rows.shape[0], rng, params.p, params.q, params.q_comp, params.gamma, params.m, sigma
    )
    return out if np.ndim(v) == 2 else out[0]


def randomize(v, params: CapParams, rng: RngStream) -> np.ndarray:
    """PrivUnit reports: a cap sample around the input with probability p,
    a complement sample otherwise, scaled to the radius-1/m sphere, so
    E[report] = input. v is an (n, d) matrix of unit rows (one report per
    row, all from the one stream) or one unit vector, which is the one-row
    matrix and is bit-identical to the one-row :func:`randomize_batch`."""
    return _report_rows(v, params, rng)


def randomize_batch(v, params: CapParams, size: int, rng: RngStream) -> np.ndarray:
    """Vectorized draws: (size, d) array of independent PrivUnit outputs
    for the one input v; size draws differ from size calls of
    :func:`randomize` on one stream."""
    v = _checked_input(v, params, size)
    return sphere._threshold_rows(v, size, rng, params.p, params.q, params.q_comp, params.gamma, params.m)


def log_density(u, v, params: CapParams) -> float:
    """Log density of the output at u w.r.t. the uniform probability measure
    on the radius-1/m sphere: one of two levels, the boundary
    <u, v> * m = gamma counting as inside the cap."""
    u = np.asarray(u, dtype=float)
    v = as_unit_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: u {u.shape} vs v {v.shape}")
    radius = 1.0 / params.m
    if abs(float(np.linalg.norm(u)) - radius) > 1e-6:
        raise SupportError(
            f"u has norm {float(np.linalg.norm(u))!r}, support sphere has radius {radius!r}"
        )
    t = params.m * float(np.dot(u, v))
    return params.log_level_hi if t >= params.gamma else params.log_level_lo
