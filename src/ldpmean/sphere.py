"""Geometry and sampling on the unit sphere S^{d-1}.

Unit vectors are plain numpy float arrays; ``as_unit_vector`` and
``as_unit_rows`` validate the norm at API boundaries. The marginal law of a
single coordinate of a uniform point on S^{d-1} is the stretched symmetric
beta 2B - 1 with B ~ Beta((d-1)/2, (d-1)/2), which turns cap sampling into
one incomplete-beta inversion per draw (deterministic cost even for caps of
mass e^{-40}, where rejection would stall).

Both randomizers and ``sample_cap`` draw through one sampler,
``_threshold_rows``: a two-level threshold on the coordinate alpha along the
input v, drawn by inverting the tail of its 1-D law, plus an isotropic part
orthogonal to v made by projecting v out of a Gaussian row, so no rotation
is needed. v is one input shared by every row, or one input per row.
``rotate_from_e1`` is a standalone utility that no sampler uses.
"""

from __future__ import annotations

import numpy as np

from . import specfun
from .errors import NumericsError

__all__ = [
    "RngStream",
    "as_unit_vector",
    "as_unit_rows",
    "sample_uniform_sphere",
    "marginal_cdf",
    "inv_marginal_cdf",
    "sample_cap",
    "rotate_from_e1",
]

_MASK64 = (1 << 64) - 1


class RngStream:
    """Deterministic, splittable random source.

    Backed by numpy's counter-based Philox generator keyed with
    ``key = (stream_id << 64) | seed``, so identical ``(seed, stream_id)``
    pairs reproduce identical draw sequences and distinct stream ids give
    statistically independent streams.

    Substream derivation rule: ``substream(i)`` is
    ``RngStream(seed, (stream_id * 2**32 + i + 1) mod 2**64)``. With ids
    below 2**32 and derivation depth at most two (trial stream, then the
    stream of one block of users, or of a trial's inputs) this is collision
    free.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not (0 <= seed <= _MASK64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not (0 <= stream_id <= _MASK64):
            raise ValueError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.Philox(key=(stream_id << 64) | seed))

    def substream(self, i: int) -> "RngStream":
        return RngStream(self.seed, (self.stream_id * (1 << 32) + i + 1) & _MASK64)

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draws."""
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def as_unit_vector(v) -> np.ndarray:
    """Validate and return v as a 1-D float array with norm within 1e-9 of 1."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"unit vectors must be 1-D, got shape {v.shape}")
    return as_unit_rows(v)[0]


def as_unit_rows(v) -> np.ndarray:
    """Validate and return v as an (n, d) float array, n >= 1 and d >= 2,
    whose rows have norms within 1e-9 of 1; a 1-D v is the one-row matrix.
    A NaN or infinite entry fails the norm check."""
    rows = np.asarray(v, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 2:
        raise ValueError(f"unit vectors must be rows with d >= 2, got shape {np.shape(v)}")
    nrm = np.linalg.norm(rows, axis=1)
    off = np.flatnonzero(~(np.abs(nrm - 1.0) <= 1e-9))
    if off.size:
        j = off[0]
        raise ValueError(f"row {j}: vector norm {float(nrm[j])!r} is off unit by more than 1e-9")
    return rows


def _check_dim(d: int) -> int:
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def sample_uniform_sphere(d: int, rng: RngStream) -> np.ndarray:
    """Uniform draw on S^{d-1} (normalized Gaussian direction)."""
    d = _check_dim(d)
    g = rng.normal(d)
    nrm = float(np.linalg.norm(g))
    while nrm == 0.0:  # probability zero; keeps the unit-norm contract airtight
        g = rng.normal(d)
        nrm = float(np.linalg.norm(g))
    return g / nrm


def marginal_cdf(t: float, d: int) -> float:
    """P(W_1 <= t) for W uniform on S^{d-1}: I_{(1+t)/2}((d-1)/2, (d-1)/2)."""
    d = _check_dim(d)
    if not (-1.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [-1, 1], got {t!r}")
    a = 0.5 * (d - 1)
    return specfun.reg_inc_beta(0.5 * (1.0 + t), a, a)


def inv_marginal_cdf(q: float, d: int) -> float:
    """The t with marginal_cdf(t, d) = q, for q in (0, 1)."""
    d = _check_dim(d)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly in (0, 1), got {q!r}")
    a = 0.5 * (d - 1)
    return 2.0 * specfun.inv_reg_inc_beta(q, a, a) - 1.0


def _upper_quantile(y: np.ndarray, d: int, sigma: float | None):
    """The t with P(T >= t) = y, for T the first coordinate of a uniform
    point of S^{d-1} (sigma None) or T ~ N(0, sigma^2).

    A single value goes through the scalar kernels: at size 1 the vectorized
    ones cost about twenty times more.
    """
    one = y.size == 1
    if sigma is None:
        a = 0.5 * (d - 1)
        x = specfun.inv_reg_inc_beta(y.item(), a, a) if one else specfun._inv_reg_inc_beta_vec(y, a, a)
        return 1.0 - 2.0 * x
    z = specfun.inv_std_normal_cdf(y.item()) if one else specfun._inv_std_normal_cdf_vec(y)
    return -sigma * z


def _project_out(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove from each row of g, in place, its component along v: one
    vector for every row, or row j's own v_j. Row j's dot product is the
    same one-row ``g_j @ v_j`` either way, so a one-row v draws exactly what
    the shared v does."""
    along = g @ v if v.ndim == 1 else (g[:, None, :] @ v[:, :, None])[:, 0, 0]
    g -= along[:, None] * v
    return g


def _threshold_rows(v, size, rng, p, q, q_comp, gamma, m, sigma=None) -> np.ndarray:
    """``size`` independent draws of the two-level threshold construction
    as a (size, d) array: all around the unit vector v, or row j around
    row j of a (size, d) matrix v of unit rows.

    T is the first coordinate of a uniform point of S^{d-1} when sigma is
    None, else N(0, sigma^2); q = P(T < gamma) and q_comp = P(T >= gamma).
    Each row takes the closed side T >= gamma with probability p, draws
    alpha from T conditioned on that side by inverting its tail, adds a
    standard Gaussian row with its component along v projected out, scaled
    to norm sqrt(1 - alpha^2) (sphere) or by sigma, adds alpha v and divides
    by m. Only the mass of a side that is drawn is read.
    """
    d = v.shape[-1]
    above = rng.uniform(size) < p
    u = 1.0 - rng.uniform(size)  # in (0, 1], so every tail target is positive
    alpha = np.empty(size)
    n_above = np.count_nonzero(above)
    # one quantile call per side: the vectorized continued fraction iterates
    # until its slowest lane converges, and the two sides converge unevenly
    if n_above:
        alpha[above] = np.maximum(_upper_quantile(q_comp * u[above], d, sigma), gamma)
    if n_above < size:
        # the law is symmetric; the open side excludes gamma itself
        below = ~above
        alpha[below] = np.minimum(-_upper_quantile(q * u[below], d, sigma), np.nextafter(gamma, -2.0))
    g = _project_out(rng.normal((size, d)), v)
    if sigma is None:
        nrm = np.linalg.norm(g, axis=1)
        while not nrm.all():  # probability zero; keeps the norm contract airtight
            redo = nrm == 0.0
            g[redo] = _project_out(rng.normal((np.count_nonzero(redo), d)), v if v.ndim == 1 else v[redo])
            nrm = np.linalg.norm(g, axis=1)
        g *= (np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha)) / (nrm * m))[:, None]
    else:
        g *= sigma / m
    g += (alpha / m)[:, None] * v
    return g


def sample_cap(d: int, gamma: float, above: bool, rng: RngStream) -> np.ndarray:
    """Uniform draw on the spherical cap {u : u_1 >= gamma} (or its
    complement), in the e_1 frame.

    The threshold construction with v = e_1, p in {0, 1} and m = 1: the
    first coordinate inverts the conditioned marginal cdf, the rest is
    uniform on a (d-2)-sphere scaled to keep unit norm. The boundary
    u_1 = gamma belongs to the "above" cap.
    """
    d = _check_dim(d)
    if not (-1.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie strictly in (-1, 1), got {gamma!r}")
    # the drawn side's mass: P(W_1 >= gamma) = P(W_1 <= -gamma) by symmetry
    mass = marginal_cdf(-gamma if above else gamma, d)
    if mass < 1e-300:
        side = "cap" if above else "complement"
        raise NumericsError(f"{side} mass below 1e-300 at gamma={gamma}, d={d}")
    e1 = np.zeros(d)
    e1[0] = 1.0
    # p in {0, 1} draws only the chosen side, so only its mass is read
    return _threshold_rows(e1, 1, rng, float(above), mass, mass, gamma, 1.0)[0]


def rotate_from_e1(v, u):
    """Apply an orthogonal map T with T e_1 = v to u (vector or batch rows).

    Householder reflection with the usual cancellation-avoiding sign choice:
    for v_1 >= 0 reflect through w = e_1 + v and negate (mapping e_1 to v),
    otherwise reflect through w = e_1 - v directly. Either way |w|^2 >= 2,
    so the map stays accurate arbitrarily close to both poles. O(d) per
    vector, no stored matrix; isotropy of tangential inputs is preserved
    because T is orthogonal.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != v.shape[0]:
        raise ValueError(f"shape mismatch: v has d={v.shape[0]}, u rows have {u.shape[-1]}")
    if v[0] >= 0.0:
        w = v.copy()
        w[0] += 1.0  # w = e_1 + v
        coef = 2.0 / float(np.dot(w, w))
        return np.multiply.outer((u @ w) * coef, w) - u
    w = -v
    w[0] += 1.0  # w = e_1 - v
    coef = 2.0 / float(np.dot(w, w))
    return u - np.multiply.outer((u @ w) * coef, w)
