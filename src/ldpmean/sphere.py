"""Geometry and sampling on the unit sphere S^{d-1}.

Unit vectors are plain numpy float arrays; ``as_unit_vector`` and
``as_unit_rows`` validate the norm at API boundaries. The marginal law of a
single coordinate of a uniform point on S^{d-1} is the stretched symmetric
beta 2B - 1 with B ~ Beta((d-1)/2, (d-1)/2).

Both randomizers and ``sample_cap`` draw through one sampler,
``_threshold_rows``: a two-level threshold on the coordinate alpha along the
input v, drawn from its 1-D law conditioned on one side of the threshold by
exact rejection (``_draw_above``, which stays fast for caps of any mass),
plus an isotropic part orthogonal to v, a Gaussian row with its component
along v taken out, so no rotation is needed. The sampler takes an (n, d) matrix
of unit inputs, one per row; n reports of one shared input are the rows of
a broadcast view of it. ``rotate_from_e1`` has no caller in the package
and is not public API; it stays because the benchmark's spans
(``bench/spans.py``) resolve it by name.

The package names its streams by id (see ``RngStream``): stream 0 for CLI
``randomize`` and stream t + 1 for trial t of ``estimator.run_trials``.
Every multi-row draw, the sampler's and the protocol's, runs in the row
blocks of ``_row_blocks``, whose docstring states the block rule.
"""

from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import specfun
from .errors import NumericsError

__all__ = [
    "RngStream",
    "as_unit_vector",
    "sample_uniform_sphere",
    "marginal_cdf",
    "inv_marginal_cdf",
    "sample_cap",
]

_MASK64 = (1 << 64) - 1
# values in one row block of a sampler call (1 MiB): a block pays a Philox
# jump and dozens of small numpy calls at any size, and 2**17 to 2**19 all ran
# faster than 2**16; 2**18 lifts a trial's traced peak past 1.5 input copies
_BLOCK_VALUES = 1 << 17
# rounds of ``_draw_above`` before it gives up: every proposal is accepted
# with probability at least 1/4, so one lane survives 1000 rounds with
# probability (3/4)^1000, about 1e-125
_MAX_ROUNDS = 1000


class RngStream:
    """Deterministic, splittable random source.

    Backed by numpy's counter-based Philox generator keyed with
    ``key = (stream_id << 64) | seed``, so identical ``(seed, stream_id)``
    pairs reproduce identical draw sequences and distinct stream ids give
    statistically independent streams. The package names stream 0 (CLI
    ``randomize``) and stream t + 1 (trial t of ``estimator.run_trials``);
    a caller names any other id in [0, 2**64) directly. Inside one call,
    streams derive only by the block jumps of ``_row_blocks``.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        # a float id that int() would truncate aliases another stream
        for name, x in (("seed", seed), ("stream_id", stream_id)):
            if not (0 <= x <= _MASK64) or int(x) != x:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {x!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(np.random.Philox(key=(self.stream_id << 64) | self.seed))

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draws."""
        return self._gen.standard_normal(size)

    def beta(self, a: float, b: float, size=None):
        """Beta(a, b) draws."""
        return self._gen.beta(a, b, size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of an (n, d) array, with no n x d temporary."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _real_array(x, name: str) -> np.ndarray:
    """x as a float array; a complex x raises ValueError, as the cast would
    drop its imaginary part. It reads an array's dtype, not its values."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got a complex array")
    return np.asarray(x, dtype=float)


def as_unit_vector(v) -> np.ndarray:
    """Validate and return v as a 1-D float array with norm within 1e-9 of 1."""
    v = _real_array(v, "unit vectors")
    if v.ndim != 1:
        raise ValueError(f"unit vectors must be 1-D, got shape {v.shape}")
    return as_unit_rows(v)[0]


def as_unit_rows(v) -> np.ndarray:
    """Validate and return v as an (n, d) float array, n >= 1 and d >= 2,
    whose rows have norms within 1e-9 of 1; a 1-D v is the one-row matrix.
    A NaN or infinite entry fails the norm check; a complex v is refused."""
    rows = _real_array(v, "unit vectors")
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 2:
        raise ValueError(f"unit vectors must be rows with d >= 2, got shape {np.shape(v)}")
    nrm = _row_norms(rows)
    off = np.flatnonzero(~(np.abs(nrm - 1.0) <= 1e-9))
    if off.size:
        j = off[0]
        raise ValueError(f"row {j}: vector norm {float(nrm[j])!r} is off unit by more than 1e-9")
    return rows


def _check_int(x, name: str, lo: int) -> int:
    """x as an int if it is an integer >= lo, else ValueError; the range
    is checked first, so NaN and inf never reach int()."""
    if not (lo <= x < math.inf) or int(x) != x:
        raise ValueError(f"{name} must be an integer >= {lo}, got {x!r}")
    return int(x)


def _check_dim(d: int) -> int:
    """d as an int if it is an integer in [2, 10^8] (``specfun._D_MAX``), else ValueError."""
    d = _check_int(d, "dimension", 2)
    if d > specfun._D_MAX:
        raise ValueError(f"dimension must be at most 10^8, got {d}")
    return d


def _check_eps(eps: float) -> float:
    """eps if it lies in (0, 700], else ValueError: past about 708 nats
    sigmoid(-eps) is subnormal, and the exact complements the privacy
    accounting rests on lose their precision."""
    if not (0.0 < eps <= 700.0):
        raise ValueError(f"eps must lie in (0, 700], got {eps!r}")
    return eps


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
    return specfun.reg_inc_beta(0.5 * (1.0 + t), a)


def inv_marginal_cdf(q: float, d: int) -> float:
    """The t with marginal_cdf(t, d) = q, for q in (0, 1)."""
    d = _check_dim(d)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly in (0, 1), got {q!r}")
    a = 0.5 * (d - 1)
    return 2.0 * specfun.inv_reg_inc_beta(q, a) - 1.0


def _draw_above(t: float, mass: float, size: int, d: int, sigma: float | None, rng: RngStream) -> np.ndarray:
    """``size`` independent draws of T conditioned on T >= t, given
    mass = P(T >= t) > 0; T is the first coordinate 1 - 2X of a uniform point
    of S^{d-1}, X ~ Beta(a, a) with a = (d-1)/2, when sigma is None, else
    N(0, sigma^2).

    Exact rejection, each round redrawing the lanes not yet accepted. A side
    of mass >= 1/4 draws T unrestricted and rejects the other side. A smaller
    side has t > 0, and its proposal follows the law's log density
    (Devroye 1986, ch. VII): for a > 1 the tangent at x0 = (1-t)/2 of the
    concave (a-1)(ln x + ln(1-x)), an exponential truncated to (0, x0]; for
    a <= 1 the power law x0 U^(1/a), accepted with probability
    ((1-x0)/(1-x))^(1-a), which is 1 at d = 3; and Robert's (1995)
    exponential tail for the normal.
    Every exponential inverts one uniform. Each branch accepts with
    probability at least 1/4.
    """
    a = 0.5 * (d - 1)
    out = np.empty(size)
    todo = np.arange(size)
    for _ in range(_MAX_ROUNDS):
        k = todo.size
        if mass >= 0.25:
            draw = sigma * rng.normal(k) if sigma is not None else 1.0 - 2.0 * rng.beta(a, a, k)
            ok = draw >= t
        elif sigma is not None:
            z0 = t / sigma
            lam = 0.5 * (z0 + math.sqrt(z0 * z0 + 4.0))  # Robert's optimal rate
            z = z0 - np.log1p(-rng.uniform(k)) / lam
            draw = sigma * z
            ok = rng.uniform(k) < np.exp(-0.5 * (z - lam) ** 2)
        elif a > 1.0:
            # X = x0 (1 - e), with e on [0, 1) from the exponential of rate
            # w = lambda x0 truncated there, lambda = (a-1)(1/x0 - 1/(1-x0))
            # the tangent's slope; in terms of t, x0 = (1-t)/2
            w = 2.0 * (a - 1.0) * t / (1.0 + t)
            e = -np.log1p(rng.uniform(k) * math.expm1(-w)) / w
            e2 = e * ((1.0 - t) / (1.0 + t))
            draw = t + (1.0 - t) * e
            # log density minus tangent, <= 0; an e that rounds to 1 gives -inf
            with np.errstate(divide="ignore"):
                ok = rng.uniform(k) < np.exp((a - 1.0) * ((np.log1p(-e) + e) + (np.log1p(e2) - e2)))
        else:
            # X = x0 U^(1/a), accepted with probability ((1-x0)/(1-X))^(1-a)
            draw = 1.0 - (1.0 - t) * rng.uniform(k) ** (1.0 / a)
            ok = rng.uniform(k) < ((1.0 + t) / (1.0 + draw)) ** (1.0 - a)
        out[todo[ok]] = draw[ok]
        todo = todo[~ok]
        if not todo.size:
            return out
    raise NumericsError(
        f"conditioned draw left {todo.size} of {size} lanes unaccepted after {_MAX_ROUNDS} rounds "
        f"(t={t}, mass={mass}, d={d}, sigma={sigma})"
    )


def _orthogonal_split(g: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(along, sq) of the rows g_j of g: along_j = g_j . v_j by a one-row
    einsum, so a row's values do not depend on the other rows, and sq_j =
    |g_j|^2 - along_j^2, the squared norm of g_j - along_j v_j, which cancels
    at most a factor 2 beyond 45 degrees of +-v_j. Nearer rows are projected
    in place, twice (Giraud, Langou & Rozloznik 2005), with along_j = 0."""
    along = np.einsum("ij,ij->i", g, v)
    sq = np.einsum("ij,ij->i", g, g)
    near = 2.0 * along * along > sq
    sq -= along * along
    if near.any():
        rows, vr = g[near], v[near]
        for _ in range(2):
            rows -= np.einsum("ij,ij->i", rows, vr)[:, None] * vr
        g[near], along[near] = rows, 0.0
        sq[near] = np.einsum("ij,ij->i", rows, rows)
    return along, sq


def _cores() -> int:
    """The CPUs this process may run on, which bounds a call's block threads."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _row_blocks(n: int, d: int, fn, rng: RngStream, threads: float = math.inf) -> list:
    """fn(rows, stream) for each row block of an n-row call at dimension d,
    rows the block's slice, and the results in block order.

    The block rule: blocks hold max(1, 2**17 // d) rows. One block runs on
    rng. nb > 1 blocks run on a pool of up to one thread per core, and at
    most threads, block b on rng's Philox counter jumped b + 1 times
    (2**128 draws per jump). Before any block runs, rng moves nb + 1 jumps
    ahead, so its later draws overlap no block, even after a block raises.
    Jumps keep the key, so they never reach another stream, and the results
    depend on the seed and this rule only, never on the number of threads.
    The block streams are built here, on the calling thread: built on the
    block threads, each contends for the GIL with the other blocks' work.
    """
    rows = max(1, _BLOCK_VALUES // d)
    if n <= rows:
        return [fn(slice(0, n), rng)]
    nb = -(-n // rows)
    bits = rng._gen.bit_generator
    streams = []
    for b in range(nb):
        stream = copy.copy(rng)
        stream._gen = np.random.Generator(bits.jumped(b + 1))
        streams.append(stream)
    bits.advance((nb + 1) << 128)
    with ThreadPoolExecutor(min(_cores(), nb, threads)) as pool:  # map re-raises a block's error
        return list(pool.map(lambda b, stream: fn(slice(b * rows, (b + 1) * rows), stream), range(nb), streams))


def _threshold_rows(v, rng, p, q, q_comp, gamma, m, sigma=None) -> np.ndarray:
    """One draw of the two-level threshold construction around each row of
    v, an (n, d) matrix of unit rows (a broadcast view for a shared input),
    as an (n, d) array whose row blocks ``_threshold_block`` fills
    (``_row_blocks``)."""
    out = np.empty(v.shape)
    law = (p, q, q_comp, gamma, m, sigma)
    _row_blocks(*v.shape, lambda rows, stream: _threshold_block(v[rows], stream, *law, out[rows]), rng)
    return out


def _threshold_block(v, rng, p, q, q_comp, gamma, m, sigma, out) -> None:
    """The threshold draw for the (k, d) rows of one row block, all from
    rng, written to out, the block's (k, d) slice of the call's output.

    T is the first coordinate of a uniform point of S^{d-1} when sigma is
    None, else N(0, sigma^2); q = P(T < gamma) and q_comp = P(T >= gamma).
    Each row takes the closed side T >= gamma with probability p, draws
    alpha from T conditioned on that side (``_draw_above``), adds a standard
    Gaussian row g with its component along v taken out, scaled to norm
    sqrt(1 - alpha^2) (sphere) or by sigma, adds alpha v and divides by m.
    Only the mass of a side that is drawn is read.

    The report is scale g + (alpha/m - scale g . v) v, written into out with
    g's buffer for the v term: the block's one scratch array of its size.
    """
    size, d = v.shape
    above = rng.uniform(size) < p
    alpha = np.empty(size)
    n_above = np.count_nonzero(above)
    if n_above:
        alpha[above] = np.maximum(_draw_above(gamma, q_comp, n_above, d, sigma, rng), gamma)
    if n_above < size:
        # the law is symmetric: T < gamma is -T > -gamma; the open side
        # excludes gamma itself
        open_side = -_draw_above(-gamma, q, size - n_above, d, sigma, rng)
        alpha[~above] = np.minimum(open_side, np.nextafter(gamma, -2.0))
    g = rng.normal((size, d))
    if sigma is None:
        along, sq = _orthogonal_split(g, v)
        while not sq.all():  # probability zero; keeps the norm contract airtight
            redo = sq == 0.0
            rows = rng.normal((np.count_nonzero(redo), d))
            along[redo], sq[redo] = _orthogonal_split(rows, v[redo])
            g[redo] = rows
        scale = (np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha)) / (np.sqrt(sq) * m))[:, None]
    else:
        along, scale = np.einsum("ij,ij->i", g, v), sigma / m
    np.multiply(g, scale, out=out)
    np.multiply(v, alpha[:, None] / m - scale * along[:, None], out=g)
    out += g


def sample_cap(d: int, gamma: float, above: bool, rng: RngStream) -> np.ndarray:
    """Uniform draw on the spherical cap {u : u_1 >= gamma} (or its
    complement), in the e_1 frame.

    The threshold construction with v = e_1, p in {0, 1} and m = 1: the
    first coordinate is an exact rejection draw from the marginal law
    conditioned on the chosen side, the rest is uniform on a (d-2)-sphere
    scaled to keep unit norm. The boundary u_1 = gamma belongs to the
    "above" cap.
    """
    d = _check_dim(d)
    if not (-1.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie strictly in (-1, 1), got {gamma!r}")
    if above not in (True, False):  # 0.5 or 2 would draw with the wrong side's mass
        raise ValueError(f"above must be True or False, got {above!r}")
    # the drawn side's mass: P(W_1 >= gamma) = P(W_1 <= -gamma) by symmetry
    mass = marginal_cdf(-gamma if above else gamma, d)
    if mass < 1e-300:
        side = "cap" if above else "complement"
        raise NumericsError(f"{side} mass below 1e-300 at gamma={gamma}, d={d}")
    e1 = np.zeros(d)
    e1[0] = 1.0
    # p in {0, 1} draws only the chosen side, so only its mass is read
    return _threshold_rows(e1[None, :], rng, float(above), mass, mass, gamma, 1.0)[0]


def rotate_from_e1(v, u):
    """Apply an orthogonal map T with T e_1 = v to u (vector or batch rows).

    Householder reflection with the usual cancellation-avoiding sign choice:
    for v_1 >= 0 reflect through w = e_1 + v and negate (mapping e_1 to v),
    otherwise reflect through w = e_1 - v directly. Either way |w|^2 >= 2,
    so the map stays accurate arbitrarily close to both poles. O(d) per
    vector, no stored matrix; isotropy of tangential inputs is preserved
    because T is orthogonal. Not public API (see the module docstring).
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
