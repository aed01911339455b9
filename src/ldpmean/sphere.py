"""Geometry and sampling on the unit sphere S^{d-1}.

Unit vectors are plain numpy float arrays; ``as_unit_vector`` and
``as_unit_rows`` validate the norm at API boundaries. The marginal law of a
single coordinate of a uniform point on S^{d-1} is the stretched symmetric
beta 2B - 1 with B ~ Beta((d-1)/2, (d-1)/2).

Both randomizers and ``sample_cap`` draw through one sampler,
``_threshold_rows``: a two-level threshold on the coordinate alpha along the
input v, drawn from its 1-D law conditioned on one side of the threshold by
exact rejection (``_draw_above``, which stays fast for caps of any mass),
plus an isotropic part orthogonal to v made by projecting v out of a
Gaussian row, so no rotation is needed. The sampler takes an (n, d) matrix
of unit inputs, one per row; n reports of one shared input are the rows of
a broadcast view of it. ``rotate_from_e1`` is a standalone utility that no
sampler uses.

Random streams derive in two ways (see ``RngStream``): by substream id, for
the trials and user blocks of the protocol, and by block jump inside one
sampler call. The sampler draws its rows in fixed blocks of
max(1, 2**16 // d) rows. A call of one block draws on the caller's stream.
A longer call draws block b on the caller's stream jumped b + 1 times, each
block on its own thread, up to one thread per core; its reports depend on
the seed and this block rule, never on the number of cores.
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
    "as_unit_rows",
    "sample_uniform_sphere",
    "marginal_cdf",
    "inv_marginal_cdf",
    "sample_cap",
    "rotate_from_e1",
]

_MASK64 = (1 << 64) - 1
_ID_LEVEL = 1 << 32  # substream ids: stream_id * 2**32 + i + 1
# values in one row block of a sampler call: 2**16 doubles are 512 KiB, so a
# block's arrays stay in a core's cache from its Gaussian draw to its output
_BLOCK_VALUES = 1 << 16
# rounds of ``_draw_above`` before it gives up: every proposal is accepted
# with probability at least 1/4, so one lane survives 1000 rounds with
# probability (3/4)^1000, about 1e-125
_MAX_ROUNDS = 1000


class RngStream:
    """Deterministic, splittable random source.

    Backed by numpy's counter-based Philox generator keyed with
    ``key = (stream_id << 64) | seed``, so identical ``(seed, stream_id)``
    pairs reproduce identical draw sequences and distinct stream ids give
    statistically independent streams. Streams derive in two ways.

    Substream ids: ``substream(i)`` is
    ``RngStream(seed, stream_id * 2**32 + i + 1)``, for a stream_id below
    2**32 and i in [0, 2**32 - 1). Outside that range the id would wrap mod
    2**64 onto another stream's id, so ``substream`` raises ValueError.
    From stream 0 this allows two levels (trial stream, then the stream of
    one block of users, or of a trial's inputs), and from any other id below
    2**32 one level. Substream i of stream 0 has id i + 1, the id of a root
    stream.

    Block jumps: a sampler call of nb > 1 row blocks draws block b on this
    stream's Philox counter jumped b + 1 times (``Philox.jumped``, 2**128
    draws per jump), then moves this stream nb + 1 jumps ahead, so its later
    draws overlap no block. Jumps keep the key, so they never reach another
    stream.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        # a float id that int() would truncate aliases another stream
        for name, x in (("seed", seed), ("stream_id", stream_id)):
            if not (0 <= x <= _MASK64) or int(x) != x:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {x!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(np.random.Philox(key=(self.stream_id << 64) | self.seed))

    def substream(self, i: int) -> "RngStream":
        if self.stream_id >= _ID_LEVEL:
            raise ValueError(f"stream_id {self.stream_id} >= 2**32 derives no substream: its ids would wrap")
        if not (0 <= i < _ID_LEVEL - 1) or int(i) != i:
            raise ValueError(f"substream index must be an integer in [0, 2**32 - 1), got {i!r}")
        return RngStream(self.seed, self.stream_id * _ID_LEVEL + int(i) + 1)

    def _block_streams(self, nb: int) -> list["RngStream"]:
        """The streams of nb row blocks, block b on this stream jumped b + 1
        times; this stream then moves nb + 1 jumps ahead."""
        bits = self._gen.bit_generator
        blocks = []
        for b in range(nb):
            block = copy.copy(self)
            block._gen = np.random.Generator(bits.jumped(b + 1))
            blocks.append(block)
        bits.advance((nb + 1) << 128)
        return blocks

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
    nrm = _row_norms(rows)
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


def _project_out(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove from each row g_j of g, in place, its component along row v_j
    of v, with the one-row product ``g_j @ v_j``, so a row's report does not
    depend on the other rows; returns the components removed."""
    along = (g[:, None, :] @ v[:, :, None])[:, 0, 0]
    g -= along[:, None] * v
    return along


def _orthogonal_sq_norms(g: np.ndarray, v: np.ndarray, along: np.ndarray) -> np.ndarray:
    """The squared norms of the rows of g, which ``_project_out`` has just
    taken the components ``along`` out of. A row that lay within 1/8 of its
    v (|g_perp|^2 < |g|^2/64, |g|^2 = along^2 + |g_perp|^2) keeps a
    rounding residual along v that dividing by |g_perp| would magnify, so
    it is projected a second time, in place; two passes suffice (Giraud,
    Langou & Rozloznik 2005). Only d <= 3 meets such rows often."""
    sq = np.einsum("ij,ij->i", g, g)
    again = 64.0 * sq < along * along + sq
    if again.any():
        rows = g[again]
        _project_out(rows, v[again])
        g[again] = rows
        sq[again] = np.einsum("ij,ij->i", rows, rows)
    return sq


def _cores() -> int:
    """The CPUs this process may run on, which bounds a call's block threads."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _threshold_rows(v, rng, p, q, q_comp, gamma, m, sigma=None) -> np.ndarray:
    """One draw of the two-level threshold construction around each row of
    v, an (n, d) matrix of unit rows (a broadcast view for a shared input),
    as an (n, d) array.

    Rows are drawn in blocks of max(1, 2**16 // d). One block draws on rng
    (``_threshold_block``). More blocks fill one (n, d) output: block b
    draws its slice on rng jumped b + 1 times (``RngStream._block_streams``),
    on a pool of up to one thread per core.
    """
    size, d = v.shape
    rows = max(1, _BLOCK_VALUES // d)
    law = (p, q, q_comp, gamma, m, sigma)
    if size <= rows:
        return _threshold_block(v, rng, *law)
    out = np.empty((size, d))
    starts = range(0, size, rows)

    def fill(start, stream):
        _threshold_block(v[start:start + rows], stream, *law, out=out[start:start + rows])

    streams = rng._block_streams(len(starts))
    with ThreadPoolExecutor(min(_cores(), len(starts))) as pool:
        for _ in pool.map(fill, starts, streams):  # re-raises a block's error
            pass
    return out


def _threshold_block(v, rng, p, q, q_comp, gamma, m, sigma, out=None) -> np.ndarray:
    """The threshold draw for the (k, d) rows of v, all from rng, written to
    out (k, d) if given, else to a new array.

    T is the first coordinate of a uniform point of S^{d-1} when sigma is
    None, else N(0, sigma^2); q = P(T < gamma) and q_comp = P(T >= gamma).
    Each row takes the closed side T >= gamma with probability p, draws
    alpha from T conditioned on that side (``_draw_above``), adds a standard
    Gaussian row with its component along v projected out, scaled to norm
    sqrt(1 - alpha^2) (sphere) or by sigma, adds alpha v and divides by m.
    Only the mass of a side that is drawn is read.
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
    along = _project_out(g, v)
    if out is None:
        out = g
    if sigma is None:
        sq = _orthogonal_sq_norms(g, v, along)
        while not sq.all():  # probability zero; keeps the norm contract airtight
            redo = sq == 0.0
            rows, vr = rng.normal((np.count_nonzero(redo), d)), v[redo]
            sq[redo] = _orthogonal_sq_norms(rows, vr, _project_out(rows, vr))
            g[redo] = rows
        np.multiply(g, (np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha)) / (np.sqrt(sq) * m))[:, None], out=out)
    else:
        np.multiply(g, sigma / m, out=out)
    out += (alpha / m)[:, None] * v
    return out


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
