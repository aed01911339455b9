"""Additive aggregation protocol and the Monte Carlo harness.

The aggregate is the plain average of the randomized vectors, so its MSE is
the single-user error divided by n. Users are randomized in fixed blocks of
B = BLOCK_USERS: users [b*B, (b+1)*B) form block b, drawn as one multi-row
call of the randomizer on substream(b) of the protocol's stream. Streams are
derived, never shared: trial t uses root.substream(t), block b inside a
trial uses substream(b) of the trial stream, and the trial's n inputs are
one draw on substream(n), which no block uses. Where d > 256 the sampler
splits a block of users further into row blocks, each on a jump of the
block's stream (see ``sphere``), not on a third level of substream ids,
which ``substream`` refuses. A block's reports depend only on the seed and
its own inputs, so results are reproducible bit for bit whatever order the
blocks are drawn in; only the order in which the block sums are added is
fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import privunit, sphere, tuner
from .sphere import RngStream

__all__ = ["BLOCK_USERS", "TrialReport", "estimate_mean", "run_trials"]

BLOCK_USERS = 256
"""B, the users per block. A constant of the protocol, not a tuning knob:
every per-seed result depends on it."""

# Randomizer(rows, rng): one report per row of a (k, d) block of unit
# inputs, all drawn from rng, as a (k, d) array
Randomizer = Callable[[np.ndarray, RngStream], np.ndarray]


@dataclass(frozen=True)
class TrialReport:
    """Monte Carlo summary: empirical_mse estimates the squared error of
    the n-user average; standard_error is the sample standard deviation of
    per-trial squared errors divided by sqrt(trials) (nan for trials < 2)."""

    n: int
    trials: int
    empirical_mse: float
    analytic_err_per_user: float
    standard_error: float
    seed: int


def _blocks(mat: np.ndarray, randomizer: Randomizer, rng: RngStream):
    """The reports of each block of BLOCK_USERS rows of mat, in block
    order: block b is randomizer(its rows, rng.substream(b))."""
    for b, start in enumerate(range(0, mat.shape[0], BLOCK_USERS)):
        rows = mat[start:start + BLOCK_USERS]
        reports = randomizer(rows, rng.substream(b))
        if np.shape(reports) != rows.shape:
            # a one-vector randomizer would otherwise be summed silently wrong
            raise ValueError(f"randomizer returned shape {np.shape(reports)} for a block of shape {rows.shape}")
        yield reports


def estimate_mean(vectors, randomizer: Randomizer, rng: RngStream) -> np.ndarray:
    """Average of the reports of every block of users (see the module
    docstring), block sums added in block order; unbiased for the true
    mean whenever the randomizer is. Holds one block of reports at a time."""
    mat = np.atleast_2d(np.asarray(vectors, dtype=float))
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("vectors must be a nonempty list of equal-length vectors")
    acc = np.zeros(mat.shape[1])
    for reports in _blocks(mat, randomizer, rng):
        acc += reports.sum(axis=0)
    return acc / mat.shape[0]


def run_trials(n: int, d: int, eps: float, alg: str, trials: int, seed: int) -> TrialReport:
    """Repeat the n-user protocol on fresh uniform inputs and compare the
    empirical MSE of the average against the tuned analytic single-user
    error. Deterministic given seed."""
    if n < 1 or trials < 1:
        raise ValueError(f"n and trials must be positive, got n={n}, trials={trials}")
    tuned = tuner.tune(eps, d, alg)
    # one randomizer serves both laws: ``privunit._reports`` reads the law
    # from params.sigma
    randomizer = lambda v, rng: privunit.randomize(v, tuned.params, rng)
    root = RngStream(seed, 0)
    sq_errors = np.empty(trials)
    for t in range(trials):
        trial_rng = root.substream(t)
        # uniform inputs: normalized Gaussian rows, the same normal sequence
        # as n one-vector draws
        vecs = trial_rng.substream(n).normal((n, d))
        vecs /= sphere._row_norms(vecs)[:, None]
        true_mean = vecs.mean(axis=0)
        est = estimate_mean(vecs, randomizer, trial_rng)
        sq_errors[t] = float(np.sum((est - true_mean) ** 2))
    mse = float(sq_errors.mean())
    if trials >= 2:
        se = float(sq_errors.std(ddof=1) / math.sqrt(trials))
    else:
        se = math.nan
    return TrialReport(
        n=n,
        trials=trials,
        empirical_mse=mse,
        analytic_err_per_user=tuned.err_star,
        standard_error=se,
        seed=seed,
    )
