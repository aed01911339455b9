"""Additive aggregation protocol and the Monte Carlo harness.

The aggregate is the plain average of the randomized vectors, so its MSE is
the single-user error divided by n. The users' reports are exactly
``privunit.randomize(vectors, params, rng)``, the one call that serves both
laws, as it reads the law from the parameters: ``estimate_mean`` draws them
by the sampler's row-block rule (``sphere._row_blocks``), sums each block
on the thread that drew it and adds the block sums in block order, so it
holds one block of reports per thread, never all n. It runs at most
``_THREADS`` block threads, as each holds its reports and its Gaussian
draw, two blocks (2 MiB): its memory beyond the inputs stays near 4.5 MB
whatever the core count, and its reports never depend on the thread
count. Trial t of ``run_trials`` draws its n inputs and then its reports
on its own stream, ``RngStream(seed, t + 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import privunit, sphere, tuner
from .sphere import RngStream

__all__ = ["TrialReport", "estimate_mean", "run_trials"]

_THREADS = 2


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


def estimate_mean(vectors, params: privunit.ThresholdParams, rng: RngStream) -> np.ndarray:
    """Average of the reports ``privunit.randomize(vectors, params, rng)``
    under params, a ``CapParams`` or ``GaussParams``, with one block sum per
    row block added in block order (see the module docstring); unbiased for
    the true mean."""
    mat = sphere.as_unit_rows(vectors)

    def block_sum(rows, stream):
        # the rows are validated once, above, not again per block
        return privunit._row_reports(mat[rows], params, stream).sum(axis=0)

    return sum(sphere._row_blocks(*mat.shape, block_sum, rng, _THREADS)) / mat.shape[0]


def run_trials(n: int, d: int, eps: float, alg: str, trials: int, seed: int) -> TrialReport:
    """Repeat the n-user protocol on fresh uniform inputs and compare the
    empirical MSE of the average against the tuned analytic single-user
    error. Deterministic given seed."""
    n = sphere._check_int(n, "n", 1)
    trials = sphere._check_int(trials, "trials", 1)
    tuned = tuner.tune(eps, d, alg)
    sq_errors = np.empty(trials)
    for t in range(trials):
        trial_rng = RngStream(seed, t + 1)
        # uniform inputs: normalized Gaussian rows, the same normal sequence
        # as n one-vector draws
        vecs = trial_rng.normal((n, d))
        vecs /= sphere._row_norms(vecs)[:, None]
        true_mean = vecs.mean(axis=0)
        est = estimate_mean(vecs, tuned.params, trial_rng)
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
