"""Locally differentially private mean estimation on the unit sphere.

Two optimal-rate randomizers (spherical-cap and Gaussian-threshold), exact
normalizers and error formulas, budget tuning, a Monte Carlo harness, and a
circle-discretized verifier of the two-level cap optimality structure.
"""

from .capstruct_lp import LpInstance, LpSolution, lp_instance, solve_greedy, verify_cap_structure
from .errors import DegenerateParameterError, NumericsError, SupportError
from .estimator import TrialReport, estimate_mean, run_trials
from .privunit import (
    CapParams,
    ErrorBreakdown,
    analytic_err,
    cap_params,
    log_density,
    privacy_eps,
    randomize,
    randomize_batch,
)
from .privunitg import (
    GaussParams,
    analytic_err_g,
    gauss_params,
    randomize_g,
    randomize_g_batch,
)
from .sphere import RngStream, as_unit_vector, inv_marginal_cdf, marginal_cdf, sample_cap, sample_uniform_sphere
from .tuner import BudgetSplit, TunedResult, budget_split, c_eps, repetition_err, tune

__version__ = "0.1.0"

__all__ = [
    "BudgetSplit",
    "CapParams",
    "DegenerateParameterError",
    "ErrorBreakdown",
    "GaussParams",
    "LpInstance",
    "LpSolution",
    "NumericsError",
    "RngStream",
    "SupportError",
    "TrialReport",
    "TunedResult",
    "analytic_err",
    "analytic_err_g",
    "as_unit_vector",
    "budget_split",
    "c_eps",
    "cap_params",
    "estimate_mean",
    "gauss_params",
    "inv_marginal_cdf",
    "log_density",
    "lp_instance",
    "marginal_cdf",
    "privacy_eps",
    "randomize",
    "randomize_batch",
    "randomize_g",
    "randomize_g_batch",
    "repetition_err",
    "run_trials",
    "sample_cap",
    "sample_uniform_sphere",
    "solve_greedy",
    "tune",
    "verify_cap_structure",
    "__version__",
]
