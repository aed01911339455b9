"""Locally differentially private mean estimation on the unit sphere.

Two optimal-rate randomizers (spherical-cap and Gaussian-threshold), exact
normalizers and error formulas, budget tuning, a Monte Carlo harness, and a
circle-discretized verifier of the two-level cap optimality structure.

Each module's ``__all__`` is the one list of its public names; the package
republishes their union.
"""

from . import capstruct_lp, errors, estimator, privunit, privunitg, sphere, tuner
from .capstruct_lp import *
from .errors import *
from .estimator import *
from .privunit import *
from .privunitg import *
from .sphere import *
from .tuner import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += capstruct_lp.__all__
__all__ += errors.__all__
__all__ += estimator.__all__
__all__ += privunit.__all__
__all__ += privunitg.__all__
__all__ += sphere.__all__
__all__ += tuner.__all__
