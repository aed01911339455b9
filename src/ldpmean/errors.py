"""Exception types shared across the package.

Plain ValueError is used for ordinary domain violations (arguments outside
their documented range); the classes here mark conditions a caller may want
to handle separately.
"""

__all__ = ["NumericsError", "DegenerateParameterError", "SupportError"]


class NumericsError(ArithmeticError):
    """An iteration failed to converge or a tail mass saturated to zero."""


class DegenerateParameterError(ValueError):
    """Randomizer parameters with a non-positive normalizer (estimator
    undefined, infinite variance)."""


class SupportError(ValueError):
    """A density was evaluated at a point off the randomizer's support."""
