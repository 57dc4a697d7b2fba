"""Exception types shared across the package."""


class RumourError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolation(RumourError, ValueError):
    """A model or preset parameter violates its admissibility constraint."""


class DomainError(RumourError, ValueError):
    """Argument lies outside the mathematical domain of the function."""


class NoBracket(RumourError):
    """The float-grid bisection for x_inf has no bracket: f is not negative
    at the smallest normal float (x_inf underflows; gamma small against
    delta) or not positive at its maximiser (delta/gamma below about 1e-15,
    where x_inf lies within twenty doubles of 1, or gamma so small that f
    underflows near the root, as at gamma = 1e-300 with delta/gamma =
    1e-13).  The closed forms raise it too when x_inf underflows, where f
    is not positive at the maximiser (the bisection's own test), and where
    x_inf rounds to 1."""


class NotApplicable(RumourError):
    """No closed form exists for these parameters."""


class TooLarge(RumourError):
    """Population size exceeds the exact-oracle limit."""


class IntegrationFailure(RumourError):
    """Adaptive ODE integration hit a non-finite error estimate or could
    not meet its tolerance."""
