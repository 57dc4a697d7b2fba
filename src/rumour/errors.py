"""Exception types shared across the package."""


class RumourError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolation(RumourError, ValueError):
    """A model or preset parameter violates its admissibility constraint."""


class DomainError(RumourError, ValueError):
    """Argument lies outside the mathematical domain of the function."""


class NoBracket(RumourError):
    """Root bracketing failed: the limiting fraction x_inf underflows the
    normal float range (gamma small against delta), or delta is so small
    that f rounds to zero at its maximiser next to x = 1."""


class NotApplicable(RumourError):
    """No closed form exists for these parameters."""


class TooLarge(RumourError):
    """Population size exceeds the exact-oracle limit."""


class IntegrationFailure(RumourError):
    """Adaptive ODE integration could not meet its tolerance."""
