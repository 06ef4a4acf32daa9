"""Exception taxonomy shared by all youngbounds modules."""

from __future__ import annotations


class YoungBoundsError(Exception):
    """Base class for every error raised by this package."""


class ExprSyntaxError(YoungBoundsError):
    """Malformed expression text. Carries the zero-based offset of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnsupportedFeatureError(YoungBoundsError):
    """Grammar feature outside the supported subset (e.g. a non-constant exponent)."""


class DomainError(YoungBoundsError):
    """Evaluation left the reals: ln of a nonpositive value, sqrt of a negative
    value, division by zero, a zero base raised to a negative power, overflow."""


class OrderCapError(YoungBoundsError):
    """Requested derivative order outside [0, cap]."""


class NoConvergenceError(YoungBoundsError):
    """An iterative routine exhausted its budget before meeting its tolerance."""


class NotBracketedError(YoungBoundsError):
    """Target value lies outside [f(lo), f(hi)] for the inversion bracket."""


class ConsistencyError(YoungBoundsError):
    """Two independent computations of the same quantity disagree beyond the
    combined error estimates, or the Young gap came out negative."""


class ExponentDomainError(YoungBoundsError):
    """Norm/coefficient exponent for which the defining expression leaves the reals."""


class InvalidTError(YoungBoundsError):
    """Free evaluation point t outside its admissible interval."""


class ValidationError(YoungBoundsError):
    """Problem instance violates a documented precondition. Carries the field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(YoungBoundsError):
    """Problem or fixture file is not valid JSON / not the documented schema."""


class InvariantViolation(YoungBoundsError):
    """A property sweep found a counterexample; the message carries the instance
    serialization needed to replay it."""
