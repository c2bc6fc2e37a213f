"""Exception types shared across the package."""


class LpqError(Exception):
    """Base class for every library-specific error."""


class ValidationError(LpqError, ValueError):
    """An instance or argument violates a documented precondition."""


class DegenerateInstance(ValidationError):
    """Zero labels or an empty marked set."""


class OverflowsLabelSpace(ValidationError):
    """The marked progression does not fit inside the label set."""


class PeriodTooLarge(ValidationError):
    """Strict mode requires p*p <= n."""


class MarkedSetTooLarge(ValidationError):
    """Strict mode requires 2*m <= n."""


class LabelOutOfRange(ValidationError):
    """Oracle queried outside 0..n-1."""


class InvalidProbability(ValidationError):
    """Probability outside (0, 1]."""


class VerificationFailed(LpqError):
    """Oracle probes rejected the candidate (offset, period) pair."""


class BoundViolated(LpqError):
    """A computed figure breaks one of the paper's proven bounds."""


class NonTermination(LpqError):
    """A seeded search or run gave up or cannot succeed (CLI exit 4): no
    member measured in 16 attempts, 16 off-image measurements in a row, a
    walk past its round guard, no Monte-Carlo candidate passing
    verification, no success within _MAX_TRIALS trials, or a pipeline
    with Pr(0) = 1."""
