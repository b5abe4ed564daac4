"""Exception types raised by the geometry and numerics layers."""


class SigembedError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(SigembedError):
    """A metric or embedding evaluator returned an unusable value.

    Carries the offending matrix index when one is known.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DomainError(SigembedError):
    """Input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or beyond) a pole of the hyperbola branch."""


class DivergenceError(DomainError):
    """The arc-length integral diverges at or beyond the requested point."""


class RegionError(DomainError):
    """Event lies outside the quotient-admissible half-space y1 - tau > 0.

    Carries the offending (tau, y1) pair and, for an array of events, the
    flat index of that pair.
    """

    def __init__(self, message, tau=None, y1=None, index=None):
        super().__init__(message)
        self.tau = tau
        self.y1 = y1
        self.index = index


class PreconditionError(SigembedError):
    """A documented operation precondition was violated by the caller."""


class ImmersionError(SigembedError):
    """Embedding Jacobian is rank deficient. Carries the observed rank."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class NumericalError(SigembedError):
    """A numerical kernel failed (eigen-solver, step underflow, ...)."""


class CapabilityError(SigembedError):
    """The supplied map lacks data required by the requested operation."""
