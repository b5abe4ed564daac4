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
    """Input lies outside the mathematical domain of an operation (such as a
    theta at or beyond the hyperbola branch's pole, where the arc integral
    diverges)."""


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
    """A documented operation precondition was violated by the caller (such
    as a map lacking data the operation needs)."""


class ImmersionError(SigembedError):
    """Embedding Jacobian is rank deficient. Carries the observed rank."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class NumericalError(SigembedError):
    """A numerical kernel failed: the eigen-solver, or a finite-difference
    step at a non-finite coordinate."""
