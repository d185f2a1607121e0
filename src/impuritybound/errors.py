"""Exception taxonomy shared by the library and the CLI.

The CLI maps these to distinct exit codes: usage errors are handled by
argparse (exit 2), DomainError also maps to 2, PreconditionError to 3,
AccuracyError and SearchError to 4 and NumericError to 5.
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


class AccuracyError(RuntimeError):
    """An adaptive scheme could not reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SearchError(RuntimeError):
    """An optimization failed to bracket or refine an extremum.

    ``diagnostics`` holds the grid dump of the failed scan.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NumericError(RuntimeError):
    """A low-level numeric routine (linear algebra, quadrature) failed."""


class StabilityRegimeError(PreconditionError):
    """The stability condition Lambda(m) < 1 does not hold for the input."""
