"""Exception types shared across the package."""


class PriceDisclosureError(Exception):
    """Base class for all package errors."""


class ValidationError(PriceDisclosureError):
    """Input violates a documented precondition or invariant."""


class ParseError(ValidationError):
    """A data file could not be parsed; message names the offending row."""


class DatasetNotFoundError(PriceDisclosureError):
    """Requested bundled dataset does not exist."""


class FitError(PriceDisclosureError):
    """Density estimation failed (degenerate sample, no usable family)."""


class GenerationError(PriceDisclosureError):
    """Price generation could not meet the requested probability-mass layout."""


class NumericalError(PriceDisclosureError):
    """Numerical routine failed to converge; carries an error estimate."""

    def __init__(self, message: str, error_estimate: float = float("nan")):
        super().__init__(message)
        self.error_estimate = error_estimate

    def __reduce__(self):
        # Keep the estimate when the error crosses a process boundary.
        return type(self), (str(self), self.error_estimate)


class InfeasibleError(PriceDisclosureError):
    """Exhaustive enumeration refused: candidate count exceeds the guard."""
