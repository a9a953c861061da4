"""Exception taxonomy shared across the package.

ValidationError covers violated preconditions (bad arguments, malformed
fields); NumericsError covers runtime numerical failures (divergent tails,
failed bracketing, indefinite operators).  The CLI maps them to exit codes
1 and 2 respectively.
"""


class ValidationError(ValueError):
    """A precondition on user input was violated."""


class NumericsError(RuntimeError):
    """A numerical procedure failed in a detectable way."""


class DivergentTailError(NumericsError):
    """An integral does not converge for the declared far-field decay."""


class BracketingError(NumericsError):
    """A one-dimensional search failed to bracket an interior optimum or root."""


class IndefiniteOperatorError(NumericsError):
    """A matrix required to be positive (semi)definite is not, beyond tolerance."""
