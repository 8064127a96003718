"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so solver and IO code should
raise the most specific class that applies.
"""


class GraphsackError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GraphsackError):
    """An instance, item list, or argument violates a documented invariant."""


class ParseError(ValidationError):
    """Instance text is malformed.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedVariantError(GraphsackError):
    """The requested solver does not apply to this instance class."""


class OracleScaleError(GraphsackError):
    """The exhaustive oracle was asked to solve an instance above its size bound."""
