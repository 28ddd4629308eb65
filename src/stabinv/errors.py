"""Shared exception types."""


class BudgetError(RuntimeError):
    """An operation would exceed a configured size budget."""


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidCodeError(ValueError):
    """A bit matrix that is no valid stabilizer code; carries the first
    violated property and the matrix shape."""

    def __init__(self, violation, shape):
        super().__init__(f"invalid code: {violation}")
        self.violation = violation
        self.shape = shape
