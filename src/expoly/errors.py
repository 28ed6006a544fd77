"""Exception types shared across the package."""


class ExpolyError(Exception):
    """Base class for all domain errors raised by this package."""


class PartialityError(ExpolyError):
    """The exponential was applied outside its domain of definition."""


class VariableCountError(ExpolyError):
    """Operands disagree on the number of formal variables."""


class PreconditionError(ExpolyError):
    """An operation was called on input violating its stated precondition."""


class BudgetExceededError(ExpolyError):
    """A reduction-step budget ran out before the computation finished."""


class InternalError(ExpolyError):
    """An internal consistency check failed: an engine bug, never bad input.

    Raised explicitly (not by `assert`), so the checks still run under
    `python -O`.
    """


class ParseError(ExpolyError):
    """Syntax error in the textual term language."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Budget:
    """Countdown of reduction steps; spend() raises once the limit is hit.

    A limit of None means unlimited.
    """

    def __init__(self, limit=1_000_000):
        self.limit = limit
        self.used = 0

    def spend(self, steps=1):
        self.used += steps
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(
                f"step budget of {self.limit} exceeded"
            )
