"""Exception hierarchy shared by all solver components."""

from __future__ import annotations


class GraphBalanceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraphBalanceError):
    """Instance document is syntactically or structurally invalid."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class ValidationError(GraphBalanceError):
    """Instance violates the structural assumptions of the requested mode."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)

    def __reduce__(self):  # rebuilt from the list, not from the joined message
        return type(self), (self.violations,)


class RegimeError(GraphBalanceError):
    """A core was invoked outside the guess range it is specified for."""


class OracleBudgetError(GraphBalanceError):
    """Instance exceeds the size budget of the exhaustive oracle."""


class OracleTimeout(GraphBalanceError):
    """A single oracle call exceeded its wall-clock cap."""


class MalformedDeclaration(GraphBalanceError):
    """A declaration payload is missing fields or internally inconsistent."""


class InvariantViolation(GraphBalanceError):
    """An internal solver invariant failed; indicates a defect, not bad input."""
