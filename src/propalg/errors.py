"""Error types shared across the package."""


class PropalgError(Exception):
    """Base class for all errors raised by this package."""


class SyntaxValidationError(PropalgError):
    """Raised on malformed concrete syntax (statements, valuation files, specs)."""


class ReservedWordError(SyntaxValidationError):
    """Raised when a reserved keyword is used as an atom name."""


class AlphabetError(PropalgError):
    """A term mentions an atom outside a valuation table's alphabet."""


class DepthExhaustedError(PropalgError):
    """An evaluation needs more queries than a table's observable depth."""


class BudgetExceededError(PropalgError):
    """An exhaustive enumeration would exceed the configured budget."""


class UnsupportedConnectiveError(PropalgError):
    """An operation received a term outside its supported fragment: a sugared
    connective it does not handle, or a term that is not a basic form where
    one is required."""


class NestingDepthError(PropalgError):
    """A term nests too deeply for a recursive walk over it: Python's
    recursion limit ran out before the walk finished."""
