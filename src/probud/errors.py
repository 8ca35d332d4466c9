"""Exception types shared across the package."""


class ProbudError(Exception):
    """Base class for all package-specific errors."""


class InvalidCost(ProbudError):
    """An item cost is missing, non-positive, or malformed."""


class InvalidLimit(ProbudError):
    """The spending limit is negative or malformed."""


class InvalidBudget(ProbudError):
    """A budget references unknown items or breaks a stated precondition."""


class InvalidChoice(ProbudError, ValueError):
    """An argument is none of the values a function accepts: an unknown
    tie policy, axiom family, axiom variant or axiom id text, an axiom
    that a checker does not handle, or an instance, axiom or report that
    is not of its type."""


class InvalidProfile(ProbudError):
    """A profile is not a :class:`~probud.model.Profile`, a ballot
    references unknown items, or a rule needs at least one voter."""


class NoApprover(ProbudError):
    """A cost spread was requested for an item that nobody approves."""


class TooLargeForExact(ProbudError):
    """Input exceeds the hard size caps of the exact (brute-force) routines."""


class ParseError(ProbudError):
    """An instance file is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateItem(ParseError):
    """An instance file declares the same item id twice."""


class InvalidSpec(ProbudError):
    """A generator specification is impossible or inconsistent."""
