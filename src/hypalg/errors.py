"""Exception types shared across hypalg.

Two failure modes are distinguished so callers can react differently:
malformed input (caller bug) and a computation that would exceed an
explicit resource budget (caller may retry with a larger budget).
"""

__all__ = ["InputError", "ResourceError"]


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceError(RuntimeError):
    """Raised when a computation would exceed its enumeration budget.

    The message always names the offending quantity (e.g. the number of
    undecided edge slots) so the caller can decide whether raising the
    budget is sensible.
    """
