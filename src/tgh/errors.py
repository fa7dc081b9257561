"""Exception types shared across the package."""


class TGHError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(TGHError, ValueError):
    """An argument violates a documented precondition."""


class OutOfRangeError(TGHError, ValueError):
    """A timestamp or index falls outside the valid domain."""


class NotFoundError(TGHError, KeyError):
    """An id does not exist in the store or hierarchy."""
