"""Shared exception and warning types."""

__all__ = ["ValidityError", "DomainError", "CapTooSmallWarning"]


class ValidityError(ValueError):
    """A digit word (or word-derived input) violates the digit constraints.

    `index` is the 1-based position of the first offending digit when the
    failure is attributable to one; otherwise None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DomainError(ValueError):
    """A numeric argument lies outside the operation's domain."""


class CapTooSmallWarning(UserWarning):
    """A digit cap excludes every admissible digit at some position.

    `position` is the first 1-based digit position where that happens and
    `count` the number of compatible prefixes the cap cuts off there; both
    are None when the warning is raised without them.
    """

    def __init__(self, message, position=None, count=None):
        super().__init__(message)
        self.position = position
        self.count = count
