"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DickeLabError(Exception):
    """Base class for all package errors."""


class ValidationError(DickeLabError):
    """Invalid argument or malformed input."""


class ConfigError(ValidationError):
    """Config or device-file parse error, carrying a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceError(DickeLabError):
    """A dimension or memory budget would be exceeded.

    ``history`` optionally carries partial convergence data gathered
    before the breach.
    """

    def __init__(self, message: str, history=None):
        self.history = history
        super().__init__(message)


class DescentError(DickeLabError):
    """All descent starts failed; ``candidates`` lists the best attempts.

    Kept in the public error hierarchy for callers that catch it;
    ``find_minima`` enumerates its points in closed form and no longer
    raises it.
    """

    def __init__(self, message: str, candidates=None):
        self.candidates = candidates or []
        super().__init__(message)


class SweepAborted(DickeLabError):
    """Global resource budget breached mid-sweep; ``rows`` holds partial results."""

    def __init__(self, message: str, rows=None):
        self.rows = rows or []
        super().__init__(message)
