"""Exception hierarchy shared across the package, and the reader of its ``key = value`` files."""

from __future__ import annotations

import math


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


def read_sections(text: str, keys: dict[str | None, tuple[str, ...]]) -> dict[str | None, dict]:
    """The ``key = value`` entries of an input file, as {section: {key: (value, line)}}.

    Lines are stripped; blank lines and ``#`` comments are skipped.  A
    ``[name]`` line opens section name, which must be a key of ``keys``;
    entries before any header belong to its first section.  An unknown
    section, a key its section does not list, a repeated key and a line
    without ``=`` raise ConfigError with their line number.
    """
    current = next(iter(keys))
    sections = {current: {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in keys:
                raise ConfigError(f"unknown section [{current}]", line=lineno)
            sections.setdefault(current, {})
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key = key.strip()
        if key not in keys[current]:
            where = f" in section [{current}]" if current else ""
            raise ConfigError(f"unknown key {key!r}{where}", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        sections[current][key] = (val.strip(), lineno)
    return sections


def parse_number(val: str, key: str, line: int, kind=float, scale: float = 1.0):
    """val times scale as a finite float, or as an int where kind is int.

    Finiteness is checked after scaling; inf, nan, 1e400 and a kind=int
    value more than 1e-9 from an integer are malformed, with their line.
    """
    try:
        f = float(val) * scale
    except ValueError:
        f = math.nan
    if not math.isfinite(f) or (kind is int and abs(f - round(f)) > 1e-9):
        raise ConfigError(f"malformed number for {key!r}: {val!r}", line=line)
    return int(round(f)) if kind is int else f


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
