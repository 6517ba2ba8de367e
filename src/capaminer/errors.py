"""Exception types shared across the package, and need, the one check of
the fields of a document read from outside: the config, the keyword map, a
model, an artifact, a published pairwise table or a pull-request record.  A
spec {key: (test, requirement)} fails at its first missing or failing key
with the ValueError "<key> must be <requirement>, got <value>", which
need_rows prefixes with "<list>[n]: "; the caller names the file."""

import math


def at_least(n):
    """The (test, requirement) atom of an integer >= n; a bool is not one."""
    return (lambda v: type(v) is int and v >= n, f"an integer >= {n}")


def or_null(atom):
    """The atom of null or what atom admits."""
    return (lambda v: v is None or atom[0](v), f"null or {atom[1]}")


# (test, requirement) atoms of the specs
TEXT = (lambda v: isinstance(v, str), "a string")
INTEGER = (lambda v: type(v) is int, "an integer")
INDEX = at_least(0)
NUMBER = (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number")
NON_NEGATIVE = (lambda v: NUMBER[0](v) and v >= 0, "a finite number >= 0")
PROBABILITY = (lambda v: NUMBER[0](v) and 0 < v < 1, "a number in (0, 1)")


def need(doc, checks):
    """doc, after checking it against checks, {key: (test, requirement)}; a
    doc that is not a dict, a missing key, or a test that fails or raises,
    is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    for key, (valid, want) in checks.items():
        try:
            ok = key in doc and valid(doc[key])
        except (AttributeError, TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"{key} must be {want}, got {doc.get(key)!r}")
    return doc


def need_rows(doc, key, fields):
    """doc, after checking that doc[key] is a list of objects with fields."""
    need(doc, {key: (lambda v: type(v) is list, "a list")})
    for n, row in enumerate(doc[key]):
        try:
            need(row, fields)
        except ValueError as exc:
            raise ValueError(f"{key}[{n}]: {exc}") from None
    return doc


class CapaMinerError(Exception):
    """Base class for all package errors."""


class ZeroVariance(CapaMinerError):
    """A window is (numerically) constant and carries no shape."""


class NoValidWindow(CapaMinerError):
    """No non-constant window is available for candidate selection."""


class EmptyDataset(CapaMinerError):
    """An input dataset holds no records."""


class MissingCreationDate(CapaMinerError):
    """A pull-request record lacks its mandatory creation date."""


class DegenerateData(CapaMinerError):
    """Training data contains a single class."""


class EmptyTable(CapaMinerError):
    """A contingency table has no usable rows/columns."""


class MalformedInput(CapaMinerError):
    """An input file does not have the expected layout."""


class MissingColumn(CapaMinerError):
    """A required CSV column is absent."""


class NonFiniteValue(CapaMinerError):
    """A metric value failed to parse as a finite number."""

    def __init__(self, row, message=None):
        self.row = row
        super().__init__(message or f"non-finite value at row {row}")


class MalformedLine(CapaMinerError):
    """A JSON-lines record failed to parse."""

    def __init__(self, line_number, message=None):
        self.line_number = line_number
        super().__init__(message or f"malformed JSON at line {line_number}")


class RadarError(CapaMinerError):
    """Illegal radar lifecycle transition or unknown repository."""


class AuthError(CapaMinerError):
    """Remote API rejected the configured credentials."""


class RateLimited(CapaMinerError):
    """Remote API rate limit persisted past the retry budget."""


class NotFound(CapaMinerError):
    """Remote resource does not exist."""


class IncompleteRecord(CapaMinerError):
    """A remote record lacks a field the collected data needs."""


class ConfigError(CapaMinerError):
    """Invalid or incomplete pipeline configuration."""
