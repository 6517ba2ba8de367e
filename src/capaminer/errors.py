"""Exception types shared across the package, and need, the one check of
the fields of a document read from outside: the config, the keyword map, a
model, an artifact, a published pairwise table or a pull-request record.  A
spec {key: (test, requirement)} fails at its first missing or failing key
with the ValueError "<key> must be <requirement>, got <value>" (the value's
repr, or "nothing" when the key is missing), which need_rows prefixes with
"<list>[n]: ".  A defect in the content of an input file, found here or by
a loader, is only ever a ValueError; cli._read, the one step through which a
command reads a file, turns it into the command's error, naming the file.
NUMBER is the one rule of a finite number."""

import sys

import numpy as np


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
# a real but not a bool, compared with the float range: NaN, inf and huge ints fail
_REALS, _MAX = (int, float, np.integer, np.floating), sys.float_info.max
NUMBER = (lambda v: isinstance(v, _REALS) and not isinstance(v, bool) and -_MAX <= v <= _MAX,
          "a finite number")
NON_NEGATIVE = (lambda v: NUMBER[0](v) and v >= 0, "a finite number >= 0")
PROBABILITY = (lambda v: NUMBER[0](v) and 0 < v < 1, "a number in (0, 1)")
UNIT_INTERVAL = (lambda v: NUMBER[0](v) and 0 <= v <= 1, "a number in [0, 1]")
SEED = (lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2**64)")


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
            got = repr(doc[key]) if key in doc else "nothing"
            raise ValueError(f"{key} must be {want}, got {got}")
    return doc


def only(doc, known, what):
    """doc, after checking that it has no key outside known; an unknown key
    is the ValueError "unknown <what> keys: [...]"."""
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
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


class DegenerateData(CapaMinerError):
    """Training data has fewer than 2 classes, or a class too small to split."""


class EmptyTable(CapaMinerError):
    """A contingency table has no usable rows/columns."""


class MalformedInput(CapaMinerError):
    """A data file, the metrics, the pull requests or a standalone table,
    cannot be read, decoded or parsed; the message names the file."""


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
