"""Exception types shared across the package."""


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
