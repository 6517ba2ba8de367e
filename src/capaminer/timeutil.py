"""RFC 3339 UTC timestamps over POSIX seconds; from_rfc3339 is the one rule of a text time."""

from __future__ import annotations

from datetime import datetime, timezone

# the (test, requirement) atom of the POSIX seconds that RFC 3339 writes
WRITABLE = (lambda t: -62135596800 <= t < 253402300800, "a time in years 0001 to 9999 UTC")


def to_rfc3339(posix_seconds: float) -> str:
    # isoformat pads the year to four digits, which strftime's %Y does not
    # on every platform
    dt = datetime.fromtimestamp(float(posix_seconds), tz=timezone.utc)
    return dt.isoformat().removesuffix("+00:00") + "Z"


def from_rfc3339(text: str) -> float:
    """The POSIX seconds of RFC 3339 text; text that does not parse, or a time
    outside WRITABLE, is a ValueError, which the caller prefixes with its place."""
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        raise ValueError(f"is not an RFC 3339 date: {text!r}") from None
    t = (dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp()  # naive: UTC
    if not WRITABLE[0](t):
        raise ValueError(f"must be {WRITABLE[1]}, got {text!r}")
    return t
