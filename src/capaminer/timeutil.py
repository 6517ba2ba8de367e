"""RFC 3339 §5.6 date-time over POSIX seconds: T, t or a space; any fraction; Z, z or ±HH:MM."""

from __future__ import annotations

import re
from datetime import datetime, timezone

# the (test, requirement) atom of the POSIX seconds that RFC 3339 writes, of a number or an array
WRITABLE = (lambda t: (-62135596800 <= t) & (t < 253402300800), "a time in years 0001 to 9999 UTC")
_DATE_TIME = re.compile(r"(\d{4}-\d\d-\d\d)[Tt ](\d\d:\d\d:\d\d)(?:\.(\d{1,6})\d*)?"
                        r"(?:[Zz]|([+-]\d\d:[0-5]\d))", re.ASCII)


def to_rfc3339(posix_seconds: float) -> str:
    # isoformat pads the year to four digits, which strftime's %Y does not
    # on every platform
    dt = datetime.fromtimestamp(float(posix_seconds), tz=timezone.utc)
    return dt.isoformat().removesuffix("+00:00") + "Z"


def from_rfc3339(text: str) -> float:
    """The POSIX seconds of a text time, by this one rule; text off the grammar, the calendar
    or the clock, or a time outside WRITABLE, is a ValueError, prefixed by the caller's place."""
    m = _DATE_TIME.fullmatch(text.strip())
    try:  # the match as one text, fraction cut to 6 digits, that every Python reads alike
        dt = datetime.fromisoformat(f"{m[1]}T{m[2]}.{m[3] or '':0<6}{m[4] or '+00:00'}")
    except (TypeError, ValueError):  # TypeError: no match, m is None
        raise ValueError(f"is not an RFC 3339 date: {text!r}") from None
    if not WRITABLE[0](t := dt.timestamp()):
        raise ValueError(f"must be {WRITABLE[1]}, got {text!r}")
    return t
