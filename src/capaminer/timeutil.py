"""RFC 3339 UTC timestamp helpers over POSIX seconds."""

from __future__ import annotations

from datetime import datetime, timezone

# POSIX seconds of 0001-01-01 and 10000-01-01 UTC: the times RFC 3339 writes
FIRST, END = -62135596800, 253402300800
# the (test, requirement) atom of a time that both loaders accept, so that
# every time read can be written back
WRITABLE = (lambda t: FIRST <= t < END, "a time in years 0001 to 9999 UTC")


def to_rfc3339(posix_seconds: float) -> str:
    # isoformat pads the year to four digits, which strftime's %Y does not
    # on every platform
    dt = datetime.fromtimestamp(float(posix_seconds), tz=timezone.utc)
    return dt.isoformat().removesuffix("+00:00") + "Z"


def from_rfc3339(text: str) -> float:
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()
