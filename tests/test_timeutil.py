"""The one grammar of a text time, RFC 3339 §5.6 date-time, read alike on
every supported Python."""

import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capaminer.timeutil import _DATE_TIME, WRITABLE, from_rfc3339, to_rfc3339

US_2020 = 1577836800 * 10**6  # 2020-01-01T00:00:00Z in microseconds

# text that is not RFC 3339: 3.11's fromisoformat reads the first three,
# 3.10's rejects them, and both read the rest as UTC
NOT_RFC3339 = [
    "2020-W01-1",  # an ISO week date
    "20200101T000000Z",  # the ISO 8601 basic format
    "2020-01-01T00:00:00+01",  # an offset with no minutes
    "2020-01-01X00:00:00Z",  # a separator other than T, t or a space
    "2020-01-01T00:00Z",  # no seconds
    "2020-01-01T00:00:00",  # no offset
    "2020-01-01",  # a date only
    "2020-01-01T00:00:00+0100",  # ±HHMM
    "2020-01-01T00:00:00-0000",
    "2020-01-01T00:00:60Z",  # a leap second, which POSIX time cannot hold
    "2020-01-01T00:00:00+00:60",  # minute 60 of an offset
    "2020-01-01T00:00:00+24:00",
    "2020-02-30T00:00:00Z",  # off the calendar
    "2020-01-01T24:00:00Z",  # off the clock
    "2020-01-01T00:00:00.Z",  # a point with no digit
    "0000-01-01T00:00:00Z",  # year 0
    "2020-01-01T00:00:00Z trailing",
    "٢٠٢٠-01-01T00:00:00Z",  # digits that are not ASCII
    "",
]

ACCEPTED = [  # (text, microseconds since the epoch)
    ("2020-01-01T00:00:00Z", US_2020),
    ("2020-01-01T00:00:00.5Z", US_2020 + 500000),
    # a fraction past six digits is cut, not rounded
    ("2020-01-01T00:00:00.1234567Z", US_2020 + 123456),
    ("2020-01-01T00:00:00.9999999Z", US_2020 + 999999),
    ("2020-01-01t00:00:00z", US_2020),
    ("2020-01-01 00:00:00Z", US_2020),
    ("2020-01-01T00:00:00-00:00", US_2020),
    ("2020-01-01T00:00:00+23:59", US_2020 - 86340 * 10**6),
    ("2020-01-01T00:00:00-23:59", US_2020 + 86340 * 10**6),
    (" 2020-01-01T01:02:03+01:00\n", US_2020 + 123 * 10**6),
]


class TestGrammar:
    @pytest.mark.parametrize("text", NOT_RFC3339)
    def test_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"is not an RFC 3339 date: {text!r}") + "$"):
            from_rfc3339(text)

    @pytest.mark.parametrize("text, microseconds", ACCEPTED)
    def test_accepted(self, text, microseconds):
        assert from_rfc3339(text) == microseconds / 10**6

    @given(st.dates(), st.times(), st.text("0123456789", max_size=9),
           st.sampled_from("Tt "),
           st.one_of(st.sampled_from("Zz"), st.integers(-(24 * 60 - 1), 24 * 60 - 1)))
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    def test_generated_texts(self, date, time, fraction, sep, offset):
        minutes = 0 if isinstance(offset, str) else offset
        zone = offset if isinstance(offset, str) else (
            f"{'-' if offset < 0 else '+'}{abs(offset) // 60:02d}:{abs(offset) % 60:02d}")
        text = (f"{date.isoformat()}{sep}{time.strftime('%H:%M:%S')}"
                f"{'.' + fraction if fraction else ''}{zone}")
        expected = datetime(date.year, date.month, date.day, time.hour, time.minute,
                            time.second, int(fraction[:6].ljust(6, "0")),
                            timezone(timedelta(minutes=minutes))).timestamp()
        if WRITABLE[0](expected):
            assert from_rfc3339(text) == expected
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"must be {WRITABLE[1]}, got {text!r}") + "$"):
                from_rfc3339(text)

    @given(st.floats(-62135596800, 253402300800, exclude_max=True))
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    def test_written_times_read_back(self, t):
        text = to_rfc3339(t)
        assert _DATE_TIME.fullmatch(text)
        # to_rfc3339 writes whole microseconds, rounded as fromtimestamp rounds
        assert from_rfc3339(text) == datetime.fromtimestamp(t, tz=timezone.utc).timestamp()
