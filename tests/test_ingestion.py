import json
import re
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from capaminer.classifier import FEATURE_ORDER, encode
from capaminer import ingestion
from capaminer.errors import (
    AuthError,
    IncompleteRecord,
    NotFound,
    RadarError,
    RateLimited,
)
from capaminer.ingestion import (
    FixtureAdapter,
    LiveGitHubAdapter,
    Radar,
    RadarConfig,
    RadarState,
    RepoRef,
    RepoStatus,
    load_metrics_csv,
    load_prs_jsonl,
)
from capaminer.timeutil import from_rfc3339
from capaminer.tsdist import MetricSeries

FIXTURE_PRS = Path(__file__).resolve().parent.parent / "fixtures" / "prs.jsonl"


CSV_HEADER_LINE = "repo_id,timestamp,lines_added,lines_deleted,lines_changed\n"
GOOD_CSV = (
    CSV_HEADER_LINE +
    "org/a,2020-01-02T00:00:00Z,5,1,6\n"
    "org/a,2020-01-01T00:00:00Z,3,2,5\n"
    "org/b,2020-01-01T00:00:00Z,7,0,7\n"
)


class TestMetricsCsv:
    def test_groups_and_sorts(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV)
        series = load_metrics_csv(p)
        # 2 repos x 3 metrics
        assert len(series) == 6
        by = {(s.repo_id, s.metric_name): s for s in series}
        a = by[("org/a", "lines_added")]
        np.testing.assert_array_equal(a.values, [3.0, 5.0])  # sorted by time
        assert by[("org/b", "lines_changed")].values.tolist() == [7.0]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("repo_id,timestamp,lines_added\norg/a,2020-01-01T00:00:00Z,1\n")
        with pytest.raises(ValueError, match="^missing column\\(s\\): lines_deleted, "
                                             "lines_changed$"):
            load_metrics_csv(p)

    def test_repeated_column(self, tmp_path):
        # the second lines_added column would be read as nothing
        p = tmp_path / "m.csv"
        p.write_text("repo_id,timestamp,lines_added,lines_deleted,lines_changed,lines_added\n"
                     "org/a,2020-01-01T00:00:00Z,1,2,3,4\n")
        with pytest.raises(ValueError, match="^the header: repeated column\\(s\\): "
                                             "lines_added$"):
            load_metrics_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="^empty file, no header$"):
            load_metrics_csv(p)

    def test_non_numeric_value_names_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "repo_id,timestamp,lines_added,lines_deleted,lines_changed\n"
            "org/a,2020-01-01T00:00:00Z,1,2,3\n"
            "org/a,2020-01-02T00:00:00Z,oops,2,3\n")
        with pytest.raises(ValueError, match="^non-finite value at row 2$"):
            load_metrics_csv(p)

    def test_short_row_names_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV + "org/a,2020-01-03T00:00:00Z,1.0\n")
        with pytest.raises(ValueError, match="^row 4 has 3 cells, the header 5$"):
            load_metrics_csv(p)

    def test_long_row_names_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV + "org/a,2020-01-03T00:00:00Z,1,2,3,4\n")
        with pytest.raises(ValueError, match="^row 4 has 6 cells, the header 5$"):
            load_metrics_csv(p)

    @pytest.mark.parametrize("lines, where", [
        ([GOOD_CSV, f"{'r' * 200_000},2020-01-03T00:00:00Z,1,2,3\n"], "row 4"),
        ([CSV_HEADER_LINE.replace("repo_id", "r" * 200_000)], "the header"),
    ], ids=["row", "header"])
    def test_cell_past_the_field_limit_names_row(self, tmp_path, lines, where):
        # csv rejects a cell longer than csv.field_size_limit(), 131072
        p = tmp_path / "m.csv"
        p.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{where}: field larger than "
                                             r"field limit \(131072\)$"):
            load_metrics_csv(p)

    def test_repeated_instant_names_repo_and_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV + "org/a,2020-01-01T00:00:00Z,3,2,5\n")
        with pytest.raises(ValueError, match="^row 4 of org/a is 0 s after row 2, "
                                             "not the file's step of 86400 s$"):
            load_metrics_csv(p)

    def test_gap_names_repo_and_row(self, tmp_path):
        # org/a steps one day, org/b two
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV + "org/b,2020-01-03T00:00:00Z,1,1,2\n")
        with pytest.raises(ValueError, match="^row 4 of org/b is 172800 s after "
                                             "row 3, not the file's step of 86400 s$"):
            load_metrics_csv(p)

    def test_repeated_instant_without_a_step(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV.replace("01-02", "01-01"))
        with pytest.raises(ValueError, match="^row 2 of org/a is 0 s after row 1, "
                                             "not a step above 0 s$"):
            load_metrics_csv(p)

    def test_one_step_out_of_order(self, tmp_path):
        # out-of-order rows on one grid load; each repo may start anywhere
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV + "org/b,2019-12-31T00:00:00Z,1,1,2\n"
                     "org/a,2020-01-03T00:00:00Z,1,1,2\n")
        by = {s.repo_id: s.timestamps for s in load_metrics_csv(p)}
        assert np.diff(by["org/a"]).tolist() == [86400.0, 86400.0]
        assert np.diff(by["org/b"]).tolist() == [86400.0]

    def test_bad_timestamp_names_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV.replace("2020-01-01T00:00:00Z,7", "notadate,7"))
        with pytest.raises(ValueError, match="^timestamp at row 3 is not an "
                                             "RFC 3339 date: 'notadate'$"):
            load_metrics_csv(p)

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+23:00",
                                       "9999-12-31T23:59:59-01:00"])
    def test_timestamp_outside_years_1_to_9999_names_row(self, tmp_path, stamp):
        # the times that RFC 3339 writes back, as for pull-request dates
        p = tmp_path / "m.csv"
        p.write_text(GOOD_CSV.replace("2020-01-01T00:00:00Z,7", f"{stamp},7"))
        with pytest.raises(ValueError, match=re.escape(
                f"timestamp at row 3 must be a time in years 0001 to 9999 UTC, "
                f"got {stamp!r}")):
            load_metrics_csv(p)

    def test_timestamps_of_years_1_and_9999_load(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(CSV_HEADER_LINE + "org/a,0001-01-01T00:00:00Z,1,2,3\n"
                     "org/b,9999-12-31T23:59:59Z,1,2,3\n")
        by = {s.repo_id: s.timestamps.tolist() for s in load_metrics_csv(p)}
        assert by == {"org/a": [-62135596800.0], "org/b": [253402300799.0]}

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "repo_id,timestamp,lines_added,lines_deleted,lines_changed\n"
            "org/a,2020-01-01T00:00:00Z,nan,2,3\n")
        with pytest.raises(ValueError, match="^non-finite value at row 1$"):
            load_metrics_csv(p)


class TestPrsJsonl:
    def test_loads_records(self, tmp_path):
        p = tmp_path / "prs.jsonl"
        p.write_text(
            json.dumps({"repo_id": "org/a", "pr_id": "1",
                        "creation_date": "2020-01-01T00:00:00Z",
                        "number_of_commits": 3, "text": "fix build"}) + "\n"
            + "\n"  # blank lines skipped
            + json.dumps({"repo_id": "org/a", "pull_request_number": 2,
                          "title": "add", "body": "feature",
                          "creation_date": "2020-01-02T00:00:00Z"}) + "\n")
        prs = load_prs_jsonl(p)
        assert len(prs) == 2
        assert prs.values[0, FEATURE_ORDER.index("number_of_commits")] == 3
        assert prs.texts[0] == "fix build"
        # title/body concatenated when text absent; pr number fallback id
        assert prs.texts[1] == "add feature"
        assert prs.pr_ids[1] == "2"

    def test_null_pr_id_is_absent(self, tmp_path):
        p = tmp_path / "prs.jsonl"
        base = {"repo_id": "org/a", "creation_date": "2020-01-01T00:00:00Z"}
        p.write_text("".join(json.dumps({**base, **ids}) + "\n" for ids in [
            {"pr_id": None, "pull_request_number": 7},
            {"pr_id": None, "pull_request_number": None},
            {"pr_id": None},
            {"pr_id": "x", "pull_request_number": 9},
        ]))
        assert load_prs_jsonl(p).pr_ids == ["7", "2", "3", "x"]

    @pytest.mark.parametrize("ids, key", [
        ({"pr_id": True}, "pr_id"), ({"pr_id": [1]}, "pr_id"),
        ({"pr_id": 12.0}, "pr_id"),
        ({"pr_id": None, "pull_request_number": 12.5}, "pull_request_number"),
    ])
    def test_pr_id_is_a_string_or_an_integer(self, tmp_path, ids, key):
        p = tmp_path / "prs.jsonl"
        line = {"repo_id": "org/a", "creation_date": "2020-01-01T00:00:00Z"}
        p.write_text(json.dumps(line) + "\n" + json.dumps({**line, **ids}) + "\n")
        value = next(v for v in ids.values() if v is not None)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"line 2: {key} must be a string or an integer, got {value!r}")):
            load_prs_jsonl(p)

    @pytest.mark.parametrize("first, second", [
        ({"pr_id": "5"}, {"pr_id": "5"}),
        ({"pr_id": None, "pull_request_number": 5}, {"pr_id": "5"}),
        ({"pull_request_number": 3}, {}),  # line 3 of a file without ids
    ])
    def test_repeated_pr_id_names_both_lines(self, tmp_path, first, second):
        p = tmp_path / "prs.jsonl"
        base = {"repo_id": "org/a", "creation_date": "2020-01-01T00:00:00Z"}
        p.write_text("".join(json.dumps({**base, **ids}) + "\n" for ids in [
            first, {"repo_id": "org/b", **first}, second]))
        with pytest.raises(ValueError, match="^line 3: pull request '[35]' of "
                                             "'org/a' repeats line 1$"):
            load_prs_jsonl(p)

    def test_unknown_fields_ignored(self, tmp_path, caplog):
        p = tmp_path / "prs.jsonl"
        p.write_text(json.dumps({
            "repo_id": "org/a", "creation_date": "2020-01-01T00:00:00Z",
            "mystery_field": 9}) + "\n")
        with caplog.at_level("INFO", logger="capaminer.ingestion"):
            prs = load_prs_jsonl(p)
        assert len(prs) == 1
        assert "line 1: ignoring unknown fields ['mystery_field']" in caplog.text

    def test_bad_json_names_line(self, tmp_path):
        p = tmp_path / "prs.jsonl"
        p.write_text('{"repo_id": "org/a", "creation_date": '
                     '"2020-01-01T00:00:00Z"}\n{oops\n')
        with pytest.raises(ValueError, match="^malformed JSON at line 2$"):
            load_prs_jsonl(p)

    def test_deeply_nested_json_names_line(self, tmp_path):
        # json.loads ends in a RecursionError long before the array closes
        p = tmp_path / "prs.jsonl"
        p.write_text('{"repo_id": "org/a", "creation_date": '
                     '"2020-01-01T00:00:00Z"}\n' + "[" * 100_000 + "\n")
        with pytest.raises(ValueError, match="^malformed JSON at line 2$"):
            load_prs_jsonl(p)

    def test_integer_past_the_digit_limit_names_line(self, tmp_path):
        # int() refuses more than 4300 digits, by a ValueError that is not
        # a JSONDecodeError
        good = '{"repo_id": "org/a", "pr_id": "%d", "creation_date": "2020-01-01T00:00:00Z"}\n'
        p = tmp_path / "prs.jsonl"
        p.write_text("".join(good % i for i in range(5))
                     + '{"repo_id": "org/a", "number_of_comments": ' + "9" * 5000 + "}\n")
        with pytest.raises(ValueError, match="^malformed JSON at line 6$"):
            load_prs_jsonl(p)

    @pytest.mark.parametrize("field, value", [
        # booleans take only true/false
        ("locked_state", "false"), ("merged_state", "no"),
        ("pull_request_state", 1),
        # counts take no booleans and no non-finite numbers
        ("number_of_commits", True), ("number_of_commits", False),
        ("number_of_additions", float("nan")),
        ("number_of_additions", float("inf")),
        # timestamps take no booleans
        ("closure_date", True), ("closure_date", False),
        # text and repo_id are strings
        ("text", 5), ("text", 0), ("text", False), ("repo_id", 7), ("repo_id", None),
    ])
    def test_wrongly_typed_field_names_line_and_field(self, tmp_path, field, value):
        good = {"repo_id": "org/a", "creation_date": "2020-01-01T00:00:00Z"}
        p = tmp_path / "prs.jsonl"
        p.write_text(json.dumps(good) + "\n"
                     + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ValueError, match=f"^line 2: {field} "):
            load_prs_jsonl(p)

    @pytest.mark.parametrize("parts, text", [
        ({"title": "fix ci", "body": None}, "fix ci"),
        ({"title": None, "body": "add docs"}, "add docs"),
        ({"title": "fix ci"}, "fix ci"),
        ({"title": None, "body": None}, ""),
        ({"text": None, "title": "fix ci", "body": "now"}, "fix ci now"),
    ])
    def test_absent_or_null_title_and_body_add_nothing(self, tmp_path, parts, text):
        p = tmp_path / "prs.jsonl"
        p.write_text(json.dumps({"repo_id": "org/a",
                                 "creation_date": "2020-01-01T00:00:00Z", **parts}) + "\n")
        assert load_prs_jsonl(p).texts == [text]

    @pytest.mark.parametrize("field, value", [
        ("title", 5), ("title", False), ("body", ["fix ci"]), ("body", 0),
    ])
    def test_non_string_title_or_body_names_line_and_field(self, tmp_path, field, value):
        p = tmp_path / "prs.jsonl"
        p.write_text(json.dumps({"repo_id": "org/a", "title": "fix ci",
                                 "creation_date": "2020-01-01T00:00:00Z",
                                 field: value}) + "\n")
        with pytest.raises(ValueError, match=f"^line 1: {field} must be a string, got "):
            load_prs_jsonl(p)

    def test_missing_creation_date(self, tmp_path):
        p = tmp_path / "prs.jsonl"
        p.write_text(json.dumps({"repo_id": "org/a"}) + "\n")
        with pytest.raises(ValueError, match="^line 1: creation_date missing$"):
            load_prs_jsonl(p)

    @pytest.mark.parametrize("defects, error", [
        ({2: '{"repo_id": "org/a", "number_of_commits": -1, '
             '"creation_date": "2020-01-01T00:00:00Z"}', 4: "{oops"},
         "^line 2: number_of_commits must be non-negative"),
        ({2: "{oops", 4: '{"repo_id": "org/a", "number_of_commits": -1, '
                         '"creation_date": "2020-01-01T00:00:00Z"}'},
         "^malformed JSON at line 2$"),
    ], ids=["bad-count-first", "bad-json-first"])
    def test_the_earlier_of_two_defects_is_reported(self, tmp_path, defects, error):
        good = {"repo_id": "org/a", "creation_date": "2020-01-01T00:00:00Z"}
        p = tmp_path / "prs.jsonl"
        p.write_text("".join(defects.get(n, json.dumps({**good, "pr_id": str(n)}))
                             + "\n" for n in range(1, 6)))
        with pytest.raises(ValueError, match=error):
            load_prs_jsonl(p)

    def test_fixture_table_matches_its_lines(self):
        lines = FIXTURE_PRS.read_text().splitlines()
        prs = load_prs_jsonl(FIXTURE_PRS)
        assert len(prs) == len(lines) == prs.values.shape[0]
        assert prs.values.shape[1] == len(FEATURE_ORDER)
        created = prs.values[:, FEATURE_ORDER.index("creation_date")]
        assert created.tolist() == [
            from_rfc3339(json.loads(line)["creation_date"]) for line in lines]

    def test_fixture_adapter_objects_are_checked(self):
        adapter = FixtureAdapter(prs=[{"repo_id": "org/a", "creation_date": "x"}])
        with pytest.raises(ValueError, match="^pull request 1: creation_date is not "
                                             "an RFC 3339 date: 'x'$"):
            adapter.fetch_pull_requests("org/a")


def fixture_adapter(n_repos=3):
    series = []
    prs = []
    for i in range(n_repos):
        repo = f"org/r{i}"
        series.append(MetricSeries(repo, "lines_added",
                                   np.arange(5.0), np.arange(5.0) + i))
        prs.append({"repo_id": repo, "creation_date": 100.0 * i,
                    "pr_id": f"{i}", "text": "fix build"})
    return FixtureAdapter(series=series, prs=prs)


class TestRadarLifecycle:
    def test_poll_then_collect(self):
        radar = Radar(RadarConfig(adapter=fixture_adapter(2)))
        assert radar.state is RadarState.INITIALIZED
        new = radar.poll_new()
        assert [r.repo_id for r in new] == ["org/r0", "org/r1"]
        assert radar.status() == {"org/r0": RepoStatus.PENDING,
                                  "org/r1": RepoStatus.PENDING}
        assert radar.collect("org/r0")
        assert radar.status()["org/r0"] is RepoStatus.DONE
        series, prs = radar.result("org/r0")
        assert len(series) == 1 and len(prs) == 1

    def test_double_collect_rejected(self):
        radar = Radar(RadarConfig(adapter=fixture_adapter(1)))
        radar.poll_new()
        radar.collect("org/r0")
        with pytest.raises(RadarError):
            radar.collect("org/r0")

    def test_unknown_repo_rejected(self):
        radar = Radar(RadarConfig(adapter=fixture_adapter(1)))
        with pytest.raises(RadarError):
            radar.collect("org/other")

    def test_fetch_failure_marks_failed(self):
        adapter = fixture_adapter(1)

        def boom(repo_id):
            raise RuntimeError("backend down")

        adapter.fetch_commit_metrics = boom
        radar = Radar(RadarConfig(adapter=adapter))
        radar.poll_new()
        assert radar.collect("org/r0") is False
        assert radar.status()["org/r0"] is RepoStatus.FAILED
        assert "backend down" in radar.failure_reason("org/r0")

    def test_defective_pull_request_names_its_place(self):
        adapter = FixtureAdapter(prs=[{"repo_id": "org/a", "creation_date": "x"}])
        radar = Radar(RadarConfig(adapter=adapter))
        radar.poll_new()
        assert radar.collect("org/a") is False
        assert radar.failure_reason("org/a") == (
            "pull request 1: creation_date is not an RFC 3339 date: 'x'")

    def test_start_stop_lifecycle(self):
        radar = Radar(RadarConfig(adapter=fixture_adapter(3),
                                  poll_interval_seconds=0.01, workers=2))
        radar.start()
        assert radar.state is RadarState.RUNNING
        assert radar.drain(timeout=5.0)
        assert radar.stop() == "Stopped"
        assert radar.stop() == "AlreadyStopped"
        assert radar.state is RadarState.STOPPED
        with pytest.raises(RadarError):
            radar.start()
        assert all(s is RepoStatus.DONE for s in radar.status().values())

    def test_at_most_once_with_competing_workers(self):
        # an adapter that records every fetch; competing threads claim work
        calls = []
        lock = threading.Lock()
        adapter = fixture_adapter(20)
        orig = adapter.fetch_commit_metrics

        def counted(repo_id):
            with lock:
                calls.append(repo_id)
            return orig(repo_id)

        adapter.fetch_commit_metrics = counted
        radar = Radar(RadarConfig(adapter=adapter, workers=4,
                                  poll_interval_seconds=0.01))
        radar.start()
        assert radar.drain(timeout=5.0)
        radar.stop()
        assert sorted(calls) == sorted(set(calls))  # no repo fetched twice
        assert len(calls) == 20

    def test_poll_enqueues_each_repo_once(self):
        adapter = fixture_adapter(3)
        adapter.list_new_repos = lambda: [RepoRef(f"org/r{i}") for i in range(3)]
        radar = Radar(RadarConfig(adapter=adapter))
        for _ in range(3):
            radar.poll_new()  # the adapter announces every repo every time
        assert radar._pending.qsize() == 3

    def test_worker_skips_repo_collected_directly(self):
        calls = []
        adapter = fixture_adapter(3)
        orig = adapter.fetch_commit_metrics
        adapter.fetch_commit_metrics = lambda r: calls.append(r) or orig(r)
        radar = Radar(RadarConfig(adapter=adapter, workers=2))
        radar.poll_new()
        assert radar.collect("org/r1")  # still queued for the workers
        radar.start()
        assert radar.drain(timeout=5.0)
        radar.stop()
        assert sorted(calls) == ["org/r0", "org/r1", "org/r2"]
        assert all(s is RepoStatus.DONE for s in radar.status().values())

    def test_direct_collects_race_workers_at_most_once(self):
        calls = []
        lock = threading.Lock()
        adapter = fixture_adapter(50)
        orig = adapter.fetch_commit_metrics

        def counted(repo_id):
            with lock:
                calls.append(repo_id)
            return orig(repo_id)

        adapter.fetch_commit_metrics = counted
        radar = Radar(RadarConfig(adapter=adapter, workers=8,
                                  poll_interval_seconds=60.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            radar.start()
            for i in range(50):
                try:
                    radar.collect(f"org/r{i}")
                except RadarError:
                    pass  # a worker claimed it first
            assert radar.drain(timeout=10.0)
        finally:
            radar.stop()
            sys.setswitchinterval(interval)
        assert sorted(calls) == sorted(f"org/r{i}" for i in range(50))

    def test_stop_wakes_idle_workers(self):
        radar = Radar(RadarConfig(adapter=fixture_adapter(0), workers=3,
                                  poll_interval_seconds=60.0))
        radar.start()
        threads = [radar._poller, *radar._workers]
        t0 = time.monotonic()
        assert radar.stop() == "Stopped"
        assert time.monotonic() - t0 < 5.0
        assert not any(t.is_alive() for t in threads)

    def test_drain_times_out_while_work_is_open(self):
        release = threading.Event()
        adapter = fixture_adapter(1)
        orig = adapter.fetch_commit_metrics
        adapter.fetch_commit_metrics = lambda r: release.wait(5.0) and orig(r)
        radar = Radar(RadarConfig(adapter=adapter))
        radar.start()
        assert radar.drain(timeout=0.05) is False
        release.set()
        assert radar.drain(timeout=5.0)
        radar.stop()


class FakeResponse:
    def __init__(self, status_code=200, body=None, headers=None):
        self.status_code = status_code
        self._body = body if body is not None else []
        self.headers = headers or {}

    def json(self):
        return self._body

    def raise_for_status(self):
        if self.status_code >= 400:
            raise RuntimeError(f"http {self.status_code}")


class FakeSession:
    """Replays a canned transcript of responses in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def get(self, url, params=None, headers=None):
        self.requests.append((url, dict(params or {})))
        return self.responses.pop(0)


def pull_detail(number, **counts):
    """GET /pulls/{number}: the list item's fields plus the six counts."""
    base = {"additions": 10, "deletions": 4, "commits": 2, "changed_files": 3,
            "comments": 1, "review_comments": 5}
    return {"number": number, **base, **counts}


def commit(day, additions, deletions):
    return {"commit": {"author": {"date": f"2020-01-{day:02d}T00:00:00Z"}},
            "stats": {"additions": additions, "deletions": deletions}}


class TestLiveAdapter:
    def test_requires_token(self):
        with pytest.raises(AuthError):
            LiveGitHubAdapter(token="", repos=[])

    def test_commit_history_becomes_series(self):
        session = FakeSession([
            FakeResponse(200, [commit(3, 10, 2), commit(1, 5, 1),
                               commit(2, 7, 3)]),
        ])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        series = adapter.fetch_commit_metrics("org/a")
        by = {s.metric_name: s for s in series}
        assert by["lines_added"].values.tolist() == [5.0, 7.0, 10.0]
        assert by["lines_deleted"].values.tolist() == [1.0, 3.0, 2.0]
        assert by["lines_changed"].values.tolist() == [6.0, 10.0, 12.0]
        assert len(by["lines_added"]) == 3

    def test_unauthorized(self):
        session = FakeSession([FakeResponse(401)])
        adapter = LiveGitHubAdapter("bad", ["org/a"], session=session)
        with pytest.raises(AuthError):
            adapter.fetch_commit_metrics("org/a")

    def test_not_found(self):
        session = FakeSession([FakeResponse(404)])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        with pytest.raises(NotFound):
            adapter.fetch_commit_metrics("org/gone")

    def test_rate_limit_backoff_then_success(self):
        sleeps = []
        session = FakeSession([
            FakeResponse(403, headers={"Retry-After": "2"}),
            FakeResponse(429),
            FakeResponse(200, [commit(1, 1, 1)]),
        ])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session,
                                    sleep=sleeps.append)
        series = adapter.fetch_commit_metrics("org/a")
        assert len(series) == 3
        assert sleeps[0] == 2.0  # honored Retry-After
        assert sleeps[1] == 2.0  # doubled base delay

    def test_rate_limit_reset_is_an_epoch_time(self, monkeypatch):
        monkeypatch.setattr(ingestion, "time", SimpleNamespace(time=lambda: 1000.0))
        sleeps = []
        limited = {"X-RateLimit-Remaining": "0"}
        session = FakeSession([
            FakeResponse(403, headers={**limited, "X-RateLimit-Reset": "1012"}),
            FakeResponse(403, headers={**limited, "X-RateLimit-Reset": "5000"}),
            FakeResponse(429, headers={"X-RateLimit-Reset": "900"}),
            FakeResponse(200, [commit(1, 1, 1)]),
        ])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session,
                                    sleep=sleeps.append)
        assert len(adapter.fetch_commit_metrics("org/a")) == 3
        assert sleeps == [12.0, 60.0, 0.0]  # reset - now, within [0, 60]

    def test_forbidden_without_rate_limit_is_auth_error(self):
        sleeps = []
        session = FakeSession([
            FakeResponse(403, headers={"X-RateLimit-Remaining": "4999"}),
            FakeResponse(200, [commit(1, 1, 1)]),
        ])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session,
                                    sleep=sleeps.append)
        with pytest.raises(AuthError):
            adapter.fetch_commit_metrics("org/a")
        assert len(session.requests) == 1 and sleeps == []

    def test_commit_without_stats_fetches_the_commit(self):
        listed = {"sha": "abc", "commit": commit(2, 0, 0)["commit"]}
        session = FakeSession([
            FakeResponse(200, [commit(1, 5, 1), listed]),
            FakeResponse(200, {"sha": "abc", **commit(2, 7, 3)}),
        ])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        by = {s.metric_name: s for s in adapter.fetch_commit_metrics("org/a")}
        assert by["lines_added"].values.tolist() == [5.0, 7.0]
        assert by["lines_deleted"].values.tolist() == [1.0, 3.0]
        assert session.requests[1][0].endswith("/repos/org/a/commits/abc")

    def test_commit_stats_missing_everywhere_raises(self):
        listed = {"sha": "abc", "commit": commit(1, 0, 0)["commit"]}
        session = FakeSession([
            FakeResponse(200, [listed]),
            FakeResponse(200, {"sha": "abc", "commit": listed["commit"]}),
        ])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        with pytest.raises(IncompleteRecord, match="abc"):
            adapter.fetch_commit_metrics("org/a")

    def test_rate_limit_exhausted(self):
        session = FakeSession([FakeResponse(429)] * 3)
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session,
                                    max_retries=2, sleep=lambda s: None)
        with pytest.raises(RateLimited):
            adapter.fetch_commit_metrics("org/a")

    def test_pull_request_pagination(self):
        page1 = [{"number": i, "title": f"pr {i}", "state": "closed",
                  "created_at": "2020-01-01T00:00:00Z"} for i in range(100)]
        page2 = [{"number": 100 + i, "title": f"pr {100 + i}", "state": "open",
                  "created_at": "2020-01-02T00:00:00Z"} for i in range(100)]
        session = FakeSession([
            FakeResponse(200, page1),
            FakeResponse(200, page2),
            FakeResponse(200, []),
        ] + [FakeResponse(200, pull_detail(i)) for i in range(200)])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        prs = adapter.fetch_pull_requests("org/a")
        assert len(prs) == 200
        assert prs.pr_ids[0] == "0"
        assert prs.pr_ids[-1] == "199"
        pages = [p["page"] for _, p in session.requests if "page" in p]
        assert pages == [1, 2, 3]

    def test_pull_request_counts_come_from_the_detail_record(self):
        # list items as GET /pulls returns them: no counts
        listed = [{"number": n, "title": f"pr {n}", "state": "closed",
                   "created_at": "2020-01-01T00:00:00Z"} for n in (8, 3)]
        session = FakeSession([
            FakeResponse(200, listed),
            FakeResponse(200, pull_detail(3, additions=7, changed_files=0)),
            FakeResponse(200, pull_detail(8)),
        ])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        prs = adapter.fetch_pull_requests("org/a")
        assert [url for url, _ in session.requests[1:]] == [
            "https://api.github.com/repos/org/a/pulls/3",
            "https://api.github.com/repos/org/a/pulls/8"]
        x = encode(prs.values, 0.0)[0]
        by = dict(zip(FEATURE_ORDER, x.tolist()))
        assert (by["number_of_additions"], by["number_of_deletions"],
                by["number_of_commits"], by["number_of_files"],
                by["number_of_file_changes"], by["number_of_comments"],
                by["number_of_review_comments"]) == (7, 4, 2, 0, 0, 1, 5)
        assert prs.values[1, FEATURE_ORDER.index("number_of_additions")] == 10

    def test_pull_request_detail_without_counts_raises(self):
        listed = [{"number": 4, "created_at": "2020-01-01T00:00:00Z"}]
        detail = pull_detail(4)
        del detail["commits"], detail["review_comments"]
        session = FakeSession([FakeResponse(200, listed),
                               FakeResponse(200, detail)])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        with pytest.raises(IncompleteRecord, match="4 has no commits, review_comments"):
            adapter.fetch_pull_requests("org/a")

    def test_pull_request_defect_names_its_number(self):
        listed = [{"number": 4, "title": "fix ci"}]  # no created_at
        session = FakeSession([FakeResponse(200, listed),
                               FakeResponse(200, pull_detail(4))])
        adapter = LiveGitHubAdapter("tok", ["org/a"], session=session)
        with pytest.raises(ValueError, match="^pull request 4: creation_date missing$"):
            adapter.fetch_pull_requests("org/a")

    def test_repo_announcement_is_incremental(self):
        adapter = LiveGitHubAdapter("tok", ["org/a", "org/b"],
                                    session=FakeSession([]))
        assert [r.repo_id for r in adapter.list_new_repos()] == ["org/a", "org/b"]
        assert adapter.list_new_repos() == []


class TestRepoRef:
    def test_requires_id(self):
        with pytest.raises(ValueError):
            RepoRef("")
