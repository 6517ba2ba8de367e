"""Data collection: the metrics and pull-request schemas, fixture loaders,
the radar work queue, and an optional live GitHub-style source adapter.

The radar watches a source adapter for newly visible repositories, queues
them, and lets a bounded worker pool collect their metric series and pull
requests.  Claims are atomic, so each repository is processed at most once.
"""

from __future__ import annotations

import csv
import enum
import json
import logging
import math
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import timeutil
from .errors import (
    NUMBER,
    TEXT,
    AuthError,
    IncompleteRecord,
    NotFound,
    RadarError,
    RateLimited,
    need,
)
from .tsdist import MetricSeries

log = logging.getLogger(__name__)

METRIC_COLUMNS = ["lines_added", "lines_deleted", "lines_changed"]
CSV_HEADER = ["repo_id", "timestamp"] + METRIC_COLUMNS

# The 27 pull-request metrics, in fixed table order.
FEATURE_ORDER = [
    "number_of_comments",
    "number_of_commits",
    "number_of_files",
    "number_of_issue_comments",
    "number_of_issue_events",
    "number_of_labels",
    "number_of_review_comments",
    "number_of_review_requests",
    "number_of_reviewers",
    "number_of_additions",
    "closure_date",
    "creation_date",
    "number_of_deletions",
    "locked_state",
    "merged_state",
    "merged_date",
    "milestone_status",
    "milestone_closure_date",
    "number_of_milestone_closed_issues",
    "milestone_creation_date",
    "milestone_due_on_date",
    "milestone_state",
    "pull_request_number",
    "pull_request_state",
    "update_date",
    "number_of_participants",
    "number_of_file_changes",
]
TIMESTAMP_FIELDS = {
    "closure_date", "creation_date", "merged_date", "milestone_closure_date",
    "milestone_creation_date", "milestone_due_on_date", "update_date",
}
BOOLEAN_FIELDS = {
    "locked_state", "merged_state", "milestone_status", "milestone_state",
    "pull_request_state",
}
COUNT_FIELDS = set(FEATURE_ORDER) - TIMESTAMP_FIELDS - BOOLEAN_FIELDS

# the value of an absent field: below every count, boolean and time after
# 1970-01-01, though -1 s is itself 1969-12-31T23:59:59Z
MISSING = -1.0

PR_KNOWN_EXTRA = {"repo_id", "pr_id", "text", "title", "body"}
PR_ID = (lambda v: type(v) in (str, int), "a string or an integer")
# counts GitHub returns only from GET /repos/{repo}/pulls/{number}
PR_DETAIL_COUNTS = ("additions", "deletions", "commits", "changed_files",
                    "comments", "review_comments")


def load_metrics_csv(path):
    """Load the commit-metric CSV into one MetricSeries per (repo, metric).

    Rows are grouped by repo and sorted by timestamp; out-of-order input is
    tolerated, but gaps are not filled.  A missing header, a missing or
    repeated column, a row with more or fewer cells than the header, a
    timestamp that is not RFC 3339 or lies outside the years 0001 to 9999
    UTC, a value that does not parse as a finite number, a row that is not
    one step after its repo's previous row, or a row that csv cannot split
    (a cell past csv.field_size_limit()) raises ValueError, naming the
    1-based data row, or the header; a series with values too large to
    z-normalize (see MetricSeries) raises one naming the metric and repo.
    The step, one for the whole file, is the least positive time between
    two consecutive rows of a repo, so a repeated instant or a gap is off it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, header, row_no = csv.reader(fh), None, 0  # row_no: the last row read
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file, no header")
            if missing := [c for c in CSV_HEADER if c not in header]:
                raise ValueError(f"missing column(s): {', '.join(missing)}")
            if repeated := [c for c in CSV_HEADER if header.count(c) > 1]:
                raise ValueError(f"the header: repeated column(s): {', '.join(repeated)}")
            col = {name: header.index(name) for name in CSV_HEADER}
            per_repo, seconds = {}, {}  # seconds: of each stamp text, parsed once
            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"row {row_no} has {len(row)} cells, "
                                     f"the header {len(header)}")
                repo, stamp = row[col["repo_id"]], row[col["timestamp"]]
                if (ts := seconds.get(stamp)) is None:  # the rows of one instant share its text
                    try:
                        ts = seconds[stamp] = timeutil.from_rfc3339(stamp)
                    except ValueError as exc:
                        raise ValueError(f"timestamp at row {row_no} {exc}") from None
                vals = []
                for metric in METRIC_COLUMNS:
                    try:
                        v = float(row[col[metric]])
                    except ValueError:
                        v = math.nan
                    if not math.isfinite(v):
                        raise ValueError(f"non-finite value at row {row_no}")
                    vals.append(v)
                per_repo.setdefault(repo, []).append((ts, vals, row_no))
        except csv.Error as exc:  # a cell past csv.field_size_limit(), say
            where = "the header" if header is None else f"row {row_no + 1}"
            raise ValueError(f"{where}: {exc}") from None
    grids = {repo: sorted(per_repo[repo], key=lambda r: r[0]) for repo in sorted(per_repo)}
    steps = [(repo, a, b) for repo, rows in grids.items() for a, b in zip(rows, rows[1:])]
    step = min((b[0] - a[0] for _, a, b in steps if b[0] > a[0]), default=None)
    want = f"the file's step of {step:.15g} s" if step else "a step above 0 s"
    for repo, a, b in steps:
        if b[0] - a[0] != step:
            raise ValueError(f"row {b[2]} of {repo} is {b[0] - a[0]:.15g} s "
                             f"after row {a[2]}, not {want}")
    series = []
    for repo, rows in grids.items():
        ts = np.array([r[0] for r in rows])
        for mi, metric in enumerate(METRIC_COLUMNS):
            try:
                series.append(MetricSeries(
                    repo_id=repo, metric_name=metric, timestamps=ts,
                    values=np.array([r[1][mi] for r in rows])))
            except ValueError as exc:
                raise ValueError(f"{metric} of {repo}: {exc}") from None
    return series


def _coerce(name, raw) -> float:
    """One present PR field as its feature value, checked by its kind: a
    boolean a real bool, as 0 or 1; a timestamp RFC 3339 text
    (timeutil.from_rfc3339) or a number (errors.NUMBER) in years 0001 to
    9999 UTC, as POSIX seconds; a count a number >= 0."""
    if name in BOOLEAN_FIELDS:
        if not isinstance(raw, bool):
            raise ValueError(f"{name} must be true or false, got {raw!r}")
        return float(raw)
    if name in TIMESTAMP_FIELDS and isinstance(raw, str):
        try:
            return timeutil.from_rfc3339(raw)
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    if not NUMBER[0](raw):
        raise ValueError(f"{name} must be {NUMBER[1]}, got {raw!r}")
    if name in COUNT_FIELDS and raw < 0:
        raise ValueError(f"{name} must be non-negative, got {raw}")
    if name in TIMESTAMP_FIELDS and not timeutil.WRITABLE[0](raw):
        raise ValueError(f"{name} must be {timeutil.WRITABLE[1]}, got {raw!r}")
    return float(raw)


@dataclass
class PullRequests:
    """Pull requests as columns: lists of repo ids, PR ids and texts, and
    their feature matrix, rows x 27 values in FEATURE_ORDER (_coerce),
    MISSING where absent."""

    repo_ids: list
    pr_ids: list
    texts: list
    values: np.ndarray

    def __len__(self):
        return len(self.pr_ids)


def pull_requests(numbered, noun="line"):
    """The PullRequests of (n, object) pairs, each object checked as it
    comes, so the first defect in the input is the one reported: a metric
    of the wrong kind (_coerce), no creation_date, or a (repo_id, pr_id)
    seen before raises the ValueError "<noun> <n>: ...".  pr_id defaults to
    pull_request_number, then n, and text to title and body joined; unknown
    fields are ignored with a logged notice."""
    known = set(FEATURE_ORDER) | PR_KNOWN_EXTRA
    first, texts, rows = {}, [], []  # first: {(repo_id, pr_id): n}, in order
    for n, obj in numbered:
        where = f"{noun} {n}"
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: not a JSON object")
        unknown = set(obj) - known
        if unknown:
            log.info("%s: ignoring unknown fields %s", where, sorted(unknown))
        # the first id present, a null one being absent
        id_key = next((k for k in ("pr_id", "pull_request_number")
                       if obj.get(k) is not None), None)
        text, repo_id = obj.get("text"), obj.get("repo_id", "")
        try:
            pr_id = str(need(obj, {id_key: PR_ID})[id_key] if id_key else n)
            if text in (None, ""):  # any other non-string is rejected below
                parts = {k: obj[k] for k in ("title", "body") if obj.get(k) is not None}
                text = " ".join(need(parts, dict.fromkeys(parts, TEXT)).values()).strip()
            if obj.get("creation_date") is None:
                raise ValueError("creation_date missing")
            need({"repo_id": repo_id, "text": text}, {"repo_id": TEXT, "text": TEXT})
            rows.append([MISSING if (v := obj.get(name)) is None
                         else _coerce(name, v) for name in FEATURE_ORDER])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if (earlier := first.setdefault((repo_id, pr_id), n)) != n:
            raise ValueError(f"{where}: pull request {pr_id!r} of {repo_id!r} "
                             f"repeats {noun} {earlier}")
        texts.append(text)
    return PullRequests([r for r, _ in first], [p for _, p in first], texts,
                        np.array(rows, dtype=float).reshape(len(rows), len(FEATURE_ORDER)))


def load_prs_jsonl(path):
    """The PullRequests of a JSON-lines file, one object per non-blank
    line.  A line that json.loads cannot read raises the ValueError
    "malformed JSON at line <n>", n from 1, and the first line that
    pull_requests rejects raises its ValueError "line <n>: ..."."""
    def objects(fh):
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError):
                    # not JSON, nested too deep, or an integer of more
                    # digits than int converts (4300 by default)
                    raise ValueError(f"malformed JSON at line {line_no}") from None
                yield line_no, obj

    with open(path, encoding="utf-8-sig") as fh:
        return pull_requests(objects(fh))


@dataclass(frozen=True)
class RepoRef:
    repo_id: str

    def __post_init__(self):
        if not self.repo_id:
            raise ValueError("repo_id must be non-empty")


class RadarState(enum.Enum):
    INITIALIZED = "initialized"
    RUNNING = "running"
    STOPPED = "stopped"


class RepoStatus(enum.Enum):
    PENDING = "pending"
    IN_PROGRESS = "in_progress"
    DONE = "done"
    FAILED = "failed"


class SourceAdapter:
    """Behavioral contract for data sources; fetches must be idempotent.
    A subclass lists its repository ids in self._repos."""

    name = "abstract"
    _announced = 0  # how many of self._repos were announced

    def list_new_repos(self):
        new = self._repos[self._announced:]
        self._announced = len(self._repos)
        return [RepoRef(r) for r in new]

    def fetch_commit_metrics(self, repo_id):
        raise NotImplementedError

    def fetch_pull_requests(self, repo_id):
        raise NotImplementedError


class FixtureAdapter(SourceAdapter):
    """Serves a pre-loaded dataset to the radar; used by tests.  prs are
    pull-request objects as a prs.jsonl line holds them."""

    name = "fixture"

    def __init__(self, series=None, prs=None, repos=None):
        self._series = list(series or [])
        self._prs = list(prs or [])
        if repos is None:
            repos = sorted({s.repo_id for s in self._series}
                           | {p["repo_id"] for p in self._prs})
        self._repos = list(repos)

    def fetch_commit_metrics(self, repo_id):
        return [s for s in self._series if s.repo_id == repo_id]

    def fetch_pull_requests(self, repo_id):
        """A defect names its object's place among repo_id's, from 1."""
        return pull_requests(enumerate(
            (p for p in self._prs if p["repo_id"] == repo_id), start=1), "pull request")


@dataclass
class RadarConfig:
    adapter: SourceAdapter
    poll_interval_seconds: float = 1.0
    workers: int = 1


class Radar:
    """Lifecycle-managed collection queue over a source adapter.

    start() spawns the poll loop and worker pool; stop() drains in-flight
    work and halts; poll_new() and collect() are also callable directly for
    synchronous use.
    """

    def __init__(self, config: RadarConfig):
        self.config = config
        self.state = RadarState.INITIALIZED
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)  # a repo left work
        self._queue_status = {}
        self._open = 0  # repos pending or in progress
        self._failures = {}
        self._results = {}
        self._pending = queue.Queue()  # repo ids, then one None per worker
        self._poller = None
        self._workers = []
        self._halt = threading.Event()
        log.info("radar initialized (adapter=%s)", config.adapter.name)

    def poll_new(self):
        """Ask the adapter for newly visible repos; queue each one once."""
        new = self.config.adapter.list_new_repos()
        with self._lock:
            for ref in new:
                if ref.repo_id not in self._queue_status:
                    self._queue_status[ref.repo_id] = RepoStatus.PENDING
                    self._open += 1
                    self._pending.put(ref.repo_id)
                    log.info("queued %s", ref.repo_id)
        return new

    def collect(self, repo_id):
        """Fetch one repo's data; transitions pending -> in progress ->
        done/failed.  Unknown or already-claimed repos are rejected, so a
        repo is processed at most once even under concurrent callers."""
        with self._lock:
            status = self._queue_status.get(repo_id)
            if status is None:
                raise RadarError(f"unknown repo {repo_id!r}")
            if status is not RepoStatus.PENDING:
                raise RadarError(f"repo {repo_id!r} already claimed ({status.value})")
            self._queue_status[repo_id] = RepoStatus.IN_PROGRESS
        return self._run_collect(repo_id)

    def _run_collect(self, repo_id):
        try:
            series = self.config.adapter.fetch_commit_metrics(repo_id)
            prs = self.config.adapter.fetch_pull_requests(repo_id)
        except Exception as exc:
            with self._lock:
                self._failures[repo_id] = str(exc)
                self._settle(repo_id, RepoStatus.FAILED)
            log.warning("collect failed for %s: %s", repo_id, exc)
            return False
        with self._lock:
            self._results[repo_id] = (series, prs)
            self._settle(repo_id, RepoStatus.DONE)
        log.info("collected %s", repo_id)
        return True

    def _settle(self, repo_id, status):
        # caller holds self._lock
        self._queue_status[repo_id] = status
        self._open -= 1
        self._settled.notify_all()

    def _worker_loop(self):
        while (repo_id := self._pending.get()) is not None:
            if self._halt.is_set():
                return  # stopping: finish in-flight work only
            with self._lock:
                if self._queue_status[repo_id] is not RepoStatus.PENDING:
                    continue  # collect() claimed it first
                self._queue_status[repo_id] = RepoStatus.IN_PROGRESS
            self._run_collect(repo_id)

    def _poll_loop(self):
        while not self._halt.wait(self.config.poll_interval_seconds):
            self.poll_new()

    def start(self):
        """Poll once, then run the poll loop and the worker pool."""
        if self.state is RadarState.STOPPED:
            raise RadarError("cannot start a stopped radar")
        if self.state is RadarState.RUNNING:
            return
        self.poll_new()
        self.state = RadarState.RUNNING
        self._poller = threading.Thread(target=self._poll_loop, daemon=True)
        self._workers = [threading.Thread(target=self._worker_loop, daemon=True)
                         for _ in range(self.config.workers)]
        for t in [self._poller, *self._workers]:
            t.start()
        log.info("radar started (%d workers)", self.config.workers)

    def stop(self):
        """Drain in-flight work and halt.  A second call is a no-op."""
        if self.state is RadarState.STOPPED:
            log.info("radar already stopped")
            return "AlreadyStopped"
        self._halt.set()
        if self._poller is not None:
            self._poller.join(timeout=10)
        for _ in self._workers:
            self._pending.put(None)  # wakes a worker blocked on an empty queue
        for t in self._workers:
            t.join(timeout=10)
        self._poller, self._workers = None, []
        self.state = RadarState.STOPPED
        log.info("radar stopped")
        return "Stopped"

    def drain(self, timeout=10.0):
        """Block until nothing is pending or in progress (running radar)."""
        with self._settled:
            return self._settled.wait_for(lambda: self._open == 0, timeout)

    def status(self):
        with self._lock:
            return dict(self._queue_status)

    def failure_reason(self, repo_id):
        with self._lock:
            return self._failures.get(repo_id)

    def result(self, repo_id):
        with self._lock:
            return self._results.get(repo_id)


class LiveGitHubAdapter(SourceAdapter):
    """Paginated REST adapter with exponential backoff on rate limits.

    Optional feature: needs a token and network access; tests drive it with
    a fake session replaying canned transcripts.
    """

    name = "github"

    def __init__(self, token, repos, session=None, base_url="https://api.github.com",
                 per_page=100, max_retries=4, sleep=time.sleep):
        if not token:
            raise AuthError("no API token configured")
        self._token = token
        self._repos = list(repos)
        self._base = base_url.rstrip("/")
        self._per_page = per_page
        self._max_retries = max_retries
        self._sleep = sleep
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def _get(self, url, params=None):
        headers = {"Authorization": f"token {self._token}",
                   "Accept": "application/vnd.github+json"}
        delay = 1.0
        for attempt in range(self._max_retries + 1):
            resp = self._session.get(url, params=params, headers=headers)
            if resp.status_code == 401:
                raise AuthError(f"unauthorized for {url}")
            if resp.status_code == 404:
                raise NotFound(url)
            if resp.status_code in (403, 429):
                retry_after = resp.headers.get("Retry-After")
                reset = resp.headers.get("X-RateLimit-Reset")
                if (resp.status_code == 403 and not retry_after
                        and resp.headers.get("X-RateLimit-Remaining") != "0"):
                    raise AuthError(f"permission denied for {url}")
                if attempt == self._max_retries:
                    raise RateLimited(url)
                if retry_after:
                    wait = float(retry_after)
                elif reset:  # epoch seconds at which the quota refills
                    wait = float(reset) - time.time()
                else:
                    wait = delay
                self._sleep(min(max(wait, 0.0), 60.0))
                delay *= 2
                continue
            resp.raise_for_status()
            return resp
        raise RateLimited(url)

    def _paginate(self, url, params=None):
        params = dict(params or {})
        params["per_page"] = self._per_page
        page = 1
        while True:
            params["page"] = page
            resp = self._get(url, params)
            batch = resp.json()
            if not batch:
                return
            yield from batch
            if len(batch) < self._per_page:
                return
            page += 1

    def fetch_commit_metrics(self, repo_id):
        commits = list(self._paginate(f"{self._base}/repos/{repo_id}/commits"))
        rows = []
        for c in commits:
            # the list endpoint omits stats; the single-commit endpoint has them
            stats = c.get("stats") or self._get(
                f"{self._base}/repos/{repo_id}/commits/{c['sha']}").json().get("stats")
            if not stats or not {"additions", "deletions"} <= stats.keys():
                raise IncompleteRecord(f"{repo_id}: commit {c['sha']} has no line stats")
            ts = timeutil.from_rfc3339(c["commit"]["author"]["date"])
            added = float(stats["additions"])
            deleted = float(stats["deletions"])
            rows.append((ts, added, deleted))
        rows.sort(key=lambda r: r[0])
        if not rows:
            return []
        ts = np.array([r[0] for r in rows])
        added = np.array([r[1] for r in rows])
        deleted = np.array([r[2] for r in rows])
        return [
            MetricSeries(repo_id, "lines_added", ts, added),
            MetricSeries(repo_id, "lines_deleted", ts, deleted),
            MetricSeries(repo_id, "lines_changed", ts, added + deleted),
        ]

    def fetch_pull_requests(self, repo_id):
        """The PullRequests of repo_id, by pull-request number; a defect
        names its pull request's number."""
        pulls = list(self._paginate(f"{self._base}/repos/{repo_id}/pulls",
                                    {"state": "all"}))
        pulls.sort(key=lambda p: p.get("number", 0))
        return pull_requests(((p["number"], self._pull_request(repo_id, p))
                              for p in pulls), "pull request")

    def _pull_request(self, repo_id, p):
        """The prs.jsonl object of the listed pull request p."""
        # the list endpoint omits the counts; the single-PR endpoint has them
        detail = self._get(f"{self._base}/repos/{repo_id}/pulls/{p['number']}").json()
        missing = sorted(k for k in PR_DETAIL_COUNTS if detail.get(k) is None)
        if missing:
            raise IncompleteRecord(
                f"{repo_id}: pull request {p['number']} has no {', '.join(missing)}")
        return {
            "repo_id": repo_id,
            "title": p.get("title"),
            "body": p.get("body"),
            "creation_date": p.get("created_at"),
            "closure_date": p.get("closed_at"),
            "merged_date": p.get("merged_at"),
            "update_date": p.get("updated_at"),
            "locked_state": p.get("locked", False),
            "merged_state": p.get("merged_at") is not None,
            "pull_request_state": p.get("state") == "open",
            "pull_request_number": p.get("number"),
            "number_of_additions": detail["additions"],
            "number_of_deletions": detail["deletions"],
            "number_of_commits": detail["commits"],
            "number_of_files": detail["changed_files"],
            "number_of_file_changes": detail["changed_files"],
            "number_of_comments": detail["comments"],
            "number_of_review_comments": detail["review_comments"],
        }
