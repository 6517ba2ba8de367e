"""Data collection: the metrics and pull-request schemas, fixture loaders,
the radar work queue, and an optional live GitHub-style source adapter.

The radar watches a source adapter for newly visible repositories, queues
them, and lets a bounded worker pool collect their metric series and pull
requests.  Claims are atomic, so each repository is processed at most once.
"""

from __future__ import annotations

import contextlib
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
    Timestamps (_column) and values (float()) are checked a column at a
    time, and the first defect in row order is the one reported.
    """
    rows, late = [], None  # rows: the cells of each non-blank row, then its number
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
            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"row {row_no} has {len(row)} cells, "
                                     f"the header {len(header)}")
                rows.append([*row, row_no])
        except csv.Error as exc:  # a cell past csv.field_size_limit(), say
            where = "the header" if header is None else f"row {row_no + 1}"
            late = ValueError(f"{where}: {exc}")
        except ValueError as exc:  # reported unless a row before it has a defect
            late = exc
    cols = (dict(zip([*header, None], zip(*rows))) if rows  # None: the row numbers
            else dict.fromkeys([*CSV_HEADER, None], ()))
    ts, vals, seconds = np.empty(len(rows)), [], {}
    bad_ts = _column("timestamp", cols["timestamp"], seconds, ts)
    for metric in METRIC_COLUMNS:
        try:
            vals.append(np.array(list(map(float, cols[metric])), dtype=float))
        except ValueError:  # a cell that is not a number: the cells one at a time
            vals.append(np.full(len(rows), math.nan))
            for i, cell in enumerate(cols[metric]):
                with contextlib.suppress(ValueError):
                    vals[-1][i] = float(cell)
    faults = [(i, 0, f"timestamp at row {cols[None][i]} "
                     f"{_fault('timestamp', cols['timestamp'][i], seconds)}") for i in bad_ts[:1]]
    faults += [(i, 1, f"non-finite value at row {cols[None][i]}")
               for v in vals for i in np.flatnonzero(~np.isfinite(v))[:1].tolist()]
    if faults:
        raise ValueError(min(faults)[2])
    if late:
        raise late
    names = sorted(set(cols["repo_id"]))
    repo = np.array(list(map({name: k for k, name in enumerate(names)}.get, cols["repo_id"])))
    order = np.lexsort((ts, repo))  # stable: a repo's rows of one instant keep file order
    ts, repo, numbers = ts[order], repo[order], np.array(cols[None], dtype=int)[order]
    gaps, same, vals = np.diff(ts), repo[1:] == repo[:-1], np.array(vals)[:, order]
    steps = gaps[same & (gaps > 0)]
    step = steps.min() if steps.size else math.nan
    want = f"the file's step of {step:.15g} s" if steps.size else "a step above 0 s"
    for i in np.flatnonzero(same & (gaps != step))[:1].tolist():
        raise ValueError(f"row {numbers[i + 1]} of {names[repo[i]]} is {gaps[i]:.15g} s "
                         f"after row {numbers[i]}, not {want}")
    series, bounds = [], np.flatnonzero(np.r_[True, ~same, True]).tolist()
    for name, lo, hi in zip(names, bounds, bounds[1:]):
        for metric, v in zip(METRIC_COLUMNS, vals):
            try:
                series.append(MetricSeries(name, metric, ts[lo:hi], v[lo:hi]))
            except ValueError as exc:
                raise ValueError(f"{metric} of {name}: {exc}") from None
    return series


def _fault(name, raw, stamps):
    """What is wrong with a present value of a field, by the field's kind,
    or None: a boolean must be a real bool, a count a number (errors.NUMBER)
    >= 0, and any other a time, as RFC 3339 text (parsed once into stamps,
    as its seconds or its defect) or a number in years 0001 to 9999 UTC."""
    if name in BOOLEAN_FIELDS:
        return None if isinstance(raw, bool) else f"must be true or false, got {raw!r}"
    if name not in COUNT_FIELDS and isinstance(raw, str):
        if raw not in stamps:
            try:
                stamps[raw] = timeutil.from_rfc3339(raw)
            except ValueError as exc:
                stamps[raw] = str(exc)
        return stamps[raw] if isinstance(stamps[raw], str) else None
    if not NUMBER[0](raw):
        return f"must be {NUMBER[1]}, got {raw!r}"
    if name in COUNT_FIELDS:
        return f"must be non-negative, got {raw}" if raw < 0 else None
    return None if timeutil.WRITABLE[0](raw) else f"must be {timeutil.WRITABLE[1]}, got {raw!r}"


def _column(name, col, stamps, out):
    """The rows of a column of one field's raw values whose value has a
    _fault; if none has, the column goes into out as floats, MISSING where
    null.  numpy reads a column of the types JSON gives whole and clears its
    values by the field's kind; only those it leaves are judged one by one."""
    boolean, count = name in BOOLEAN_FIELDS, name in COUNT_FIELDS
    plain = {bool} if boolean else {int, float} if count else {int, float, str}
    x, clear = None, np.zeros(len(col), dtype=bool)
    if (kinds := set(map(type, col))) <= plain | {type(None)}:
        for text in set(col).difference(stamps) if str in kinds else ():
            _fault(name, text, stamps)  # parses each new text once
        # an int past the float range, or a text that failed, raises
        with contextlib.suppress(OverflowError, ValueError):
            x = np.array(list(map(stamps.get, col, col)) if str in kinds else col, dtype=float)
            null = np.isnan(x)  # null reads as NaN, so a NaN value clears nothing
            if float not in kinds or np.count_nonzero(null) == col.count(None):
                clear = null | (boolean or ((0 <= x) & (x < np.finfo(float).max) if count
                                            else timeutil.WRITABLE[0](x)))
    bad = [i for i in np.flatnonzero(~clear).tolist()
           if col[i] is not None and _fault(name, col[i], stamps)]
    if not bad:
        if x is None:  # a value of another type, a numpy scalar, say
            x = np.array([stamps.get(v, v) for v in col], dtype=float)
        out[:] = np.where(np.isnan(x), MISSING, x)
    return bad


@dataclass
class PullRequests:
    """Pull requests as columns: lists of repo ids, PR ids and texts, and
    their feature matrix, rows x 27 values in FEATURE_ORDER (_column),
    MISSING where absent."""

    repo_ids: list
    pr_ids: list
    texts: list
    values: np.ndarray

    def __len__(self):
        return len(self.pr_ids)


def pull_requests(numbered, noun="line"):
    """The PullRequests of (n, object) pairs, read up to the first that is
    not an object, has an id or text of the wrong type, no creation_date, or
    a (repo_id, pr_id) seen before, or that the pairs raise, then checked a
    column at a time (_column); the first defect by pair, then by check, is
    the ValueError "<noun> <n>: ...".  pr_id defaults to pull_request_number,
    then n, and text to title and body joined; unknown fields are ignored
    with a logged notice."""
    known = set(FEATURE_ORDER) | PR_KNOWN_EXTRA
    first, texts, rows, late = {}, [], [], None  # first: {(repo_id, pr_id): n}, in order
    try:
        for n, obj in numbered:
            where = f"{noun} {n}"
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: not a JSON object")
            if not known.issuperset(obj):
                log.info("%s: ignoring unknown fields %s", where, sorted(set(obj) - known))
            # the first id present, a null one being absent
            id_key = "pr_id" if obj.get("pr_id") is not None else (
                "pull_request_number" if obj.get("pull_request_number") is not None else None)
            text, repo_id = obj.get("text"), obj.get("repo_id", "")
            try:
                pr_id = str(need(obj, {id_key: PR_ID})[id_key] if id_key else n)
                if text in (None, ""):  # any other non-string is rejected below
                    parts = {k: obj[k] for k in ("title", "body") if obj.get(k) is not None}
                    text = " ".join(need(parts, dict.fromkeys(parts, TEXT)).values()).strip()
                if obj.get("creation_date") is None:
                    raise ValueError("creation_date missing")
                if type(repo_id) is not str or type(text) is not str:  # else need passes
                    need({"repo_id": repo_id, "text": text}, {"repo_id": TEXT, "text": TEXT})
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            rows.append([*map(obj.get, FEATURE_ORDER), n])  # its metrics, then n
            if (earlier := first.setdefault((repo_id, pr_id), n)) != n:
                raise ValueError(f"{where}: pull request {pr_id!r} of {repo_id!r} "
                                 f"repeats {noun} {earlier}")
            texts.append(text)
    except Exception as exc:  # reported unless a metric of a pair before it fails
        late = exc
    values, stamps = np.empty((len(rows), len(FEATURE_ORDER))), {}
    faults = [(bad[0], j) for j, (name, col) in enumerate(zip(FEATURE_ORDER, zip(*rows)))
              if (bad := _column(name, col, stamps, values[:, j]))]
    if faults:
        i, j = min(faults)
        name = FEATURE_ORDER[j]
        raise ValueError(f"{noun} {rows[i][-1]}: {name} {_fault(name, rows[i][j], stamps)}")
    if late:
        raise late
    return PullRequests([r for r, _ in first], [p for _, p in first], texts, values)


def load_prs_jsonl(path):
    """The PullRequests of a JSON-lines file, one object per non-blank
    line, each parsed as the file yields it.  A line that json.loads cannot
    read raises the ValueError "malformed JSON at line <n>", n from 1, and
    the first line that pull_requests rejects raises its ValueError "line
    <n>: ..."."""
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
