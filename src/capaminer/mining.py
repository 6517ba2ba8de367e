"""Consensus pattern mining over repository metric series.

A candidate window is scored by its radius: the maximum over the other
series of the minimum z-normalized distance to any window.  The window with
the smallest radius is the consensus candidate for its length.  Accepted
candidates are those matched often enough in enough repositories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyDataset, MetricMismatch, NoValidWindow
from .tsdist import (
    EPS_VAR,
    DistanceProfile,
    MetricSeries,
    distance_profile,
    znormalized_windows,
)


@dataclass(frozen=True)
class RepoCoverage:
    """Acceptance rule over the number of covered repositories.

    mode "min" accepts candidates covering at least count_or_fraction
    repositories (a fraction in (0, 1] is resolved against the repo count);
    mode "max_literal" accepts when the covered count is strictly below it.
    """

    mode: str = "min"
    count_or_fraction: float = 0.5

    def __post_init__(self):
        if self.mode not in ("min", "max_literal"):
            raise ValueError(f"unknown coverage mode {self.mode!r}")
        if self.count_or_fraction <= 0:
            raise ValueError("count_or_fraction must be positive")

    def threshold(self, n_repos: int) -> int:
        p = self.count_or_fraction
        if 0 < p <= 1 and isinstance(p, float):
            return math.ceil(p * n_repos)
        return int(p)

    def accepts(self, covered: int, n_repos: int) -> bool:
        t = self.threshold(n_repos)
        if self.mode == "min":
            return covered >= t
        return covered < t


@dataclass(frozen=True)
class MiningConfig:
    min_len: int
    max_len: int
    match_threshold: float
    min_matches_per_series: int = 1
    max_matches_per_series: float = math.inf
    repo_coverage: RepoCoverage = field(default_factory=RepoCoverage)

    def __post_init__(self):
        if self.min_len < 2 or self.max_len < self.min_len:
            raise ValueError("need 2 <= min_len <= max_len")
        if self.match_threshold < 0:
            raise ValueError("match_threshold must be >= 0")
        if not 1 <= self.min_matches_per_series <= self.max_matches_per_series:
            raise ValueError("need 1 <= min_matches <= max_matches")


@dataclass(frozen=True)
class ConsensusPattern:
    pattern_id: int
    values: np.ndarray
    metric_name: str
    source_repo: str
    source_offset: int
    radius: float
    occurrences: tuple = ()  # PatternOccurrence, filled in by mine_patterns

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class PatternOccurrence:
    pattern_id: int
    repo_id: str
    start_index: int
    end_index: int
    start_time: float
    end_time: float
    distance: float


def _nearest_distance(z, other, m: int, excl: int = 0):
    """Distance from each row of z to its nearest valid window of other.

    other is a (Z, valid) pair from znormalized_windows.  excl > 0 means
    other holds z's own windows: pairs fewer than excl offsets apart are
    trivial self-matches and are skipped.  Rows with nothing to compare
    against get +inf.  The max dot product is taken before the one sqrt per
    row; sqrt(2(m - dot)) falls as dot grows, so this is the min distance.
    """
    zo, vo = other
    dots = z @ zo[vo].T
    if excl:
        offs = np.arange(len(z))
        dots[np.abs(offs[:, None] - np.flatnonzero(vo)[None, :]) < excl] = -np.inf
    best = dots.max(axis=1, initial=-np.inf)
    return np.sqrt(2.0 * np.maximum(m - best, 0.0))


def consensus_candidate(series_set, m: int, eps_var: float = EPS_VAR) -> ConsensusPattern:
    """Window minimizing the max over the other series of the min distance.

    A single series is scored against its own windows, with trivial
    matches within ceil(m/2) offsets excluded.  Ties break to the lowest
    (series order, offset).  pattern_id is provisional (-1).
    """
    if any(len(s) < m for s in series_set):
        raise ValueError("every series must be at least as long as m")
    zs = [znormalized_windows(s.values, m, eps_var) for s in series_set]
    excl = math.ceil(m / 2)
    best = None  # (radius, series_idx, offset)
    for si, (z, valid) in enumerate(zs):
        radii = np.zeros(len(z))
        for sj in [j for j in range(len(zs)) if j != si] or [si]:
            radii = np.maximum(radii, _nearest_distance(
                z, zs[sj], m, excl if sj == si else 0))
        radii[~valid] = np.inf
        off = int(np.argmin(radii))
        if np.isfinite(radii[off]) and (best is None or radii[off] < best[0]):
            best = (float(radii[off]), si, off)
    if best is None:
        raise NoValidWindow("all windows constant")
    radius, si, off = best
    s = series_set[si]
    return ConsensusPattern(-1, s.values[off : off + m], s.metric_name,
                            s.repo_id, off, radius)


def greedy_matches(profile: DistanceProfile, tau: float):
    """Non-overlapping match offsets from a distance profile.

    Repeatedly takes the smallest defined distance <= tau (ties to the
    lowest offset) and masks every offset overlapping the taken window.
    Returns [(offset, distance), ...] in selection order.
    """
    m = profile.query_length
    d = profile.distances.copy()
    d[~profile.valid] = np.inf
    d[d > tau] = np.inf
    out = []
    while True:
        i = int(np.argmin(d))
        if not np.isfinite(d[i]):
            break
        out.append((i, float(profile.distances[i])))
        lo = max(0, i - m + 1)
        d[lo : i + m] = np.inf
    return out


def count_matches(pattern: ConsensusPattern, series: MetricSeries, tau: float,
                  eps_var: float = EPS_VAR):
    """Count thresholded non-overlapping matches of pattern in series."""
    if len(series) < len(pattern):
        raise ValueError("series shorter than pattern")
    profile = distance_profile(pattern.values, series, eps_var)
    occs = []
    for off, dist in greedy_matches(profile, tau):
        end = off + len(pattern) - 1
        occs.append(PatternOccurrence(
            pattern_id=pattern.pattern_id,
            repo_id=series.repo_id,
            start_index=off,
            end_index=end,
            start_time=float(series.timestamps[off]),
            end_time=float(series.timestamps[end]),
            distance=dist,
        ))
    return len(occs), occs


def mine_patterns(dataset, config: MiningConfig, eps_var: float = EPS_VAR,
                  first_id: int = 0):
    """Mine accepted consensus patterns for every length in [min_len, max_len].

    Deterministic: output ordered by ascending length; accepted patterns get
    sequential ids from first_id.  Each pattern carries its thresholded
    occurrences in every series at least as long as it, in dataset order.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("no series to mine")
    metrics = {s.metric_name for s in dataset}
    if len(metrics) > 1:
        raise MetricMismatch(f"mixed metrics in dataset: {sorted(metrics)}")
    n_repos = len({s.repo_id for s in dataset})
    accepted = []  # (candidate, occurrences)
    for m in range(config.min_len, config.max_len + 1):
        eligible = [s for s in dataset if len(s) >= m]
        try:
            cand = consensus_candidate(eligible, m, eps_var)
        except NoValidWindow:
            continue
        occurrences, covered = [], set()
        for s in eligible:
            n, occs = count_matches(cand, s, config.match_threshold, eps_var)
            occurrences += occs
            if config.min_matches_per_series <= n <= config.max_matches_per_series:
                covered.add(s.repo_id)
        if config.repo_coverage.accepts(len(covered), n_repos):
            accepted.append((cand, occurrences))
    return [
        replace(p, pattern_id=pid,
                occurrences=tuple(replace(o, pattern_id=pid) for o in occs))
        for pid, (p, occs) in enumerate(accepted, start=first_id)
    ]


def patterns_to_json(patterns) -> dict:
    return {
        "patterns": [
            {
                "pattern_id": p.pattern_id,
                "metric": p.metric_name,
                "length": len(p),
                "values": [float(v) for v in p.values],
                "source": {"repo": p.source_repo, "offset": p.source_offset},
                "radius": p.radius,
            }
            for p in patterns
        ]
    }


def patterns_from_json(doc) -> list:
    return [
        ConsensusPattern(
            pattern_id=e["pattern_id"],
            values=np.array(e["values"], dtype=float),
            metric_name=e["metric"],
            source_repo=e["source"]["repo"],
            source_offset=e["source"]["offset"],
            radius=e["radius"],
        )
        for e in doc["patterns"]
    ]


def occurrence_to_json_line(occ: PatternOccurrence) -> str:
    from .timeutil import to_rfc3339

    return json.dumps({
        "pattern_id": occ.pattern_id,
        "repo": occ.repo_id,
        "start_index": occ.start_index,
        "end_index": occ.end_index,
        "start_time": to_rfc3339(occ.start_time),
        "end_time": to_rfc3339(occ.end_time),
        "distance": occ.distance,
    }, sort_keys=True)


def occurrence_from_json_line(line: str) -> PatternOccurrence:
    from .timeutil import from_rfc3339

    obj = json.loads(line)
    return PatternOccurrence(
        pattern_id=obj["pattern_id"],
        repo_id=obj["repo"],
        start_index=obj["start_index"],
        end_index=obj["end_index"],
        start_time=from_rfc3339(obj["start_time"]),
        end_time=from_rfc3339(obj["end_time"]),
        distance=obj["distance"],
    )
