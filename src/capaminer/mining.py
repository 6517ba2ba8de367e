"""Consensus pattern mining over repository metric series.

A candidate window is scored by its radius: the maximum over the other
series of the minimum z-normalized distance to any window.  The window with
the smallest radius is the consensus candidate for its length; ties go to
the lowest (series order, offset).  The search abandons a window as soon as
its radius over the series scored so far passes the best radius found
(Ostinato, Kamgar et al., ICDM 2019).  A candidate is accepted when enough
of the repositories have a series it matches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NON_NEGATIVE, NUMBER, EmptyDataset, NoValidWindow, at_least, need
from .tsdist import (
    MetricSeries,
    direct_distances,
    distance_profile,
    znormalized_windows,
)


# {field: (test, requirement)} of a MiningConfig, besides max_len >= min_len
MINING_CONFIG_FIELDS = {
    "min_len": at_least(2),
    "max_len": at_least(2),
    "match_threshold": NON_NEGATIVE,
    "min_repo_fraction": (lambda v: NUMBER[0](v) and 0 < v <= 1, "a fraction in (0, 1]"),
}


@dataclass(frozen=True)
class MiningConfig:
    """min_repo_fraction is the repo-coverage rule: a candidate is accepted
    when at least that share of the repositories have a series with a match.
    It is compared as k / n_repos >= fraction, because ceil(fraction *
    n_repos) rounds the product: ceil(0.28 * 25) is 8 in floating point."""

    min_len: int
    max_len: int
    match_threshold: float
    min_repo_fraction: float = 0.5

    def __post_init__(self):
        need(vars(self), {**MINING_CONFIG_FIELDS, "max_len": at_least(self.min_len)})


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


def _direct_radius(qz, targets) -> float:
    """Max over the (Z, mask) targets of the min direct ||qz - w|| over the
    windows w that the mask admits; each mask admits at least one."""
    return max(float(np.nanmin(direct_distances(qz, t))) for t in targets)


def _ostinato(zs, m: int):
    """(radius, series_idx, offset) of the consensus window of two or more
    series of (Z, valid) windows.

    A series' windows are scored one other series at a time, and a window
    is dropped once its running max, a lower bound on its radius, is
    strictly above the best radius of the earlier series.  The survivors
    are ranked by the dot form; the best is measured with the direct norm,
    which gives equal windows equal bits whatever rows a product held, and
    must beat the best so far strictly, so ties go to the lowest (series,
    offset).
    """
    best = None
    for si, (z, valid) in enumerate(zs):
        others = zs[:si] + zs[si + 1:]
        rows = np.flatnonzero(valid)
        q, radii = z[rows], np.zeros(len(rows))
        for other in others:
            if not len(rows):
                break
            radii = np.maximum(radii, _nearest_distance(q, other, m))
            if best is not None:
                alive = radii <= best[0]
                rows, q, radii = rows[alive], q[alive], radii[alive]
        if len(rows) and np.isfinite(radii.min()):
            off = int(rows[np.argmin(radii)])
            radius = _direct_radius(z[off], others)
            if best is None or radius < best[0]:
                best = (radius, si, off)
    if best is None:
        raise NoValidWindow("all windows constant")
    return best


def consensus_candidate(series_set, m: int) -> ConsensusPattern:
    """Window minimizing the max over the other series of the min distance.

    Several series go through the Ostinato search (_ostinato).  A single
    series is scored against its own windows, with trivial matches within
    ceil(m/2) offsets excluded.  Ties break to the lowest (series order,
    offset).  The radius is the direct norm ||qz - wz||, whatever was
    pruned.  pattern_id is -1: mine_patterns numbers the accepted ones.
    """
    if any(len(s) < m for s in series_set):
        raise ValueError("every series must be at least as long as m")
    zs = [znormalized_windows(s.values, m) for s in series_set]
    if len(zs) == 1:
        excl = math.ceil(m / 2)
        z, valid = zs[0]
        radii = np.where(valid, _nearest_distance(z, zs[0], m, excl), np.inf)
        si, off = 0, int(np.argmin(radii))
        if not np.isfinite(radii[off]):
            raise NoValidWindow("all windows constant")
        far = np.abs(np.arange(len(z)) - off) >= excl
        radius = _direct_radius(z[off], [(z, valid & far)])
    else:
        radius, si, off = _ostinato(zs, m)
    s = series_set[si]
    return ConsensusPattern(-1, s.values[off : off + m], s.metric_name,
                            s.repo_id, off, radius)


def greedy_matches(distances, m: int, tau: float):
    """Non-overlapping match offsets from a distance profile of a length-m
    query.

    Repeatedly takes the smallest distance <= tau (ties to the lowest
    offset; NaN never qualifies) and masks every offset overlapping the
    taken window.  Returns [(offset, distance), ...] in selection order.
    """
    d = np.where(distances <= tau, distances, np.inf)
    out = []
    while True:
        i = int(np.argmin(d))
        if not np.isfinite(d[i]):
            break
        out.append((i, float(distances[i])))
        lo = max(0, i - m + 1)
        d[lo : i + m] = np.inf
    return out


def count_matches(pattern: ConsensusPattern, series: MetricSeries, tau: float):
    """Occurrences of the thresholded non-overlapping matches of pattern."""
    if len(series) < len(pattern):
        raise ValueError("series shorter than pattern")
    profile = distance_profile(pattern.values, series)
    occs = []
    for off, dist in greedy_matches(profile, len(pattern), tau):
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
    return occs


def default_match_threshold(m: int) -> float:
    """25% of 2*sqrt(m), the largest z-normalized distance at length m."""
    return 0.25 * 2.0 * math.sqrt(m)


def mine_patterns(dataset, config: MiningConfig):
    """Mine accepted consensus patterns of each metric of the dataset, in
    order of first appearance, for every length in [min_len, max_len].

    Coverage counts the repositories with a series of the pattern's metric.
    Ids run from 0 across metrics.  Each pattern carries its thresholded
    occurrences in every series of its metric at least as long as it.
    """
    by_metric = {}
    for s in dataset:
        by_metric.setdefault(s.metric_name, []).append(s)
    if not by_metric:
        raise EmptyDataset("no series to mine")
    accepted = []
    for series in by_metric.values():
        n_repos = len({s.repo_id for s in series})
        for m in range(config.min_len, config.max_len + 1):
            eligible = [s for s in series if len(s) >= m]
            try:
                cand = replace(consensus_candidate(eligible, m),
                               pattern_id=len(accepted))
            except NoValidWindow:
                continue
            occurrences = tuple(o for s in eligible for o in
                                count_matches(cand, s, config.match_threshold))
            covered = {o.repo_id for o in occurrences}
            if len(covered) / n_repos >= config.min_repo_fraction:
                accepted.append(replace(cand, occurrences=occurrences))
    return accepted


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


def occurrence_from_json(obj: dict) -> PatternOccurrence:
    from .timeutil import from_rfc3339

    return PatternOccurrence(
        pattern_id=obj["pattern_id"],
        repo_id=obj["repo"],
        start_index=obj["start_index"],
        end_index=obj["end_index"],
        start_time=from_rfc3339(obj["start_time"]),
        end_time=from_rfc3339(obj["end_time"]),
        distance=obj["distance"],
    )
