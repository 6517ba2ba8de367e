"""Consensus pattern mining over repository metric series.

A candidate window is scored by its radius: the maximum over its targets,
the other series or a lone series' own windows, of the minimum z-normalized
distance to any window.  The window with the smallest radius is the
consensus candidate for its length; ties go to the lowest (series order,
offset).  The search abandons a window as soon as its radius over the
targets scored so far passes the best radius found (Ostinato, Kamgar et
al., ICDM 2019).  A candidate is accepted when enough of the repositories
have a series it matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NON_NEGATIVE, NUMBER, EmptyDataset, NoValidWindow, at_least, need
from .timeutil import to_rfc3339
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
    occurrences: tuple = ()  # count_matches rows, filled in by mine_patterns

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)


def _nearest_distance(q, rows, other, m: int, excl: int):
    """Distance from each query row q, the windows at offsets rows, to its
    nearest valid window of other.

    other is a (Z, valid) pair from znormalized_windows.  excl > 0 means
    other holds the query's own windows: pairs fewer than excl offsets apart
    are trivial self-matches and are skipped.  Rows with nothing to compare
    against get +inf.  The max dot product is taken before the one sqrt per
    row; sqrt(2(m - dot)) falls as dot grows, so this is the min distance.
    """
    zo, vo = other
    dots = q @ zo[vo].T
    if excl:
        dots[np.abs(rows[:, None] - np.flatnonzero(vo)[None, :]) < excl] = -np.inf
    best = dots.max(axis=1, initial=-np.inf)
    return np.sqrt(2.0 * np.maximum(m - best, 0.0))


def consensus_candidate(series_set, m: int) -> ConsensusPattern:
    """Window minimizing the max over its targets of the min distance.

    A series' targets are the other series or, when it is alone, its own
    windows, with trivial matches within ceil(m/2) offsets excluded.  The
    windows of a series are scored one target at a time, and a window is
    dropped once its running max, a lower bound on its radius, is strictly
    above the best radius of the earlier series.  The survivors are ranked
    by the dot form; the best is measured with the direct norm ||qz - wz||
    over the same targets, which gives equal windows equal bits whatever
    rows a product held, and must beat the best so far strictly, so ties go
    to the lowest (series order, offset).  pattern_id is -1: mine_patterns
    numbers the accepted ones.
    """
    zs = [znormalized_windows(s.values, m) for s in series_set]
    excl = math.ceil(m / 2) if len(zs) == 1 else 0
    best = None
    for si, (z, valid) in enumerate(zs):
        targets = zs[:si] + zs[si + 1:] or zs
        rows = np.flatnonzero(valid)
        q, radii = z[rows], np.zeros(len(rows))
        for target in targets:
            if not len(rows):
                break
            radii = np.maximum(radii, _nearest_distance(q, rows, target, m, excl))
            if best is not None:
                alive = radii <= best[0]
                rows, q, radii = rows[alive], q[alive], radii[alive]
        if len(rows) and np.isfinite(radii.min()):
            off = int(rows[np.argmin(radii)])
            if excl:
                targets = [(z, valid & (np.abs(np.arange(len(z)) - off) >= excl))]
            radius = max(float(np.nanmin(direct_distances(z[off], t))) for t in targets)
            if best is None or radius < best[0]:
                best = (radius, si, off)
    if best is None:
        raise NoValidWindow("no non-constant window has a non-constant window "
                            "to compare with in every target")
    radius, si, off = best
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
    """occurrences.jsonl rows of the thresholded non-overlapping matches."""
    profile = distance_profile(pattern.values, series)
    occs = []
    for off, dist in greedy_matches(profile, len(pattern), tau):
        end = off + len(pattern) - 1
        occs.append({
            "pattern_id": pattern.pattern_id,
            "repo": series.repo_id,
            "start_index": off,
            "end_index": end,
            "start_time": to_rfc3339(series.timestamps[off]),
            "end_time": to_rfc3339(series.timestamps[end]),
            "distance": dist,
        })
    return occs


def default_match_threshold(m: int) -> float:
    """25% of 2*sqrt(m), the largest z-normalized distance at length m."""
    return 0.25 * 2.0 * math.sqrt(m)


def mine_patterns(dataset, config: MiningConfig):
    """Mine accepted consensus patterns of each metric of the dataset, in order
    of first appearance, for each length in [min_len, max_len] its longest series holds.

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
        for m in range(config.min_len, min(config.max_len, max(map(len, series))) + 1):
            eligible = [s for s in series if len(s) >= m]
            try:
                cand = replace(consensus_candidate(eligible, m),
                               pattern_id=len(accepted))
            except NoValidWindow:
                continue
            occurrences = tuple(o for s in eligible for o in
                                count_matches(cand, s, config.match_threshold))
            covered = {o["repo"] for o in occurrences}
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
