"""Consensus pattern mining over repository metric series.

A candidate window is scored by its radius: the maximum over its targets,
the other series or a lone series' own windows, of the minimum z-normalized
distance to any window.  The window with the smallest radius is the
consensus candidate for its length; ties go to the lowest (series order,
offset).  The search abandons a window as soon as its radius over the
targets scored so far passes the best radius found (Ostinato, Kamgar et
al., ICDM 2019), or, from the first window on, the radius of the previous
length's winner extended by one point.  Windows are ranked and pruned by
float32 dot products in blocks that OpenBLAS runs on one thread, under the
rounding bound of tsdist.float32_dot_bound, and the survivors are measured
with the direct norm, so the winner does not depend on the BLAS.  A
candidate is accepted when enough of the repositories have a series it
matches.
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
    float32_dot_bound,
    znormalized_windows,
)

# multiply-adds per block of a float32 product: OpenBLAS runs a product of
# M*N*K at most 65536 * 4 on one thread, and a second one gains nothing here
BLOCK = 65536 * 4
NO_WINDOW = "no non-constant window has a non-constant window to compare with in every target"


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


class _Windows:
    """The length-m z-windows of a series set, built once for the search and
    the occurrence count: z and valid hold every series' windows, one after
    the other, with starts the first window of each and their total; rows
    holds each series' valid offsets, and z32 float32 copies of those rows."""

    def __init__(self, series_set, m: int):
        zs = [znormalized_windows(s.values, m) for s in series_set]
        self.z = np.concatenate([z for z, _ in zs])
        self.valid = np.concatenate([valid for _, valid in zs])
        self.starts = np.cumsum([0, *(len(z) for z, _ in zs)])
        self.rows = [np.flatnonzero(valid) for _, valid in zs]
        self.z32 = [z[rows].astype(np.float32) for (z, _), rows in zip(zs, self.rows)]

    def distances(self, si: int, off: int):
        """direct_distances from the window at offset off of series si to
        every window, each series' share at starts[i]:starts[i + 1]."""
        return direct_distances(self.z[self.starts[si] + off], (self.z, self.valid))

    def radius(self, si: int, off: int, excl: int):
        """(radius, nearest) of the window at offset off of series si by the
        direct norm: nearest holds its least distance to each series, and
        excl > 0, for a lone series, skips its windows fewer than excl
        offsets away.  The radius is NaN when a target has no window."""
        d = self.distances(si, off)
        if excl:
            d[max(off - excl + 1, 0) : off + excl] = np.nan
        nearest = np.fmin.reduceat(d, self.starts[:-1])
        return float(np.delete(nearest, si).max() if len(nearest) > 1 else nearest[0]), nearest


def _max_dots(q, rows, other, other_rows, excl: int):
    """Largest float32 dot product of each z-window q, at offsets rows, with
    a window of other, at offsets other_rows; -inf where there is none.
    The largest dot is the nearest window: see _radius.  q and other hold
    one window or more each.

    excl > 0 means other holds the query's own windows: pairs fewer than
    excl offsets apart are trivial self-matches and are skipped.  The
    product q @ other.T runs in blocks of at most BLOCK multiply-adds (for
    m up to 8192), a band of rows of q at a time, each band reduced by one
    row max.  A band holds as many rows as fit against all of other, but at
    least 32: the BLAS kernels crawl on thinner products.
    """
    m = q.shape[1]
    step = min(len(q), max(32, BLOCK // (m * len(other))))
    width = max(1, BLOCK // (m * step))
    top = np.empty(len(q), dtype=np.float32)
    dots = np.empty((step, len(other)), dtype=np.float32)
    for i in range(0, len(q), step):
        band = q[i : i + step]
        out = dots[: len(band)]
        for t in range(0, len(other), width):
            np.matmul(band, other[t : t + width].T, out=out[:, t : t + width])
        if excl:
            out[np.abs(rows[i : i + step, None] - other_rows) < excl] = -np.inf
        out.max(axis=1, out=top[i : i + step])
    return top


def _radius(dots, m: int, slack: float):
    """sqrt(2(m - (dots + slack))), floored at 0, in float64: with slack
    float32_dot_bound(m) a lower bound on the direct distance of float32
    dots, with -float32_dot_bound(m) an upper one."""
    return np.sqrt(2.0 * np.maximum(m - (dots.astype(float) + slack), 0.0))


def consensus_candidate(series_set, m: int, windows=None, seed=None) -> ConsensusPattern:
    """Window minimizing the max over its targets of the min distance.

    A series' targets are the other series or, when it is alone, its own
    windows, with trivial matches within ceil(m/2) offsets excluded.
    windows is the series set's _Windows at length m, built here when not
    given.  seed, the (series index, offset) of a length-m window, bounds
    the search by its direct radius from the first window on, and the
    targets it is farthest from are scored first; a constant seed window is
    ignored, and one that is not a window of the series is a ValueError.
    The seed never wins by being the seed, so ties still go to the lowest
    (series order, offset).

    The windows of a series are scored one target at a time by _max_dots,
    and a window is dropped once its lower bound, by _radius, is strictly
    above the seed's radius or the best radius of the earlier series.  Of
    the survivors, every window whose lower bound is at most the least
    upper bound is measured with the direct norm ||qz - wz|| over the same
    targets, and the first minimum must beat the best so far strictly.  So
    the winner is the first window of least direct radius, whatever the
    BLAS, its threads or the rows a product held.  pattern_id is -1:
    mine_patterns numbers the accepted ones.
    """
    w = windows or _Windows(series_set, m)
    if not all(map(len, w.rows)):  # a constant series: no target for the others
        raise NoValidWindow(NO_WINDOW)
    excl = math.ceil(m / 2) if len(series_set) == 1 else 0
    order, bound = range(len(series_set)), math.inf
    if seed is not None:
        si, off = seed
        if not (0 <= si < len(series_set) and 0 <= off <= len(series_set[si]) - m):
            raise ValueError(f"seed {seed} is not a length-{m} window of the series")
        radius, nearest = w.radius(si, off, excl)
        if w.valid[w.starts[si] + off] and radius < bound:
            order, bound = np.argsort(-nearest, kind="stable"), radius
    delta, best = float32_dot_bound(m), None
    for si, (rows, q) in enumerate(zip(w.rows, w.z32)):
        # the least over the targets so far of each window's largest dot;
        # _radius is decreasing in it, so this is its largest lower bound
        dots = np.full(len(rows), np.inf, dtype=np.float32)
        for t in [t for t in order if t != si] or [si]:
            if not len(rows):
                break
            dots = np.minimum(dots, _max_dots(q, rows, w.z32[t], w.rows[t], excl))
            alive = _radius(dots, m, delta) <= bound
            rows, q, dots = rows[alive], q[alive], dots[alive]
        if not len(rows) or not np.isfinite(least := _radius(dots, m, -delta).min()):
            continue
        rows = rows[_radius(dots, m, delta) <= least]
        radii = [w.radius(si, int(off), excl)[0] for off in rows]
        i = int(np.argmin(radii))
        if best is None or radii[i] < best[0]:
            best = (radii[i], si, int(rows[i]))
            bound = min(bound, radii[i])
    if best is None:
        raise NoValidWindow(NO_WINDOW)
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


def _occurrences(pattern: ConsensusPattern, series: MetricSeries, profile, tau: float):
    """occurrences.jsonl rows of the thresholded non-overlapping matches in
    series, of which profile is the pattern's distance profile."""
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


def count_matches(pattern: ConsensusPattern, series: MetricSeries, tau: float):
    """occurrences.jsonl rows of the thresholded non-overlapping matches."""
    return _occurrences(pattern, series, distance_profile(pattern.values, series), tau)


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
        cand = None  # the previous length's winner
        for m in range(config.min_len, min(config.max_len, max(map(len, series))) + 1):
            eligible = [s for s in series if len(s) >= m]
            windows = _Windows(eligible, m)
            seed = None if cand is None else _source(eligible, cand)
            if seed is not None:  # extended by one point, to the left at the series' end
                off = cand.source_offset
                seed = (seed, off if off + m <= len(eligible[seed]) else off - 1)
            try:
                cand = replace(consensus_candidate(eligible, m, windows, seed),
                               pattern_id=len(accepted))
            except NoValidWindow:
                cand = None
                continue
            # the pattern's z-values are its source row's, the bits of znormalize(values)
            profile = windows.distances(_source(eligible, cand), cand.source_offset)
            occurrences = tuple(
                o for s, lo, hi in zip(eligible, windows.starts, windows.starts[1:])
                for o in _occurrences(cand, s, profile[lo:hi], config.match_threshold))
            covered = {o["repo"] for o in occurrences}
            if len(covered) / n_repos >= config.min_repo_fraction:
                accepted.append(replace(cand, occurrences=occurrences))
    return accepted


def _source(series_set, pattern: ConsensusPattern):
    """Index of the first series of series_set from the pattern's repository
    that holds its values at its source offset, or None."""
    off, m = pattern.source_offset, len(pattern)
    return next((i for i, s in enumerate(series_set) if s.repo_id == pattern.source_repo
                 and np.array_equal(s.values[off : off + m], pattern.values)), None)


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
