import math

import numpy as np
import pytest


def naive_znormalize(x):
    x = np.asarray(x, dtype=float)
    return (x - x.mean()) / x.std()


def naive_znorm_distance(q, w):
    return float(np.linalg.norm(naive_znormalize(q) - naive_znormalize(w)))


def naive_distance_profile(q, t):
    """Per-window z-normalized distance, straight from the definition.
    Constant windows come back as NaN."""
    q = np.asarray(q, dtype=float)
    t = np.asarray(t, dtype=float)
    m = len(q)
    out = np.empty(len(t) - m + 1)
    for i in range(len(out)):
        w = t[i : i + m]
        if w.std() < 1e-12:
            out[i] = np.nan
        else:
            out[i] = naive_znorm_distance(q, w)
    return out


def naive_consensus(series_list, m):
    """Exhaustive minimax-radius consensus over all (series, offset)
    windows; mirrors the acceptance rule but with no vectorization."""
    best = None
    for si, s in enumerate(series_list):
        vals = np.asarray(s.values, dtype=float)
        for off in range(len(vals) - m + 1):
            q = vals[off : off + m]
            if q.std() < 1e-12:
                continue
            radius = 0.0
            ok = True
            for sj, other in enumerate(series_list):
                if sj == si:
                    continue
                prof = naive_distance_profile(q, other.values)
                if np.all(np.isnan(prof)):
                    ok = False
                    break
                radius = max(radius, np.nanmin(prof))
            if ok and (best is None or radius < best[0] - 1e-12):
                best = (radius, si, off)
    return best


def naive_self_consensus(series, m, excl=None):
    """Single-series variant with a trivial-match exclusion zone."""
    vals = np.asarray(series.values, dtype=float)
    excl = excl if excl is not None else math.ceil(m / 2)
    best = None
    for off in range(len(vals) - m + 1):
        q = vals[off : off + m]
        if q.std() < 1e-12:
            continue
        radius = np.inf
        for j in range(len(vals) - m + 1):
            if abs(j - off) < excl:
                continue
            w = vals[j : j + m]
            if w.std() < 1e-12:
                continue
            radius = min(radius, naive_znorm_distance(q, w))
        if np.isfinite(radius) and (best is None or radius < best[0] - 1e-12):
            best = (radius, off)
    return best


def naive_greedy_matches(profile, m, tau):
    """Greedy non-overlapping selection over a distance array."""
    d = np.array(profile, dtype=float)
    d[np.isnan(d)] = np.inf
    out = []
    while True:
        finite = d <= tau
        if not finite.any():
            break
        i = int(np.argmin(np.where(finite, d, np.inf)))
        out.append(i)
        lo = max(0, i - m + 1)
        d[lo : i + m] = np.inf
    return out


def naive_exhaustive_patterns(dataset, config):
    """Every non-constant window of every series that passes the coverage
    rule, as (repo, offset, length) keys: the candidates consensus mining
    picks one from per length, each counted with the naive profile and
    greedy selection above."""
    n_repos = len({s.repo_id for s in dataset})
    keys = set()
    for m in range(config.min_len, config.max_len + 1):
        eligible = [s for s in dataset if len(s) >= m]
        for s in eligible:
            for off in range(len(s) - m + 1):
                q = s.values[off : off + m]
                if q.std() < 1e-12:
                    continue
                covered = set()
                for other in eligible:
                    prof = naive_distance_profile(q, other.values)
                    n = len(naive_greedy_matches(prof, m, config.match_threshold))
                    if (config.min_matches_per_series <= n
                            <= config.max_matches_per_series):
                        covered.add(other.repo_id)
                if config.repo_coverage.accepts(len(covered), n_repos):
                    keys.add((s.repo_id, off, m))
    return keys


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
