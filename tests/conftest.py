import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_capaminer(*args, code=0, env=None):
    """Run `python -m capaminer.cli` on args from the repository root, in a
    fresh process of this interpreter, with this checkout's src/ first on
    PYTHONPATH and env over os.environ.  Checks that it exits with code and
    prints no traceback, and returns the CompletedProcess, its output as
    text."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-m", "capaminer.cli", *map(str, args)],
                           cwd=ROOT, capture_output=True, text=True, encoding="utf-8",
                           env={**os.environ, "PYTHONPATH": path, **(env or {})})
    assert child.returncode == code, child.stderr
    assert "Traceback" not in child.stderr, child.stderr
    return child


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


def naive_first_minimum(radii):
    """The first of radii, tuples led by a radius, whose radius is below
    every earlier one by more than 1e-12; None when radii is empty."""
    best = None
    for cand in radii:
        if best is None or cand[0] < best[0] - 1e-12:
            best = cand
    return best


def naive_consensus_radii(series_list, m):
    """(radius, series, offset) of every window of series_list, in (series,
    offset) order, that is not constant and has a non-constant window in
    every other series; the radius is the max over the other series of the
    min distance to their windows."""
    out = []
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
            if ok:
                out.append((radius, si, off))
    return out


def naive_consensus(series_list, m):
    """Exhaustive minimax-radius consensus over all (series, offset)
    windows; mirrors the acceptance rule but with no vectorization."""
    return naive_first_minimum(naive_consensus_radii(series_list, m))


def naive_self_consensus_radii(series, m, excl=None):
    """(radius, offset) of every non-constant window of a single series
    with a non-constant window outside its trivial-match exclusion zone."""
    vals = np.asarray(series.values, dtype=float)
    excl = excl if excl is not None else math.ceil(m / 2)
    out = []
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
        if np.isfinite(radius):
            out.append((radius, off))
    return out


def naive_self_consensus(series, m, excl=None):
    """Single-series variant with a trivial-match exclusion zone."""
    return naive_first_minimum(naive_self_consensus_radii(series, m, excl))


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
    picks one from per length, each matched with the naive profile and
    greedy selection above.  A repository is covered when one of its series
    has a match; a window passes when the covered share of all repositories
    is at least min_repo_fraction."""
    repos = {s.repo_id for s in dataset}
    keys = set()
    for m in range(config.min_len, config.max_len + 1):
        eligible = [s for s in dataset if len(s) >= m]
        for s in eligible:
            for off in range(len(s) - m + 1):
                q = s.values[off : off + m]
                if q.std() < 1e-12:
                    continue
                covered = {other.repo_id for other in eligible
                           if naive_greedy_matches(
                               naive_distance_profile(q, other.values), m,
                               config.match_threshold)}
                if len(covered) / len(repos) >= config.min_repo_fraction:
                    keys.add((s.repo_id, off, m))
    return keys


def naive_best_split(X, y_codes, n_classes, feat_idx):
    """Best (weighted Gini, feature, threshold) over the candidate features
    of a node's rows X, searched one feature at a time with the same
    arithmetic as the forest's one-pass kernel: ties go to the lowest
    feature, then the lowest threshold, and the threshold is the midpoint of
    the values on either side of the cut, or the lower one where the
    midpoint rounds onto the upper; None when nothing can be split."""
    n = len(y_codes)
    best = None
    onehot = np.eye(n_classes)[y_codes]
    for f in feat_idx:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cum = np.cumsum(onehot[order], axis=0)
        # split after position i: left = rows [0..i], i in [0, n-2]
        boundaries = np.flatnonzero(sv[:-1] < sv[1:])
        if len(boundaries) == 0:
            continue
        left_n = boundaries + 1
        right_n = n - left_n
        left_counts = cum[boundaries]
        right_counts = cum[-1] - left_counts
        p = left_counts / left_n[:, None]
        gl = 1.0 - np.sum(p * p, axis=1)
        p = right_counts / right_n[:, None]
        gr = 1.0 - np.sum(p * p, axis=1)
        g = (left_n * gl + right_n * gr) / n
        i = int(np.argmin(g))
        below, above = sv[boundaries[i]], sv[boundaries[i] + 1]
        thr = 0.5 * below + 0.5 * above
        if thr >= above:  # the midpoint rounded onto the value above
            thr = below
        cand = (float(g[i]), int(f), float(thr))
        if best is None or cand < best:
            best = cand
    return best


def naive_forest_trees(X, y, n_estimators, seed):
    """The trees of train_forest(X, y, n_estimators, seed), grown one after
    another and level by level with naive_best_split, as nested dicts.  Rows
    are put in canonical order (by feature values, then label); each tree
    draws its bootstrap sample, and each impure leaf draws its ceil(sqrt(n
    features)) candidate features, from _draws keyed as the docstrings of
    _bootstrap and _feature_subsets say, worked out here one node at a
    time."""
    from capaminer.classifier import _BOOTSTRAP, _FEATURES, _draws

    classes = np.unique(y)
    y_codes = np.searchsorted(classes, y)
    order = np.lexsort([y_codes] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)])
    X, y_codes = X[order], y_codes[order]
    n, n_feat = X.shape
    k = math.ceil(math.sqrt(n_feat))

    def leaf(idx):
        return {"leaf": True,
                "counts": np.bincount(y_codes[idx], minlength=len(classes)).tolist()}

    trees = []
    for t in range(n_estimators):
        words = _draws(seed, _BOOTSTRAP, t, 0, np.arange(n)).tolist()
        sample = np.array(sorted((w >> 32) * n >> 32 for w in words))
        trees.append(leaf(sample))
        level, depth = [(sample, trees[-1])], 0
        while level:
            impure = [(idx, node) for idx, node in level
                      if max(node["counts"]) < len(idx)]
            level = []
            for position, (idx, node) in enumerate(impure):
                words = _draws(seed, _FEATURES, t, depth,
                               position * n_feat + np.arange(n_feat)).tolist()
                feat_idx = sorted(sorted(range(n_feat), key=lambda f: (words[f], f))[:k])
                best = naive_best_split(X[idx], y_codes[idx], len(classes), feat_idx)
                if best is None:
                    continue
                _, f, thr = best
                mask = X[idx, f] <= thr
                left, right = leaf(idx[mask]), leaf(idx[~mask])
                node.clear()
                node.update(leaf=False, feature=f, threshold=thr, left=left, right=right)
                level += [(idx[mask], left), (idx[~mask], right)]
            depth += 1
    return trees


def naive_predict(forest, X):
    """Each row of X walked down each nested-dict tree of forest.trees; per
    row the majority vote with ties to the lowest class, as (label, {class:
    vote fraction})."""
    trees, out = forest.trees, []
    for x in X:
        votes = np.zeros(len(forest.classes))
        for node in trees:
            while not node["leaf"]:
                go_left = x[node["feature"]] <= node["threshold"]
                node = node["left"] if go_left else node["right"]
            votes[int(np.argmax(node["counts"]))] += 1
        fractions = votes / votes.sum()
        label = forest.classes[int(np.argmax(votes))]
        out.append((label, dict(zip(forest.classes, fractions.tolist()))))
    return out


def naive_classify_two_stage(stage1, stage2, X):
    """Per-row two-stage classification: a row's stage-2 label only when
    stage 1 says CAPA."""
    from capaminer.classifier import CapaLabel, StageOneLabel

    return [StageOneLabel.NON_CAPA
            if StageOneLabel(first) is StageOneLabel.NON_CAPA else CapaLabel(second)
            for (first, _), (second, _) in zip(naive_predict(stage1, X),
                                              naive_predict(stage2, X))]


def random_and_tiled_windows(rng, m, n):
    """Valid length-m z-windows of a random series of n points and of one
    tiled from a random base of at most m points, whose windows repeat bit
    for bit."""
    from capaminer.tsdist import znormalized_windows

    base = rng.normal(size=int(rng.integers(2, m + 1)))
    for t in (rng.normal(0, 3, n), np.resize(base, n)):
        z, valid = znormalized_windows(t, m)
        yield z[valid]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
