import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def child_env(env=None):
    """os.environ with this checkout's src/ first on PYTHONPATH, and env over it."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **(env or {})}


def run_capaminer(*args, code=0, env=None):
    """Run `python -m capaminer.cli` on args from the repository root, in a
    fresh process of this interpreter, with this checkout's src/ first on
    PYTHONPATH and env over os.environ.  Checks that it exits with code and
    prints no traceback, and returns the CompletedProcess, its output as
    text."""
    child = subprocess.run([sys.executable, "-m", "capaminer.cli", *map(str, args)],
                           cwd=ROOT, capture_output=True, text=True, encoding="utf-8",
                           env=child_env(env))
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


def oracle_coerce(name, raw):
    """One present PR field as its feature value, checked by its kind, one
    field at a time, as the loaders did before their column passes."""
    from capaminer import timeutil
    from capaminer.errors import NUMBER
    from capaminer.ingestion import BOOLEAN_FIELDS, COUNT_FIELDS, TIMESTAMP_FIELDS

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


def oracle_pull_requests(numbered, noun="line"):
    """ingestion.pull_requests as a loop that checks each object as it
    comes, field by field with oracle_coerce, and stops at the first
    defect: the reference for the builder's column passes."""
    from capaminer.errors import TEXT, need
    from capaminer.ingestion import FEATURE_ORDER, MISSING, PR_ID, PullRequests

    first, texts, rows = {}, [], []
    for n, obj in numbered:
        where = f"{noun} {n}"
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: not a JSON object")
        id_key = next((k for k in ("pr_id", "pull_request_number")
                       if obj.get(k) is not None), None)
        text, repo_id = obj.get("text"), obj.get("repo_id", "")
        try:
            pr_id = str(need(obj, {id_key: PR_ID})[id_key] if id_key else n)
            if text in (None, ""):
                parts = {k: obj[k] for k in ("title", "body") if obj.get(k) is not None}
                text = " ".join(need(parts, dict.fromkeys(parts, TEXT)).values()).strip()
            if obj.get("creation_date") is None:
                raise ValueError("creation_date missing")
            need({"repo_id": repo_id, "text": text}, {"repo_id": TEXT, "text": TEXT})
            rows.append([MISSING if (v := obj.get(name)) is None
                         else oracle_coerce(name, v) for name in FEATURE_ORDER])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if (earlier := first.setdefault((repo_id, pr_id), n)) != n:
            raise ValueError(f"{where}: pull request {pr_id!r} of {repo_id!r} "
                             f"repeats {noun} {earlier}")
        texts.append(text)
    return PullRequests([r for r, _ in first], [p for _, p in first], texts,
                        np.array(rows, dtype=float).reshape(len(rows), len(FEATURE_ORDER)))


def oracle_load_prs_jsonl(path):
    """ingestion.load_prs_jsonl over oracle_pull_requests."""
    import json

    def objects(fh):
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError):
                    raise ValueError(f"malformed JSON at line {line_no}") from None
                yield line_no, obj

    with open(path, encoding="utf-8-sig") as fh:
        return oracle_pull_requests(objects(fh))


def oracle_load_metrics_csv(path):
    """ingestion.load_metrics_csv as a loop that checks each row as it
    comes, each value by float() and math.isfinite, and stops at the first
    defect: the reference for the loader's column passes."""
    import csv

    from capaminer import timeutil
    from capaminer.ingestion import CSV_HEADER, METRIC_COLUMNS
    from capaminer.tsdist import MetricSeries

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, header, row_no = csv.reader(fh), None, 0
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file, no header")
            if missing := [c for c in CSV_HEADER if c not in header]:
                raise ValueError(f"missing column(s): {', '.join(missing)}")
            if repeated := [c for c in CSV_HEADER if header.count(c) > 1]:
                raise ValueError(f"the header: repeated column(s): {', '.join(repeated)}")
            col = {name: header.index(name) for name in CSV_HEADER}
            per_repo = {}
            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"row {row_no} has {len(row)} cells, "
                                     f"the header {len(header)}")
                try:
                    ts = timeutil.from_rfc3339(row[col["timestamp"]])
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
                per_repo.setdefault(row[col["repo_id"]], []).append((ts, vals, row_no))
        except csv.Error as exc:
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


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process, running or unreaped: the
    mine lane of every pipeline that a test runs in this process, and any
    process that a test starts, must be reaped before it ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
