"""Pull-request encoding, keyword labeling, random forest, two-stage
classification, and classification report math.

The forest is built from scratch: axis-aligned binary trees with Gini
splits, bootstrap sampling, and a random feature subset per node.  All
randomness comes from keyed draws (_draws): SplitMix64 outputs at counters
of a stream keyed by (seed, purpose, tree, depth), so each draw is a pure
function of where it is used.  Training rows are put into a canonical order
first, so results do not depend on input row order or on how nodes are
scheduled.

Training grows all trees level-wise.  The nodes of one depth that may
split, across all trees, draw their feature subsets in one keyed call, each
keyed by its tree and its left-to-right position among that tree's such
nodes, and are scored together in batched numpy passes (_best_splits).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import timeutil
from .errors import (NUMBER, PROBABILITY, SEED, TEXT, DegenerateData,
                     MissingCreationDate, at_least, need, need_rows, only)

MODEL_FORMAT_VERSION = 2

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

MISSING = -1.0  # sentinel for absent optional fields
_REAL = (int, float, np.integer, np.floating)  # bool and numpy scalars too


class CapaLabel(IntEnum):
    ADD_LINTER = 1
    COVERAGE = 2
    DOCUMENTATION = 3
    FUNCTIONAL_REQUIREMENTS = 4
    REFACTORING = 5
    UNSTABLE_BUILD = 6
    UNUSED = 7


class StageOneLabel(IntEnum):
    CAPA = 1
    NON_CAPA = 2


def _coerce(name, value) -> float:
    """One present PR field as a float, checked by its kind: a timestamp is
    a number or RFC 3339 text, a boolean a real bool, a count a number >= 0."""
    if name in TIMESTAMP_FIELDS and isinstance(value, str):
        try:
            return timeutil.from_rfc3339(value)
        except ValueError:
            raise ValueError(f"{name} is not an RFC 3339 date: {value!r}") from None
    is_boolean = name in BOOLEAN_FIELDS
    # only a boolean field takes a bool; the bound rejects NaN, inf and huge ints
    if (isinstance(value, bool) != is_boolean or not isinstance(value, _REAL)
            or not abs(value) <= sys.float_info.max):
        want = "true or false" if is_boolean else "a finite number"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    if name in COUNT_FIELDS and value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return float(value)


@dataclass
class PullRequestRecord:
    """One pull request with the 27 tabled metrics plus joining fields.

    fields maps each present metric to a float checked by _coerce; a None
    is absent and left out.  creation_date is mandatory.  Timestamps are
    POSIX seconds; text carries title/body for keyword labeling.
    """

    repo_id: str
    creation_date: float
    pr_id: str = ""
    text: str = ""
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.creation_date is None:
            raise MissingCreationDate("creation_date missing")
        need(vars(self), {"repo_id": TEXT, "text": TEXT})
        raw = {**self.fields, "creation_date": self.creation_date}
        unknown = set(raw) - set(FEATURE_ORDER)
        if unknown:
            raise ValueError(f"unknown metric fields: {sorted(unknown)}")
        # keyed by the FEATURE_ORDER strings, which every record shares
        self.fields = {name: _coerce(name, value) for name in FEATURE_ORDER
                       if (value := raw.get(name)) is not None}
        self.creation_date = self.fields["creation_date"]


def encode_features(pr: PullRequestRecord, reference_instant: float) -> np.ndarray:
    """Fixed-order 27-vector: counts as-is, booleans as 0/1, timestamps as
    seconds relative to reference_instant, absences as the -1 sentinel."""
    offset = dict.fromkeys(TIMESTAMP_FIELDS, float(reference_instant))
    out = np.array([pr.fields[name] - offset.get(name, 0.0) if name in pr.fields
                    else MISSING for name in FEATURE_ORDER])
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite feature value")
    return out


def label_by_keywords(pr_text: str, keyword_map=None, non_capa_keywords=None):
    """Case-insensitive phrase containment.  The first matching label in
    ascending label order wins; returns None when nothing matches."""
    keyword_map = keyword_map if keyword_map is not None else DEFAULT_KEYWORDS
    if not keyword_map:
        raise ValueError("keyword map must be non-empty")
    text = pr_text.lower()
    for label in sorted(keyword_map):
        if any(phrase.lower() in text for phrase in keyword_map[label]):
            return (StageOneLabel.CAPA, CapaLabel(label))
    non_capa = (non_capa_keywords if non_capa_keywords is not None
                else DEFAULT_NON_CAPA_KEYWORDS)
    if any(phrase.lower() in text for phrase in non_capa):
        return (StageOneLabel.NON_CAPA, None)
    return None


_LABELS = {label.name.lower(): label for label in CapaLabel}
# an empty phrase is in every text
_PHRASES = (lambda v: type(v) is list and all(isinstance(p, str) and p for p in v),
            "a list of non-empty strings")
_KEYWORD_MAP_PARTS = {
    # label names in any case, but each once
    "capa": (lambda v: type(v) is dict and len(v) > 0
             and len({n.lower() for n in v} & set(_LABELS)) == len(v),
             f"an object naming one or more distinct labels of {list(_LABELS)}"),
    "non_capa": _PHRASES}
_BUNDLED_KEYWORD_MAP = json.loads(
    (Path(__file__).parent / "data" / "default_keywords.json").read_text())


def load_keyword_map(doc: dict):
    """Parse {"capa": {label_name: [phrases]}, "non_capa": [phrases]}; a
    part left out is the bundled map's, and a document of any other shape
    raises ValueError, as does a key other than those two."""
    doc = only(need(doc, {}), _KEYWORD_MAP_PARTS, "keyword map")
    doc = need({**_BUNDLED_KEYWORD_MAP, **doc}, _KEYWORD_MAP_PARTS)
    capa = need(doc["capa"], dict.fromkeys(doc["capa"], _PHRASES))
    return {_LABELS[name.lower()]: phrases for name, phrases in capa.items()}, doc["non_capa"]


DEFAULT_KEYWORDS, DEFAULT_NON_CAPA_KEYWORDS = load_keyword_map({})


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# the purpose part of a draw's key
_SPLIT, _BOOTSTRAP, _FEATURES = 0, 1, 2


def _mix(z):
    """SplitMix64's output function on an array of uint64 (which wraps)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _draws(seed, purpose, tree, depth, counter):
    """Keyed uint64 draws, one per element of the broadcast tree and
    counter arrays: the counter-th output of the SplitMix64 stream whose
    state starts at the key, a hash of (seed, purpose, tree, depth).

    Counter-based generation (Salmon et al., SC 2011) with the SplitMix64
    mixer (Steele, Lea & Flood, OOPSLA 2014): no stream is consumed, so any
    subset of draws can be made in any order, and the words do not depend
    on numpy's Generator algorithms."""
    tree, counter = np.broadcast_arrays(np.asarray(tree, dtype=np.uint64),
                                        np.asarray(counter, dtype=np.uint64))
    key = np.zeros(counter.shape, dtype=np.uint64)
    for part in (seed, purpose, tree, depth):
        key = _mix(key ^ np.asarray(part, dtype=np.uint64))
    return _mix(key + _GAMMA * (counter + np.uint64(1)))


def _bootstrap(seed, tree, n):
    """The bootstrap sample of tree number tree: n integers in [0, n),
    ascending, each from the high 32 bits of a draw by multiply-shift."""
    high = _draws(seed, _BOOTSTRAP, tree, 0, np.arange(n)) >> np.uint64(32)
    return np.sort((high * np.uint64(n) >> np.uint64(32)).astype(np.intp))


def _feature_subsets(seed, depth, trees, positions, n_feat, k):
    """The ascending candidate features of nodes at depth: per node, the k
    features with the smallest of n_feat draws keyed by its tree and its
    position among the tree's nodes that may split at that depth."""
    counter = positions[:, None] * n_feat + np.arange(n_feat)
    words = _draws(seed, _FEATURES, trees[:, None], depth, counter)
    return np.sort(np.argsort(words, axis=1, kind="stable")[:, :k], axis=1)


def split_train_test(rows, labels, ratio: float, seed: int):
    """Stratified split into (train_idx, test_idx), deterministic per seed.

    Per class, round(ratio * n) rows go to train (never all or none when
    the class has >= 2 rows)."""
    need({"ratio": ratio, "seed": seed}, {"ratio": PROBABILITY, "seed": SEED})
    labels = np.asarray(labels)
    if len(rows) != len(labels):
        raise ValueError("rows and labels length mismatch")
    classes, codes = np.unique(labels, return_inverse=True)
    # all rows in random order
    order = np.argsort(_draws(seed, _SPLIT, 0, 0, np.arange(len(labels))), kind="stable")
    train, test = [], []
    for c, cls in enumerate(classes.tolist()):
        perm = order[codes[order] == c]  # the class's rows in random order
        if len(perm) < 2:
            raise ValueError(f"class {cls!r} has fewer than 2 rows")
        n_train = int(round(ratio * len(perm)))
        n_train = min(max(n_train, 1), len(perm) - 1)
        train.extend(perm[:n_train].tolist())
        test.extend(perm[n_train:].tolist())
    return sorted(train), sorted(test)


# The most (row, feature) values one split pass scores; a node with more
# gets a pass of its own.  Bounds the working memory of training.
_PASS_ELEMENTS = 8192


def _dense_ranks(XT):
    """Each value's rank among the distinct values of its feature row."""
    return np.array([np.unique(col, return_inverse=True)[1] for col in XT])


def _best_splits(XT, ranks, onehot, idxs, feats):
    """Best split of every node of a batch, all scored in one pass.

    XT is the training matrix transposed (features x rows), ranks its
    _dense_ranks and onehot its (rows x classes) label indicator.  Node j
    holds the rows idxs[j] and has the ascending candidate features
    feats[j], a (nodes x k) array.  Per node the result is None when no
    candidate feature has a valid boundary, else (weighted Gini, feature,
    threshold, left, right), each side its (rows, class counts): the rows
    at or below the threshold go left.

    Each (feature, node) pair is a segment of the node's values.  One
    argsort of (segment, rank) keys sorts every segment, one cumulative sum
    gives the class counts before every position, and the Gini is taken at
    every boundary between distinct values.  A node's first minimum in
    (feature, threshold) order wins, so ties break to the lowest feature,
    then the lowest threshold."""
    n_nodes, k = feats.shape
    sizes = np.array([len(idx) for idx in idxs])
    rows = np.concatenate(idxs)
    node = np.repeat(np.arange(n_nodes), sizes)
    # left_n: rows up to and including each position of its node
    left_n = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes) + 1
    n = sizes[node]
    fits = left_n < n
    # values laid out feature-major: the block of the t-th candidate
    # feature of every node, then the next t
    segment = np.arange(0, k * n_nodes, n_nodes)[:, None] + node
    key = (segment * ranks.shape[1] + ranks[feats.T[:, node], rows]).ravel()
    # the order of equal values cannot change the counts at a boundary
    # between distinct values, so the sort need not be stable
    order = np.argsort(key)
    key, sorted_rows = key[order], np.tile(rows, k)[order]
    cum = np.zeros((len(key) + 1, onehot.shape[1]), dtype=np.int32)
    np.cumsum(onehot[sorted_rows], axis=0, out=cum[1:])
    # split after position p: its left_n rows of the segment go left; fits
    # keeps p + 1 inside the segment
    valid = np.tile(fits, k)
    valid[:-1] &= key[:-1] < key[1:]
    cand = np.flatnonzero(valid)
    i = cand % len(rows)
    start = cand + 1 - left_n[i]
    left_counts = cum[cand + 1] - cum[start]
    right_counts = cum[start + n[i]] - cum[cand + 1]
    left_n, n = left_n[i], n[i]
    right_n = n - left_n
    p = left_counts / left_n[:, None]
    gl = 1.0 - np.sum(p * p, axis=1)
    p = right_counts / right_n[:, None]
    gr = 1.0 - np.sum(p * p, axis=1)
    g = (left_n * gl + right_n * gr) / n
    # a node's candidates come in (feature, threshold) order, interleaved
    # with other nodes', so its first minimum is its first hit
    cand_node = node[i]
    best_g = np.full(n_nodes, np.inf)
    np.minimum.at(best_g, cand_node, g)
    hits = np.flatnonzero(g == best_g[cand_node])
    hits = hits[np.unique(cand_node[hits], return_index=True)[1]]
    c, lo, hi = cand[hits], start[hits], start[hits] + n[hits]
    f = feats[cand_node[hits], c // len(rows)]
    above = XT[f, sorted_rows[c + 1]]
    thr = 0.5 * (XT[f, sorted_rows[c]] + above)
    # rows at or below thr go left: a midpoint that rounds up onto the
    # next value takes that value's rows too
    mid = np.where(thr < above, c + 1, np.searchsorted(key, key[c + 1], "right"))
    best = [None] * n_nodes
    for j, gini, feature, threshold, a, b, z, left_counts, right_counts in zip(
            cand_node[hits].tolist(), g[hits].tolist(), f.tolist(), thr.tolist(),
            lo.tolist(), mid.tolist(), hi.tolist(),
            (cum[mid] - cum[lo]).tolist(), (cum[hi] - cum[mid]).tolist()):
        if b < z:  # else every row went left
            best[j] = (gini, feature, threshold,
                       (sorted_rows[a:b].copy(), left_counts),
                       (sorted_rows[b:z].copy(), right_counts))
    return best


def _passes(step, k):
    """The entries of step, (idx, ...) each, cut into consecutive runs of
    at most _PASS_ELEMENTS values to score."""
    batch, size = [], 0
    for entry in step:
        if batch and size + k * len(entry[0]) > _PASS_ELEMENTS:
            yield batch
            batch, size = [], 0
        batch.append(entry)
        size += k * len(entry[0])
    if batch:
        yield batch


@dataclass
class RandomForest:
    classes: list
    trees: list

    def predict(self, X):
        """Majority vote over trees for each row of X; ties break to the
        lowest class id.

        Returns (labels, vote fractions), the fractions as a rows x classes
        array with columns in the order of self.classes."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected a rows x features matrix, got shape {X.shape}")
        feature, threshold, left, right, code = self._nodes
        n, n_trees = len(X), len(self.trees)
        rows = np.repeat(np.arange(n), n_trees)
        node = np.tile(np.arange(n_trees), n)  # tree t's root is node t
        # every (row, tree) pair descends one level per step
        active = np.flatnonzero(code[node] < 0)
        while len(active):
            nd = node[active]
            go_left = X[rows[active], feature[nd]] <= threshold[nd]
            node[active] = np.where(go_left, left[nd], right[nd])
            active = active[code[node[active]] < 0]
        n_classes = len(self.classes)
        votes = np.bincount(rows * n_classes + code[node],
                            minlength=n * n_classes).reshape(n, n_classes)
        labels = np.asarray(self.classes)[np.argmax(votes, axis=1)]
        return labels, votes / n_trees

    @functools.cached_property
    def _nodes(self):
        """The trees as parallel node arrays: feature, threshold, left and
        right child, and leaf class code (-1 at a split).  The roots come
        first, then children in the order they are reached."""
        nodes, left, right = list(self.trees), [], []
        for node in nodes:  # visits the children appended below as well
            if node["leaf"]:
                left.append(-1)
                right.append(-1)
            else:
                left.append(len(nodes))
                right.append(len(nodes) + 1)
                nodes += [node["left"], node["right"]]
        # argmax of the leaf counts, ties -> lowest class index
        code = [n["counts"].index(max(n["counts"])) if n["leaf"] else -1
                for n in nodes]
        return (np.array([n.get("feature", 0) for n in nodes], dtype=np.intp),
                np.array([n.get("threshold", 0.0) for n in nodes], dtype=float),
                np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                np.array(code, dtype=np.intp))

    def to_json(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "classes": [int(c) for c in self.classes],
            "trees": self.trees,
        }

    @classmethod
    def from_json(cls, doc: dict, n_features=None) -> "RandomForest":
        """The forest of a to_json document, checked by need: a document of
        another shape, or a node that is neither a leaf with a count per
        class nor a split on a feature index below n_features with two
        child nodes, raises ValueError."""
        need(doc, {
            "format_version": (lambda v: v == MODEL_FORMAT_VERSION, str(MODEL_FORMAT_VERSION)),
            "classes": (lambda v: type(v) is list and len(v) >= 2
                        and all(type(c) is int for c in v) and len(set(v)) == len(v),
                        "two or more distinct integers"),
            "trees": (lambda v: type(v) is list and len(v) > 0, "a non-empty list")})
        n_classes = len(doc["classes"])
        child = (lambda v: isinstance(v, dict), "a tree node")
        leaf = {"counts": (lambda v: type(v) is list and len(v) == n_classes
                           and all(type(c) is int and c >= 0 for c in v),
                           f"a list of {n_classes} integers >= 0")}
        split = {"leaf": (lambda v: v is False, "true or false"),
                 "feature": (lambda v: type(v) is int and v >= 0
                             and (n_features is None or v < n_features),
                             f"an index below {n_features}"),
                 "threshold": NUMBER, "left": child, "right": child}
        nodes = list(need_rows(doc, "trees", {})["trees"])
        for node in nodes:  # visits the children appended below as well
            if node.get("leaf") is True:
                need(node, leaf)
            else:
                nodes += [need(node, split)["left"], node["right"]]
        return cls(classes=doc["classes"], trees=doc["trees"])


def _canonical_order(X, y_codes):
    """Stable ordering by feature values then label, so training is
    invariant to the incoming row order."""
    keys = [y_codes] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def train_forest(X, y, n_estimators: int, seed: int) -> RandomForest:
    """Fit n_estimators Gini trees on bootstrap samples (Breiman 2001): each
    grown until its leaves are pure or cannot be split, with ceil(sqrt(n
    features)) candidate features per node."""
    need({"n_estimators": n_estimators, "seed": seed},
         {"n_estimators": at_least(1), "seed": SEED})
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(X) != len(y) or len(X) < 2:
        raise ValueError("need |X| == |y| >= 2")
    if not np.all(np.isfinite(X)):
        raise ValueError("training values must be finite")
    classes, y_codes = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise DegenerateData("training data has a single class")
    order = _canonical_order(X, y_codes)
    XT = np.ascontiguousarray(X[order].T)
    ranks = _dense_ranks(XT)
    onehot = np.eye(len(classes), dtype=np.int32)[y_codes[order]]
    n_feat, n = XT.shape
    k = math.ceil(math.sqrt(n_feat))
    trees, level = [], []
    for t in range(n_estimators):
        sample = _bootstrap(seed, t, n)
        trees.append({"leaf": True, "counts": onehot[sample].sum(axis=0).tolist()})
        level.append((sample, trees[-1], t))
    depth = 0
    # the impure leaves of this depth, tree by tree, left to right; an impure
    # leaf holds two or more rows
    while step := [(idx, node, t) for idx, node, t in level
                   if max(node["counts"]) < len(idx)]:
        tree_of = np.array([t for *_, t in step])
        first = np.searchsorted(tree_of, tree_of)  # index of each tree's first node
        feats = _feature_subsets(seed, depth, tree_of,
                                 np.arange(len(step)) - first, n_feat, k)
        step = [(idx, node, t, f) for (idx, node, t), f in zip(step, feats)]
        level = []
        for batch in _passes(step, k):
            splits = _best_splits(XT, ranks, onehot, [idx for idx, *_ in batch],
                                  np.array([f for *_, f in batch]))
            for (_, node, t, _), split in zip(batch, splits):
                if split is None:
                    continue
                _, f, thr, (left_idx, left_counts), (right_idx, right_counts) = split
                left = {"leaf": True, "counts": left_counts}
                right = {"leaf": True, "counts": right_counts}
                node.clear()
                node.update(leaf=False, feature=f, threshold=thr,
                            left=left, right=right)
                level += [(left_idx, left, t), (right_idx, right, t)]
        depth += 1
    return RandomForest(classes=classes.tolist(), trees=trees)


def classify_two_stage(stage1: RandomForest, stage2: RandomForest, X) -> list:
    """Stage 1 decides CAPA vs non-CAPA for each row of X; stage 2 runs only
    on the rows stage 1 calls CAPA.  One StageOneLabel.NON_CAPA or CapaLabel
    per row."""
    X = np.asarray(X, dtype=float)
    out = [StageOneLabel(label) for label in stage1.predict(X)[0].tolist()]
    capa = [i for i, label in enumerate(out) if label is StageOneLabel.CAPA]
    labels2, _ = stage2.predict(X[capa])
    for i, label in zip(capa, labels2.tolist()):
        out[i] = CapaLabel(label)
    return out


def _round2(value: float) -> float:
    return float(Decimal(repr(value)).quantize(Decimal("0.01"),
                                               rounding=ROUND_HALF_UP))


def report_row_from_counts(label, tp, tn, fp, fn) -> dict:
    """The class-report row of one-vs-rest counts, with precision, recall
    and F1 rounded half-up to 2 decimals; an undefined precision (no
    positive predictions) is reported as 0 with a flag."""
    undefined = (tp + fp) == 0
    pre = 0.0 if undefined else tp / (tp + fp)
    rec = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if (pre + rec) == 0 else 2 * pre * rec / (pre + rec)
    return {"label": int(label) if isinstance(label, (int, np.integer)) else label,
            "tp": tp, "tn": tn, "fp": fp, "fn": fn, "precision": _round2(pre),
            "recall": _round2(rec), "f1": _round2(f1), "precision_undefined": undefined}


def compute_report(y_true, y_pred, classes) -> dict:
    """The class-report document: one row of one-vs-rest counts and scores
    per class."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred length mismatch")
    rows = []
    for cls in classes:
        true, pred = y_true == cls, y_pred == cls
        tp = int(np.count_nonzero(true & pred))
        fp, fn = int(np.count_nonzero(pred)) - tp, int(np.count_nonzero(true)) - tp
        rows.append(report_row_from_counts(cls, tp, len(y_true) - tp - fp - fn, fp, fn))
    return {"rows": rows}
