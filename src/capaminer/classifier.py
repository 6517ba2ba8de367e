"""Keyword labeling, random forest, two-stage classification, and
classification report math.

The forest is built from scratch: axis-aligned binary trees with Gini
splits, bootstrap sampling, and a random feature subset per node.  All
randomness comes from keyed draws (_draws): SplitMix64 outputs at counters
of a stream keyed by (seed, purpose, tree, depth), so each draw is a pure
function of where it is used.  Training rows are put into a canonical order
first, so results do not depend on input row order or on how nodes are
scheduled.

Training grows all trees level-wise, each depth held as flat arrays.  The
nodes of one depth that may split, across all trees, draw their feature
subsets in one keyed call, each keyed by its tree and its left-to-right
position among that tree's such nodes, and are scored together in batched
numpy passes (_best_splits); their rows go to the children by one
comparison with the thresholds.  A forest is its node arrays.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import PROBABILITY, SEED, DegenerateData, at_least, need, only

MODEL_FORMAT_VERSION = 5


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


def label_by_keywords(pr_text: str, keyword_map, non_capa_keywords):
    """The label of pr_text by the lower-case phrases of load_keyword_map, one
    value as classify_two_stage gives it: the first CapaLabel, in ascending
    order, with a phrase in the lower-cased text, else StageOneLabel.NON_CAPA
    when a non-CAPA phrase is in it, else None."""
    text = pr_text.lower()
    for label, phrases in keyword_map.items():
        if any(phrase in text for phrase in phrases):
            return label
    if any(phrase in text for phrase in non_capa_keywords):
        return StageOneLabel.NON_CAPA
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
    (Path(__file__).parent / "data" / "default_keywords.json").read_text(encoding="utf-8"))


def load_keyword_map(doc: dict):
    """({CapaLabel: phrases} in ascending order, non-CAPA phrases), every
    phrase lower-cased, of {"capa": {label_name: [phrases]}, "non_capa":
    [phrases]}; a part left out is the bundled map's, and a document of any
    other shape raises ValueError, as does a key other than those two."""
    doc = only(need(doc, {}), _KEYWORD_MAP_PARTS, "keyword map")
    doc = need({**_BUNDLED_KEYWORD_MAP, **doc}, _KEYWORD_MAP_PARTS)
    capa = need(doc["capa"], dict.fromkeys(doc["capa"], _PHRASES))
    capa = {_LABELS[name.lower()]: [p.lower() for p in ps] for name, ps in capa.items()}
    return dict(sorted(capa.items())), [p.lower() for p in doc["non_capa"]]


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


def _bootstrap(seed, trees, n):
    """The bootstrap samples of the trees numbered trees, one row per tree:
    n integers in [0, n), ascending, each from the high 32 bits of a draw
    by multiply-shift."""
    high = _draws(seed, _BOOTSTRAP, np.asarray(trees)[:, None], 0, np.arange(n)) >> np.uint64(32)
    return np.sort((high * np.uint64(n) >> np.uint64(32)).astype(np.intp), axis=1)


def _feature_subsets(seed, depth, trees, positions, n_feat, k):
    """The ascending candidate features of nodes at depth: per node, the k
    features with the smallest of n_feat draws keyed by its tree and its
    position among the tree's nodes that may split at that depth."""
    counter = positions[:, None] * n_feat + np.arange(n_feat)
    words = _draws(seed, _FEATURES, trees[:, None], depth, counter)
    return np.sort(np.argsort(words, axis=1, kind="stable")[:, :k], axis=1)


def split_train_test(rows, labels, ratio: float, seed: int):
    """Stratified split into (train_idx, test_idx), deterministic per seed.

    Per class, round(ratio * n) rows go to train, never all or none.  Fewer
    than 2 classes, or a class of 1 row, is DegenerateData."""
    need({"ratio": ratio, "seed": seed}, {"ratio": PROBABILITY, "seed": SEED})
    labels = np.asarray(labels)
    if len(rows) != len(labels):
        raise ValueError("rows and labels length mismatch")
    classes, codes = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise DegenerateData("training needs labeled pull requests of 2 classes "
                             f"or more, got {len(classes)}")
    # all rows in random order
    order = np.argsort(_draws(seed, _SPLIT, 0, 0, np.arange(len(labels))), kind="stable")
    train, test = [], []
    for c, cls in enumerate(classes.tolist()):
        perm = order[codes[order] == c]  # the class's rows in random order
        if len(perm) < 2:
            raise DegenerateData(f"class {cls} has 1 labeled pull request, and "
                                 "training needs 2 of each class")
        n_train = int(round(ratio * len(perm)))
        n_train = min(max(n_train, 1), len(perm) - 1)
        train.extend(perm[:n_train].tolist())
        test.extend(perm[n_train:].tolist())
    return sorted(train), sorted(test)


# The most (row, feature) values one split pass scores; a node with more
# gets a pass of its own.  Bounds the working memory of training.
_PASS_ELEMENTS = 32768


def _levels(XT):
    """The distinct values of each feature row of XT: (ranks, values,
    offsets).  values holds each feature's distinct values, ascending,
    feature after feature, from offsets[f] to offsets[f + 1], and ranks[f, i]
    is the position of XT[f, i] among its feature's."""
    distinct = [np.unique(col, return_inverse=True) for col in XT]
    offsets = np.cumsum([0] + [len(values) for values, _ in distinct])
    return (np.array([ranks for _, ranks in distinct], dtype=np.int32),
            np.concatenate([values for values, _ in distinct]), offsets)


def _class_sums(terms):
    """The column sums of a (classes x candidates) array, bit for bit those
    of a sum over each candidate's row of class terms: numpy adds a row of
    fewer than 8 values in order, as a sum over axis 0 does, and a longer
    one pairwise."""
    if len(terms) < 8:
        return np.sum(terms, axis=0)
    return np.sum(np.ascontiguousarray(terms.T), axis=1)


def _best_splits(ranks, values, offsets, y, rows, sizes, feats, counts):
    """Best split of every node of a pass, all scored together.

    ranks, values and offsets are the _levels of the training matrix, and y
    its class codes.  The nodes' rows are laid out node after node in rows,
    node j holding sizes[j] of them, the class counts counts[j] and the
    ascending candidate features feats[j].  Returns per node (weighted
    Gini, feature, threshold, left class counts): the rows at or below the
    threshold go left, and the feature is -1 where no candidate feature has
    a valid boundary.

    Each (feature, node) pair is a segment of the node's values, and its
    distinct values, in ascending order, are its groups.  A segment whose
    feature has at most as many distinct training values as the node has
    rows takes its groups' class counts from one bincount over its values'
    ranks, an exact histogram; the other segments are sorted by rank.  The
    candidate cuts are the boundaries between consecutive groups of a
    segment, less those inside a run of groups of one class in a node of
    two or more classes (Fayyad & Irani, Machine Learning 8, 1992).  Along
    such a run the weighted Gini is concave in the rows moved left, so an
    inner cut scores above one of the run's end cuts, or ties with both;
    a run that starts or ends its segment has one end cut, towards which
    the Gini falls strictly.  A node's first minimum in (feature,
    threshold) order wins, so ties break to the lowest feature, then the
    lowest threshold, and a dropped cut is never that minimum."""
    n_nodes, k = feats.shape
    n_classes, n_rows = counts.shape[1], ranks.shape[1]
    # segment t * n_nodes + j is the t-th candidate feature of node j; a
    # histogram segment has a bin per distinct value of its feature, and
    # after all of those each sorted segment has a bin per row
    n_values = np.diff(offsets)[feats.T]
    hist = n_values <= sizes
    hist_bins = np.where(hist, n_values, 0).ravel()
    sort_bins = np.where(hist, 0, sizes).ravel()
    n_hist = int(hist_bins.sum())
    n_bins = n_hist + int(sort_bins.sum())
    first_bin = np.where(hist.ravel(), np.cumsum(hist_bins) - hist_bins,
                         n_hist + np.cumsum(sort_bins) - sort_bins).astype(np.int32)
    # per value, its segment's first bin and its rank (np.repeat along the
    # rows is an order of magnitude faster than indexing by node)
    base = np.repeat(first_bin.reshape(k, n_nodes), sizes, axis=1)
    rank = np.take(ranks, np.repeat(feats.T * n_rows, sizes, axis=1) + rows)
    y = y[rows]
    # each value's (class, bin) in a classes-major bincount
    index = y.astype(np.int64) * n_bins + (base + rank)
    # a sorted segment's values, ordered by (segment, rank, class): each
    # one's bin is the place of the first value of its group
    sort = np.flatnonzero(~np.repeat(hist, sizes, axis=1))
    key = ((base.ravel()[sort].astype(np.int64) * n_rows + rank.ravel()[sort]) * n_classes
           + y[sort % len(y)])
    del base, rank
    key.sort()
    value = key // n_classes
    place = np.arange(len(key))
    place = np.maximum.accumulate(np.where(np.r_[True, value[1:] != value[:-1]], place, 0))
    index.ravel()[sort] = (key - value * n_classes) * n_bins + n_hist + place
    del sort, key, place
    grouped = np.bincount(index.ravel(), minlength=n_classes * n_bins)
    grouped = grouped.reshape(n_classes, n_bins)
    del index
    total = grouped.sum(axis=0)
    present = np.flatnonzero(total)
    # row counts and class counts, classes major, of the groups before each
    cum_n = np.zeros(len(present) + 1, dtype=np.int32)
    np.cumsum(total[present], out=cum_n[1:])
    del total
    cum = np.zeros((n_classes, len(present) + 1), dtype=np.int32)
    for c in range(n_classes):  # a class at a time, to hold fewer copies
        cum[c, 1:] = np.cumsum(np.take(grouped[c], present))
    del grouped
    # the segments in the order of their bins, and each group's place in it
    layout = np.argsort(first_bin)
    in_layout = np.searchsorted(first_bin[layout], present, "right") - 1
    group_seg = layout[in_layout]
    # drop the cuts inside a one-class run: two groups of one class together
    one_class = np.max(cum[:, 2:] - cum[:, :-2], axis=0) == cum_n[2:] - cum_n[:-2]
    mixed = (counts.max(axis=1) < sizes)[group_seg[:-1] % n_nodes]
    cand = np.flatnonzero((in_layout[:-1] == in_layout[1:]) & ~(one_class & mixed))
    del one_class, mixed
    cand_seg = group_seg[cand]
    start = np.searchsorted(in_layout, in_layout[cand])
    cand_node = cand_seg % n_nodes
    del in_layout, group_seg
    # the cut after group c: groups start..c of the segment go left (take
    # keeps classes major, where cum[:, index] would not)
    left_counts = np.take(cum, cand + 1, axis=1) - np.take(cum, start, axis=1)
    left_n = cum_n[cand + 1] - cum_n[start]
    n = sizes[cand_node]
    right_n = n - left_n
    p = left_counts / left_n
    gl = 1.0 - _class_sums(p * p)
    p = (np.take(counts, cand_node, axis=0).T - left_counts) / right_n
    gr = 1.0 - _class_sums(p * p)
    g = (left_n * gl + right_n * gr) / n
    del left_counts, p, gl, gr
    best_g = np.full(n_nodes, np.inf)
    np.minimum.at(best_g, cand_node, g)
    hits = np.flatnonzero(g == best_g[cand_node])
    # a node's first hit in (feature, threshold) order
    hits = hits[np.lexsort((cand_seg[hits], cand_node[hits]))]
    won, first = np.unique(cand_node[hits], return_index=True)
    hits = hits[first]
    c, lo, seg = cand[hits], start[hits], cand_seg[hits]
    f = feats.T.ravel()[seg]
    # the ranks of the values on either side of the cut, from their bins
    bins = present[np.stack([c, c + 1])]
    rank = bins - first_bin[seg]
    by_sort = ~hist.ravel()[seg]
    rank[:, by_sort] = (value[bins[:, by_sort] - n_hist]
                        - first_bin[seg[by_sort]].astype(np.int64) * n_rows)
    below, above = values[offsets[f] + rank]
    # halves add without overflow, and a midpoint that rounds onto the value
    # above falls back to the value below, as scikit-learn's BestSplitter
    # does, so the threshold separates the groups of the cut
    thr = 0.5 * below + 0.5 * above
    thr = np.where(thr < above, thr, below)
    gini, feature = np.full(n_nodes, np.nan), np.full(n_nodes, -1)
    threshold = np.zeros(n_nodes)
    left = np.zeros((n_nodes, n_classes), dtype=np.int32)
    gini[won], feature[won], threshold[won] = g[hits], f, thr
    left[won] = (cum[:, c + 1] - cum[:, lo]).T
    return gini, feature, threshold, left


def _passes(sizes, k):
    """Consecutive runs [a, b) of the nodes of a depth, node j holding
    sizes[j] rows, each run at most _PASS_ELEMENTS values (k per row) to
    score; a node with more gets a pass of its own."""
    ends = k * np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        b = max(int(np.searchsorted(ends, ends[a] - k * sizes[a] + _PASS_ELEMENTS,
                                    "right")), a + 1)
        yield a, b
        a = b


def _entries(doc, key, kinds, lo, hi, size):
    """doc[key] as an array, after checking that it is a list of size
    entries, each of a type in kinds and in [lo, hi]; else a ValueError
    naming the length, or the first entry that is not."""
    entries = need(doc, {key: (lambda v: type(v) is list, "a list")})[key]
    if len(entries) != size:
        raise ValueError(f"{key} must hold {size} entries, got {len(entries)}")
    if set(map(type, entries)) <= kinds and (not entries or lo <= min(entries)
                                             and max(entries) <= hi):
        array = np.array(entries, dtype=float if float in kinds else np.intp)
        if np.all(np.isfinite(array)):  # min and max may pass over a NaN
            return array
    i = next(i for i, v in enumerate(entries) if not (type(v) in kinds and lo <= v <= hi))
    want = "a finite number" if float in kinds else f"an integer in [{lo}, {hi}]"
    raise ValueError(f"{key}[{i}] must be {want}, got {entries[i]!r}")


@dataclass(eq=False)
class RandomForest:
    """A forest as node arrays: split feature (-1 at a leaf), threshold and
    class counts, nodes x classes.  Node t is the root of tree t, then come
    the splits' children, a pair per split in split order, so left (-1 at a
    leaf; the right child is left + 1) follows from the split features."""
    classes: list
    n_trees: int
    feature: np.ndarray
    threshold: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        split = self.feature >= 0
        self.left = np.where(split, self.n_trees + 2 * np.cumsum(split) - 2, -1)

    def predict(self, X):
        """Majority vote over trees for each row of X; ties break to the
        lowest class id.

        Returns (labels, vote fractions), the fractions as a rows x classes
        array with columns in the order of self.classes."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected a rows x features matrix, got shape {X.shape}")
        feature, threshold, left, n_trees = self.feature, self.threshold, self.left, self.n_trees
        rows, node = np.divmod(np.arange(len(X) * n_trees), n_trees)
        # every (row, tree) pair descends one level per step
        active = np.flatnonzero(left[node] >= 0)
        while len(active):
            nd = node[active]
            node[active] = left[nd] + ~(X[rows[active], feature[nd]] <= threshold[nd])
            active = active[left[node[active]] >= 0]
        n_classes = len(self.classes)
        # a leaf's class is the argmax of its counts, ties -> lowest class index
        code = np.argmax(self.counts, axis=1)[node]
        votes = np.bincount(rows * n_classes + code,
                            minlength=len(X) * n_classes).reshape(len(X), n_classes)
        labels = np.asarray(self.classes)[np.argmax(votes, axis=1)]
        return labels, votes / n_trees

    @property
    def trees(self):
        """The trees as nested dicts ({"leaf", "counts"} or {"leaf", "feature",
        "threshold", "left", "right"}), rendered on each read and never
        stored: a view for the tests' oracles and perfbench's node counter."""
        nodes = [{"leaf": True, "counts": c} for c in self.counts.tolist()]
        for node, f, thr, child in zip(nodes, self.feature.tolist(),
                                       self.threshold.tolist(), self.left.tolist()):
            if child >= 0:
                del node["counts"]
                node.update(leaf=False, feature=f, threshold=thr, left=nodes[child],
                            right=nodes[child + 1])
        return nodes[:self.n_trees]

    def to_json(self) -> dict:
        return {"format_version": MODEL_FORMAT_VERSION,
                "classes": [int(c) for c in self.classes], "n_trees": self.n_trees,
                **{key: getattr(self, key).ravel().tolist()
                   for key in ("feature", "threshold", "counts")}}

    @classmethod
    def from_json(cls, doc: dict, n_features: int) -> "RandomForest":
        """The forest of a to_json document, checked: another shape, other than
        n_trees nodes and two per split, or a split after its children raises
        ValueError, so each node but a root is the child of one earlier split."""
        need(doc, {
            "format_version": (lambda v: v == MODEL_FORMAT_VERSION, str(MODEL_FORMAT_VERSION)),
            "classes": (lambda v: type(v) is list and len(v) >= 2
                        and all(type(c) is int for c in v) and len(set(v)) == len(v),
                        "two or more distinct integers"),
            "feature": (lambda v: type(v) is list, "a list")})
        n, n_classes = len(doc["feature"]), len(doc["classes"])
        n_trees = need(doc, {"n_trees": (lambda v: type(v) is int and 1 <= v <= n,
                                         f"an integer in [1, {n}]")})["n_trees"]
        feature, threshold, counts = (_entries(doc, key, *spec) for key, spec in {
            "feature": ({int}, -1, n_features - 1, n),
            "threshold": ({int, float}, -sys.float_info.max, sys.float_info.max, n),
            "counts": ({int}, 0, 2**31 - 1, n * n_classes)}.items())
        forest = cls(doc["classes"], n_trees, feature, threshold, counts.reshape(n, n_classes))
        if n != (want := n_trees + 2 * int(np.count_nonzero(feature >= 0))):
            raise ValueError(f"feature must hold n_trees + 2 per split = {want} entries, got {n}")
        for i in np.flatnonzero((feature >= 0) & (forest.left <= np.arange(n)))[:1]:
            raise ValueError(f"split {i} must come before its left child, got {forest.left[i]}")
        return forest


def _canonical_order(X, y_codes):
    """Stable ordering by feature values then label, so training is
    invariant to the incoming row order."""
    keys = [y_codes] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def train_forest(X, y, n_estimators: int, seed: int) -> RandomForest:
    """Fit n_estimators Gini trees on bootstrap samples (Breiman 2001): each
    grown until its leaves are pure or cannot be split, with ceil(sqrt(n
    features)) candidate features per node.

    All trees grow a depth at a time.  A depth is flat arrays: the rows of
    its impure nodes laid out node after node, and per node its tree, row
    count and class counts.  Its nodes are scored in passes of whole nodes
    (_passes, _best_splits), and a split node's rows at or below its
    threshold go to the left child.  Node ids follow the depths: a depth's
    nodes take the ids after the last depth's, a split node's children in
    the order of its id, left child first, so a depth's nodes, in id order,
    are its trees' nodes from left to right, tree after tree."""
    need({"n_estimators": n_estimators, "seed": seed},
         {"n_estimators": at_least(1), "seed": SEED})
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("expected a rows x features matrix with a feature or "
                         f"more, got shape {X.shape}")
    if len(X) != len(y) or len(X) < 2:
        raise ValueError("need |X| == |y| >= 2")
    if not np.all(np.isfinite(X)):
        raise ValueError("training values must be finite")
    classes, y_codes = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise DegenerateData("training data has a single class")
    order = _canonical_order(X, y_codes)
    XT = np.ascontiguousarray(X[order].T)
    y_codes = y_codes[order].astype(np.int32)
    ranks, values, offsets = _levels(XT)
    n_feat, n = XT.shape
    k = math.ceil(math.sqrt(n_feat))
    # a depth is flat arrays: its nodes' rows node after node, and per node
    # its tree, row count and class counts, the nodes in id order
    tree = np.arange(n_estimators)
    rows = _bootstrap(seed, tree, n).astype(np.int32).ravel()
    sizes = np.full(n_estimators, n)
    counts = np.bincount(np.repeat(tree, n) * len(classes) + y_codes[rows],
                         minlength=n_estimators * len(classes))
    counts = counts.reshape(n_estimators, -1).astype(np.int32)
    # per depth, its nodes' split feature, threshold and class counts
    arrays, depth = [], 0
    while True:
        node_feature, node_threshold = np.full(len(counts), -1), np.zeros(len(counts))
        arrays.append((node_feature, node_threshold, counts))
        # only an impure node, one of two or more rows, may split
        impure = counts.max(axis=1) < sizes
        rows = rows[np.repeat(impure, sizes)]
        tree, sizes, counts = tree[impure], sizes[impure], counts[impure]
        if not len(tree):
            break
        # each node's place among its tree's, left to right
        position = np.arange(len(tree)) - np.searchsorted(tree, tree)
        feats = _feature_subsets(seed, depth, tree, position, n_feat, k)
        ends = np.cumsum(sizes)
        _, feature, threshold, left = map(np.concatenate, zip(*(
            _best_splits(ranks, values, offsets, y_codes, rows[ends[a] - sizes[a]:ends[b - 1]],
                         sizes[a:b], feats[a:b], counts[a:b]) for a, b in _passes(sizes, k))))
        node_feature[impure], node_threshold[impure] = feature, threshold
        # (a node that does not split reads feature -1, and is left out below)
        go_left = np.take(XT, np.repeat(feature * n, sizes) + rows) <= np.repeat(threshold, sizes)
        # the next depth, in id order: per split node, its rows that go left,
        # then its other rows
        split = np.flatnonzero(feature >= 0)
        on_split = np.repeat(feature >= 0, sizes)
        child = np.repeat(2 * np.arange(len(tree)), sizes) + ~go_left
        rows = rows[on_split][np.argsort(child[on_split], kind="stable")]
        counts = np.stack([left[split], counts[split] - left[split]], 1).reshape(-1, len(classes))
        sizes = counts.sum(axis=1)
        tree = np.repeat(tree[split], 2)
        depth += 1
    # ids go by depth, which is RandomForest's layout
    return RandomForest(classes.tolist(), n_estimators, *map(np.concatenate, zip(*arrays)))


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
