"""Pull-request encoding, keyword labeling, random forest, two-stage
classification, and classification report math.

The forest is built from scratch: axis-aligned binary trees with Gini
splits, bootstrap sampling, and a random feature subset per node.  All
randomness derives from (seed, estimator index), and training rows are put
into a canonical order first, so results do not depend on input row order
or on how estimators are scheduled.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import IntEnum

import numpy as np

from . import timeutil
from .errors import DegenerateData, MissingCreationDate

MODEL_FORMAT_VERSION = 1

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


DEFAULT_KEYWORDS = {
    CapaLabel.ADD_LINTER: ["linter", "lint rule", "eslint", "pylint",
                           "flake8", "rubocop", "checkstyle", "clippy"],
    CapaLabel.COVERAGE: ["coverage", "add tests", "add unit tests",
                         "increase test", "codecov"],
    CapaLabel.DOCUMENTATION: ["documentation", "readme", "docs", "docstring",
                              "changelog"],
    CapaLabel.FUNCTIONAL_REQUIREMENTS: ["functional requirement",
                                        "implement feature",
                                        "add feature", "new feature"],
    CapaLabel.REFACTORING: ["refactor", "clean up", "cleanup", "simplify",
                            "restructure"],
    CapaLabel.UNSTABLE_BUILD: ["unstable build", "fix build", "flaky",
                               "fix ci", "broken build"],
    CapaLabel.UNUSED: ["unused", "dead code", "remove unused",
                       "delete unused"],
}
DEFAULT_NON_CAPA_KEYWORDS = ["fix bug", "bugfix", "hotfix", "bump version",
                             "release", "merge branch"]


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


def _phrases(value, what):
    if not (isinstance(value, list) and all(isinstance(p, str) for p in value)):
        raise ValueError(f"{what} must be a list of strings, got {value!r}")
    return list(value)


def load_keyword_map(doc: dict):
    """Parse {"capa": {label_name: [phrases]}, "non_capa": [phrases]}; a
    document of any other shape raises ValueError."""
    capa = doc.get("capa", {}) if isinstance(doc, dict) else None
    if not isinstance(capa, dict):
        raise ValueError('expected {"capa": {label: [phrases]}, "non_capa": [phrases]}')
    by_name = {l.name.lower(): l for l in CapaLabel}
    kmap = {}
    for name, phrases in capa.items():
        if name.lower() not in by_name:
            raise ValueError(f"unknown CAPA label {name!r}")
        kmap[by_name[name.lower()]] = _phrases(phrases, f"phrases of {name!r}")
    non_capa = _phrases(doc.get("non_capa", DEFAULT_NON_CAPA_KEYWORDS), "non_capa")
    return kmap or DEFAULT_KEYWORDS, non_capa


def split_train_test(rows, labels, ratio: float, seed: int):
    """Stratified split into (train_idx, test_idx), deterministic per seed.

    Per class, round(ratio * n) rows go to train (never all or none when
    the class has >= 2 rows)."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    labels = np.asarray(labels)
    if len(rows) != len(labels):
        raise ValueError("rows and labels length mismatch")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 2:
            raise ValueError(f"class {cls!r} has fewer than 2 rows")
        n_train = int(round(ratio * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        perm = rng.permutation(idx)
        train.extend(perm[:n_train].tolist())
        test.extend(perm[n_train:].tolist())
    return sorted(train), sorted(test)


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 500
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None  # default ceil(sqrt(n_features))
    seed: int = 0


def _best_split(XT, onehot, idx, feat_idx, min_leaf):
    """Best (weighted Gini, feature, threshold) of the node holding rows idx,
    or None when no candidate feature has a valid boundary.

    XT is the training matrix transposed (features x rows) and onehot its
    (rows x classes) label indicator.  All candidate features are scored in
    one pass: sort each column, accumulate class counts down it, and take
    the Gini of every boundary between distinct values that leaves at least
    min_leaf rows on both sides.  Ties break to the lowest feature index,
    then the lowest threshold."""
    n = len(idx)
    vals = XT[feat_idx[:, None], idx]                     # (k, n)
    # the order of equal values cannot change the counts at a boundary
    # between distinct values, so the sort need not be stable
    order = np.argsort(vals, axis=1)
    sv = np.sort(vals, axis=1)
    # class counts left of each position, (k, n, classes); the int8 one-hot
    # summed in int32 moves a fraction of the bytes of float64 on large
    # nodes, and the counts are exact either way
    cum = np.cumsum(onehot[idx[order]], axis=1, dtype=np.int32)
    # split after position i: left = rows [0..i], i in [0, n-2]
    valid = sv[:, :-1] < sv[:, 1:]
    valid[:, :min_leaf - 1] = False
    valid[:, max(n - min_leaf, 0):] = False
    col, pos = np.nonzero(valid)  # feature-major, then ascending threshold
    if len(col) == 0:
        return None
    left_counts = cum[col, pos]
    right_counts = cum[0, -1] - left_counts
    left_n = pos + 1
    right_n = n - left_n
    p = left_counts / left_n[:, None]
    gl = 1.0 - np.sum(p * p, axis=1)
    p = right_counts / right_n[:, None]
    gr = 1.0 - np.sum(p * p, axis=1)
    g = (left_n * gl + right_n * gr) / n
    i = int(np.argmin(g))
    c, b = col[i], pos[i]
    thr = 0.5 * (sv[c, b] + sv[c, b + 1])
    return float(g[i]), int(feat_idx[c]), float(thr)


def _grow_tree(XT, onehot, cfg, rng, depth, idx):
    counts = onehot[idx].sum(axis=0)
    leaf = {"leaf": True, "counts": counts.tolist()}
    if (len(idx) < 2 * cfg.min_samples_leaf
            or counts.max() == len(idx)
            or (cfg.max_depth is not None and depth >= cfg.max_depth)):
        return leaf
    n_feat = XT.shape[0]
    k = cfg.features_per_split or math.ceil(math.sqrt(n_feat))
    feat_idx = np.sort(rng.choice(n_feat, size=min(k, n_feat), replace=False))
    best = _best_split(XT, onehot, idx, feat_idx, cfg.min_samples_leaf)
    if best is None:
        return leaf
    _, f, thr = best
    mask = XT[f, idx] <= thr
    left_idx = idx[mask]
    right_idx = idx[~mask]
    if len(left_idx) == 0 or len(right_idx) == 0:
        return leaf
    return {
        "leaf": False,
        "feature": f,
        "threshold": thr,
        "left": _grow_tree(XT, onehot, cfg, rng, depth + 1, left_idx),
        "right": _grow_tree(XT, onehot, cfg, rng, depth + 1, right_idx),
    }


@dataclass
class RandomForest:
    config: ForestConfig
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
            "config": {
                "n_estimators": self.config.n_estimators,
                "max_depth": self.config.max_depth,
                "min_samples_leaf": self.config.min_samples_leaf,
                "features_per_split": self.config.features_per_split,
                "seed": self.config.seed,
            },
            "classes": [int(c) for c in self.classes],
            "trees": self.trees,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RandomForest":
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format {doc.get('format_version')}")
        return cls(config=ForestConfig(**doc["config"]),
                   classes=list(doc["classes"]), trees=doc["trees"])


def _canonical_order(X, y_codes):
    """Stable ordering by feature values then label, so training is
    invariant to the incoming row order."""
    keys = [y_codes] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def train_forest(X, y, config: ForestConfig = ForestConfig()) -> RandomForest:
    """Fit a random forest of Gini trees on bootstrap samples."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(X) != len(y) or len(X) < 2:
        raise ValueError("need |X| == |y| >= 2")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DegenerateData("training data has a single class")
    code_of = {c: i for i, c in enumerate(classes.tolist())}
    y_codes = np.array([code_of[v] for v in y.tolist()])
    order = _canonical_order(X, y_codes)
    XT = np.ascontiguousarray(X[order].T)
    onehot = np.eye(len(classes), dtype=np.int8)[y_codes[order]]
    n = len(X)
    trees = []
    for i in range(config.n_estimators):
        rng = np.random.default_rng([config.seed, i])
        sample = np.sort(rng.integers(0, n, size=n))
        trees.append(_grow_tree(XT, onehot, config, rng, 0, sample))
    return RandomForest(config=config, classes=classes.tolist(), trees=trees)


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


@dataclass(frozen=True)
class ClassReportRow:
    label: object
    tp: int
    tn: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    precision_undefined: bool = False

    def rounded(self):
        return (_round2(self.precision), _round2(self.recall), _round2(self.f1))


def report_row_from_counts(label, tp, tn, fp, fn) -> ClassReportRow:
    """Precision/recall/F1 from one-vs-rest counts; an undefined precision
    (no positive predictions) is reported as 0 with a flag."""
    undefined = (tp + fp) == 0
    pre = 0.0 if undefined else tp / (tp + fp)
    rec = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if (pre + rec) == 0 else 2 * pre * rec / (pre + rec)
    return ClassReportRow(label, tp, tn, fp, fn, pre, rec, f1, undefined)


def compute_report(y_true, y_pred, classes) -> list:
    """One-vs-rest counts and scores per class."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred length mismatch")
    rows = []
    for cls in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
        tn = len(y_true) - tp - fp - fn
        rows.append(report_row_from_counts(cls, tp, tn, fp, fn))
    return rows


def report_to_json(rows) -> dict:
    return {
        "rows": [
            {
                "label": int(r.label) if isinstance(r.label, (int, np.integer)) else r.label,
                "tp": r.tp, "tn": r.tn, "fp": r.fp, "fn": r.fn,
                "precision": _round2(r.precision),
                "recall": _round2(r.recall),
                "f1": _round2(r.f1),
                "precision_undefined": r.precision_undefined,
            }
            for r in rows
        ]
    }

