"""Pull-request encoding, keyword labeling, random forest, two-stage
classification, and classification report math.

The forest is built from scratch: axis-aligned binary trees with Gini
splits, bootstrap sampling, and a random feature subset per node.  All
randomness derives from (seed, estimator index), and training rows are put
into a canonical order first, so results do not depend on input row order
or on how estimators are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import IntEnum

import numpy as np

from .errors import DegenerateData, MissingCreationDate

MODEL_FORMAT_VERSION = 1

# The 27 pull-request metrics, in fixed table order.
NUMERIC_FIELDS_HEAD = [
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
]
FEATURE_ORDER = NUMERIC_FIELDS_HEAD + [
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
COUNT_FIELDS = [f for f in FEATURE_ORDER
                if f not in TIMESTAMP_FIELDS and f not in BOOLEAN_FIELDS]

MISSING = -1.0  # sentinel for absent optional fields


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


@dataclass
class PullRequestRecord:
    """One pull request with the 27 tabled metrics plus joining fields.

    Optional metrics may be None; creation_date is mandatory.  Timestamps
    are POSIX seconds; text carries title/body for keyword labeling.
    """

    repo_id: str
    creation_date: float
    pr_id: str = ""
    text: str = ""
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.creation_date is None:
            raise MissingCreationDate(self.repo_id)
        self.fields = dict(self.fields)
        self.fields["creation_date"] = float(self.creation_date)
        unknown = set(self.fields) - set(FEATURE_ORDER)
        if unknown:
            raise ValueError(f"unknown metric fields: {sorted(unknown)}")
        for name in COUNT_FIELDS:
            v = self.fields.get(name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")

    @property
    def created_at(self) -> float:
        return float(self.creation_date)


def encode_features(pr: PullRequestRecord, reference_instant: float) -> np.ndarray:
    """Fixed-order 27-vector: counts as-is, booleans as 0/1, timestamps as
    seconds relative to reference_instant, absences as the -1 sentinel."""
    out = np.empty(len(FEATURE_ORDER))
    for i, name in enumerate(FEATURE_ORDER):
        v = pr.fields.get(name)
        if v is None:
            out[i] = MISSING
        elif name in BOOLEAN_FIELDS:
            out[i] = 1.0 if v else 0.0
        elif name in TIMESTAMP_FIELDS:
            out[i] = float(v) - float(reference_instant)
        else:
            out[i] = float(v)
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


def load_keyword_map(doc: dict):
    """Parse {"capa": {label_name: [phrases]}, "non_capa": [phrases]}."""
    by_name = {l.name.lower(): l for l in CapaLabel}
    kmap = {}
    for name, phrases in doc.get("capa", {}).items():
        key = name.lower()
        if key not in by_name:
            raise ValueError(f"unknown CAPA label {name!r}")
        kmap[by_name[key]] = list(phrases)
    return kmap or DEFAULT_KEYWORDS, doc.get("non_capa", DEFAULT_NON_CAPA_KEYWORDS)


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


def _gini_from_counts(counts, totals):
    # counts: (k, n_classes) class counts per split side; totals: (k,)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / totals[:, None]
        g = 1.0 - np.sum(p * p, axis=1)
    g[totals == 0] = 0.0
    return g


def _best_split(X, y_codes, n_classes, feat_idx, min_leaf):
    """Best (feature, threshold, weighted Gini) over the candidate features.

    Ties break to the lowest feature index, then the lowest threshold."""
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
        keep = (left_n >= min_leaf) & (right_n >= min_leaf)
        boundaries = boundaries[keep]
        if len(boundaries) == 0:
            continue
        left_n = left_n[keep]
        right_n = n - left_n
        left_counts = cum[boundaries]
        right_counts = cum[-1] - left_counts
        g = (left_n * _gini_from_counts(left_counts, left_n)
             + right_n * _gini_from_counts(right_counts, right_n)) / n
        i = int(np.argmin(g))
        thr = 0.5 * (sv[boundaries[i]] + sv[boundaries[i] + 1])
        cand = (float(g[i]), int(f), float(thr))
        if best is None or cand < best:
            best = cand
    return best


def _grow_tree(X, y_codes, n_classes, cfg, rng, depth, idx):
    counts = np.bincount(y_codes[idx], minlength=n_classes)
    majority = int(np.argmax(counts))  # argmax ties -> lowest class index
    leaf = {"leaf": True, "counts": counts.tolist()}
    if (len(idx) < 2 * cfg.min_samples_leaf
            or counts.max() == len(idx)
            or (cfg.max_depth is not None and depth >= cfg.max_depth)):
        return leaf
    n_feat = X.shape[1]
    k = cfg.features_per_split or math.ceil(math.sqrt(n_feat))
    feat_idx = np.sort(rng.choice(n_feat, size=min(k, n_feat), replace=False))
    best = _best_split(X[idx], y_codes[idx], n_classes, feat_idx,
                       cfg.min_samples_leaf)
    if best is None:
        return leaf
    _, f, thr = best
    mask = X[idx, f] <= thr
    left_idx = idx[mask]
    right_idx = idx[~mask]
    if len(left_idx) == 0 or len(right_idx) == 0:
        return leaf
    return {
        "leaf": False,
        "feature": f,
        "threshold": thr,
        "left": _grow_tree(X, y_codes, n_classes, cfg, rng, depth + 1, left_idx),
        "right": _grow_tree(X, y_codes, n_classes, cfg, rng, depth + 1, right_idx),
    }


def _tree_predict_code(node, x):
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return int(np.argmax(node["counts"]))


@dataclass
class RandomForest:
    config: ForestConfig
    classes: list
    trees: list

    def predict(self, x):
        """Majority vote over trees; ties break to the lowest class id.

        Returns (label, vote_fractions keyed by class)."""
        x = np.asarray(x, dtype=float)
        votes = np.zeros(len(self.classes))
        for tree in self.trees:
            votes[_tree_predict_code(tree, x)] += 1
        fractions = votes / votes.sum()
        label = self.classes[int(np.argmax(votes))]  # argmax -> lowest index
        return label, dict(zip(self.classes, fractions.tolist()))

    def predict_many(self, X):
        return [self.predict(x)[0] for x in np.asarray(X, dtype=float)]

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
    X = X[order]
    y_codes = y_codes[order]
    n = len(X)
    trees = []
    for i in range(config.n_estimators):
        rng = np.random.default_rng([config.seed, i])
        sample = np.sort(rng.integers(0, n, size=n))
        trees.append(_grow_tree(X, y_codes, len(classes), config, rng, 0, sample))
    return RandomForest(config=config, classes=classes.tolist(), trees=trees)


def classify_two_stage(stage1: RandomForest, stage2: RandomForest, x):
    """Stage 1 decides CAPA vs non-CAPA; stage 2 runs only on CAPAs."""
    label1, _ = stage1.predict(x)
    if StageOneLabel(label1) is StageOneLabel.NON_CAPA:
        return StageOneLabel.NON_CAPA
    label2, _ = stage2.predict(x)
    return CapaLabel(label2)


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

