import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from capaminer import classifier
from capaminer.errors import DegenerateData
from capaminer.classifier import (
    CapaLabel,
    RandomForest,
    StageOneLabel,
    classify_two_stage,
    compute_report,
    label_by_keywords,
    load_keyword_map,
    report_row_from_counts,
    split_train_test,
    train_forest,
    _BOOTSTRAP,
    _FEATURES,
    _GAMMA,
    _SPLIT,
    _best_splits,
    _bootstrap,
    _draws,
    _feature_subsets,
    _levels,
    _mix,
)

from conftest import (naive_best_split, naive_classify_two_stage,
                      naive_forest_trees, naive_predict)

# the bundled (keyword map, non-CAPA phrases)
BUNDLED_KEYWORDS = load_keyword_map({})


class TestKeywordLabeling:
    # `is`, as StageOneLabel.CAPA == CapaLabel.ADD_LINTER == 1
    def test_capa_examples(self):
        assert label_by_keywords("Add eslint config", *BUNDLED_KEYWORDS) is CapaLabel.ADD_LINTER
        assert label_by_keywords("raise branch COVERAGE", *BUNDLED_KEYWORDS) is CapaLabel.COVERAGE
        assert label_by_keywords("drop dead code paths", *BUNDLED_KEYWORDS) is CapaLabel.UNUSED

    def test_first_match_in_ascending_label_order(self):
        # hits both linter (1) and refactor (5): label 1 wins
        got = label_by_keywords("refactor the pylint setup", *BUNDLED_KEYWORDS)
        assert got is CapaLabel.ADD_LINTER

    def test_non_capa(self):
        assert label_by_keywords("hotfix for crash", *BUNDLED_KEYWORDS) is StageOneLabel.NON_CAPA

    def test_upper_case_phrases_match_any_case(self):
        keywords = load_keyword_map({"capa": {"add_linter": ["ESLint"]}, "non_capa": ["WIP"]})
        assert label_by_keywords("add eslint rules", *keywords) is CapaLabel.ADD_LINTER
        assert label_by_keywords("WIP: draft", *keywords) is StageOneLabel.NON_CAPA

    def test_unmatched_is_none(self):
        assert label_by_keywords("weekly sync notes", *BUNDLED_KEYWORDS) is None

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="^capa must be an object naming one or more"):
            load_keyword_map({"capa": {}})

    def test_load_keyword_map(self):
        kmap, non_capa = load_keyword_map(
            {"capa": {"coverage": ["codecov"]}, "non_capa": ["wip"]})
        assert kmap == {CapaLabel.COVERAGE: ["codecov"]}
        assert non_capa == ["wip"]
        with pytest.raises(ValueError):
            load_keyword_map({"capa": {"nonsense": ["x"]}})

    def test_defaults_are_the_bundled_map(self):
        bundled = json.loads((Path(classifier.__file__).parent / "data"
                              / "default_keywords.json").read_text())
        kmap, non_capa = load_keyword_map({})
        assert (kmap, non_capa) == load_keyword_map(bundled)
        assert sorted(kmap) == list(CapaLabel) and non_capa
        # a part left out of a map falls back to the bundled one
        assert load_keyword_map({"non_capa": ["wip"]}) == (kmap, ["wip"])
        assert load_keyword_map({"capa": {"unused": ["x"]}})[1] == non_capa

    @pytest.mark.parametrize("doc", [
        {"capa": {"refactoring": "refactor"}},
        {"capa": {"refactoring": ["refactor", 3]}},
        {"non_capa": "bump"},
        {"capa": ["refactor"]},
        ["refactor"],
        {"capa": {"refactoring": ["refactor", ""]}},
        {"non_capa": [""]},
        {"capa": {}},
        {"capa": {"refactoring": ["refactor"], "Refactoring": ["cleanup"]}},
        # misspelled parts, which would leave the whole bundled map in place
        {"non-capa": ["wip"], "Capa": {"coverage": ["x"]}},
    ])
    def test_keyword_map_of_wrong_shape_rejected(self, doc):
        with pytest.raises(ValueError):
            load_keyword_map(doc)


class TestSplit:
    def test_stratified_counts(self, rng):
        labels = np.array([1] * 6 + [2] * 4)
        rows = rng.normal(size=(10, 3))
        train, test = split_train_test(rows, labels, 0.8, seed=0)
        assert sorted(train + test) == list(range(10))
        assert sum(labels[i] == 1 for i in train) == 5  # round(0.8*6)
        assert sum(labels[i] == 2 for i in train) == 3  # round(0.8*4)

    def test_never_empty_side(self, rng):
        labels = np.array([1, 1, 2, 2])
        rows = rng.normal(size=(4, 2))
        train, test = split_train_test(rows, labels, 0.95, seed=1)
        for cls in (1, 2):
            assert any(labels[i] == cls for i in train)
            assert any(labels[i] == cls for i in test)

    def test_deterministic_per_seed(self, rng):
        labels = rng.integers(1, 4, 60)
        rows = rng.normal(size=(60, 2))
        a = split_train_test(rows, labels, 0.7, seed=9)
        b = split_train_test(rows, labels, 0.7, seed=9)
        c = split_train_test(rows, labels, 0.7, seed=10)
        assert a == b
        assert a != c

    def test_tiny_class_rejected(self, rng):
        with pytest.raises(DegenerateData, match="^class 2 has 1 labeled pull request, "
                                                 "and training needs 2 of each class$"):
            split_train_test(rng.normal(size=(3, 2)), [1, 1, 2], 0.8, seed=0)

    def test_one_class_rejected(self, rng):
        with pytest.raises(DegenerateData, match="^training needs labeled pull requests "
                                                 "of 2 classes or more, got 1$"):
            split_train_test(rng.normal(size=(3, 2)), [1, 1, 1], 0.8, seed=0)

    def test_bad_ratio(self, rng):
        with pytest.raises(ValueError):
            split_train_test(rng.normal(size=(4, 2)), [1, 1, 2, 2], 1.0, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, rng, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            split_train_test(rng.normal(size=(4, 2)), [1, 1, 2, 2], 0.5, seed)


def separable_data(rng, n_per_class=60, n_classes=3, n_features=6):
    X, y = [], []
    for cls in range(1, n_classes + 1):
        X.append(rng.normal(10.0 * cls, 1.0, size=(n_per_class, n_features)))
        y.extend([cls] * n_per_class)
    return np.vstack(X), np.array(y)


class TestRandomForest:
    def test_separable_accuracy(self, rng):
        X, y = separable_data(rng)
        train, test = split_train_test(X, y, 0.8, seed=3)
        forest = train_forest(X[train], y[train], 50, 3)
        pred, _ = forest.predict(X[test])
        acc = np.mean(pred == y[test])
        assert acc >= 0.95

    def test_bitwise_deterministic(self, rng):
        X, y = separable_data(rng, n_per_class=20)
        a = train_forest(X, y, 10, 5)
        b = train_forest(X, y, 10, 5)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_row_order_invariant(self, rng):
        X, y = separable_data(rng, n_per_class=20)
        perm = rng.permutation(len(y))
        a = train_forest(X, y, 10, 5)
        b = train_forest(X[perm], y[perm], 10, 5)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_vote_tie_goes_to_lowest_class(self):
        forest = leaf_forest([3, 7], [5, 0], [0, 5])
        labels, fractions = forest.predict(np.zeros((1, 4)))
        assert labels.tolist() == [3]
        assert dict(zip(forest.classes, fractions[0].tolist())) == {3: 0.5, 7: 0.5}

    def test_feature_subset_default(self, rng, monkeypatch):
        # ceil(sqrt(27)) = 6 candidate features per node
        X, y = rng.normal(size=(80, 27)), rng.integers(1, 4, size=80)
        feature_subsets, drawn = classifier._feature_subsets, []

        def spy(*args):
            drawn.append(feature_subsets(*args))
            return drawn[-1]

        monkeypatch.setattr(classifier, "_feature_subsets", spy)
        forest = train_forest(X, y, 4, 1)
        assert {subsets.shape[1] for subsets in drawn} == {6}
        # every split node drew one subset
        assert sum(map(len, drawn)) >= np.count_nonzero(forest.feature >= 0) > 4

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2**64), ("seed", 1.5), ("n_estimators", 0),
    ])
    def test_config_out_of_range(self, rng, field, value):
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        with pytest.raises(ValueError, match=f"^{field} must be "):
            train_forest(X, y, **{"n_estimators": 2, "seed": 0, field: value})

    def test_config_limits_accepted(self, rng):
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        forest = train_forest(X, y, 1, 2**64 - 1)
        assert forest.n_trees == len(forest.trees) == 1
        back = RandomForest.from_json(forest.to_json(), n_features=4)
        assert back.to_json() == forest.to_json()

    def test_single_class_raises(self, rng):
        X = rng.normal(size=(10, 3))
        with pytest.raises(DegenerateData):
            train_forest(X, np.ones(10), 2, 0)

    def test_json_round_trip(self, rng):
        X, y = separable_data(rng, n_per_class=15)
        forest = train_forest(X, y, 5, 2)
        back = RandomForest.from_json(json.loads(json.dumps(forest.to_json())), X.shape[1])
        assert back.trees == forest.trees
        probe = rng.normal(15, 8, size=(20, X.shape[1]))
        assert forest.predict(probe)[0].tolist() == back.predict(probe)[0].tolist()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="^format_version must be 5, got 99$"):
            RandomForest.from_json({"format_version": 99}, n_features=4)

    def test_format_1_rejected(self, rng):
        # format 1 held nested trees and the forest's settings in a config block
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        forest = train_forest(X, y, 3, 0)
        doc = {"format_version": 1, "classes": forest.classes, "trees": forest.trees,
               "config": {"n_estimators": 3, "seed": 0}}
        with pytest.raises(ValueError, match="^format_version must be 5, got 1$"):
            RandomForest.from_json(doc, n_features=4)

    def test_format_2_rejected(self, rng):
        # format 2 held the trees as nested dicts: retrain, there is no converter
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        forest = train_forest(X, y, 3, 0)
        doc = {"format_version": 2, "classes": forest.classes, "trees": forest.trees}
        with pytest.raises(ValueError, match="^format_version must be 5, got 2$"):
            RandomForest.from_json(doc, n_features=4)

    def test_format_3_rejected(self, rng):
        # format 3 stored each split's left child, which format 4 derives from
        # the layout: the trees are the same, so retrain
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        forest = train_forest(X, y, 3, 0)
        doc = {**forest.to_json(), "format_version": 3, "left": forest.left.tolist()}
        with pytest.raises(ValueError, match="^format_version must be 5, got 3$"):
            RandomForest.from_json(doc, n_features=4)

    def test_format_4_rejected(self, rng):
        # format 4 held the same arrays, but its timestamp thresholds were
        # measured from the earliest creation date of the training file,
        # and format 5's are POSIX seconds: the trees differ, so retrain
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        doc = {**train_forest(X, y, 3, 0).to_json(), "format_version": 4}
        with pytest.raises(ValueError, match="^format_version must be 5, got 4$"):
            RandomForest.from_json(doc, n_features=4)

    # explicit ids keep the test names stable when a message is reworded; the
    # model of three one-split trees has splits 0, 1 and 2 (children 3 and 4,
    # 5 and 6, 7 and 8) and 9 x 2 counts
    @pytest.mark.parametrize("edit, why", [
        pytest.param(lambda d: d.update(classes=[1, 1]),
                     r"^classes must be two or more distinct integers, got \[1, 1\]$",
                     id="<lambda>-classes must be distinct integers0"),
        pytest.param(lambda d: d.update(classes=[1, True]),
                     r"^classes must be two or more distinct integers, got \[1, True\]$",
                     id="<lambda>-classes must be distinct integers1"),
        pytest.param(lambda d: d.update(n_trees=0),
                     r"^n_trees must be an integer in \[1, 9\], got 0$",
                     id="<lambda>-trees must be a non-empty list"),
        pytest.param(lambda d: d.update(feature=[], threshold=[], counts=[]),
                     r"^n_trees must be an integer in \[1, 0\], got 3$", id="no nodes"),
        pytest.param(lambda d: d["feature"].__setitem__(3, "leaf"),
                     r"^feature\[3\] must be an integer in \[-1, 3\], got 'leaf'$",
                     id="<lambda>-boolean leaf0"),
        pytest.param(lambda d: d["feature"].__setitem__(3, True),
                     r"^feature\[3\] must be an integer in \[-1, 3\], got True$",
                     id="<lambda>-boolean leaf1"),
        pytest.param(lambda d: d["counts"].pop(),
                     "^counts must hold 18 entries, got 17$", id="<lambda>-leaf counts0"),
        pytest.param(lambda d: d["counts"].__setitem__(7, -1),
                     r"^counts\[7\] must be an integer in \[0, 2147483647\], got -1$",
                     id="<lambda>-leaf counts1"),
        pytest.param(lambda d: d["counts"].__setitem__(0, 2**31),
                     r"^counts\[0\] must be an integer in \[0, 2147483647\], "
                     "got 2147483648$", id="counts past int32"),
        pytest.param(lambda d: d["feature"].__setitem__(1, -1),
                     r"^feature must hold n_trees \+ 2 per split = 7 entries, got 9$",
                     id="<lambda>-split feature0"),
        pytest.param(lambda d: d["feature"].__setitem__(0, 4),
                     r"^feature\[0\] must be an integer in \[-1, 3\], got 4$",
                     id="<lambda>-split feature1"),
        pytest.param(lambda d: d["feature"].__setitem__(0, 1.0),
                     r"^feature\[0\] must be an integer in \[-1, 3\], got 1.0$",
                     id="<lambda>-split feature2"),
        pytest.param(lambda d: d["feature"].__setitem__(4, 0),
                     r"^feature must hold n_trees \+ 2 per split = 11 entries, got 9$",
                     id="leaf with a feature"),
        pytest.param(lambda d: d["threshold"].__setitem__(0, "0.5"),
                     r"^threshold\[0\] must be a finite number, got '0.5'$",
                     id="<lambda>-split threshold"),
        pytest.param(lambda d: d["threshold"].__setitem__(2, math.nan),
                     r"^threshold\[2\] must be a finite number, got nan$", id="NaN threshold"),
        pytest.param(lambda d: d["threshold"].__setitem__(2, 10**400),
                     r"^threshold\[2\] must be a finite number, got 1000", id="huge threshold"),
        pytest.param(lambda d: d["threshold"].pop(),
                     "^threshold must hold 9 entries, got 8$", id="short threshold"),
        # the layout gives the one split, node 2, the children 2 and 3, so
        # predict would loop at node 2 for ever
        pytest.param(lambda d: d.update(n_trees=2, feature=[-1, -1, 0, -1],
                                        threshold=[0.0] * 4, counts=[1, 0] * 4),
                     "^split 2 must come before its left child, got 2$", id="own child"),
        pytest.param(lambda d: d.update(n_trees=1, feature=[-1, -1, 0],
                                        threshold=[0.0] * 3, counts=[1, 0] * 3),
                     "^split 2 must come before its left child, got 1$", id="earlier child"),
        pytest.param(lambda d: d.update(n_trees=2),
                     r"^feature must hold n_trees \+ 2 per split = 8 entries, got 9$",
                     id="orphan root"),
        pytest.param(lambda d: d.update(n_trees=4),
                     r"^feature must hold n_trees \+ 2 per split = 10 entries, got 9$",
                     id="root as a child"),
        # node 1 is the one parent of nodes 1 and 2, and no tree reaches them
        pytest.param(lambda d: d.update(n_trees=1, feature=[-1, 0, -1], threshold=[0.0] * 3,
                                        counts=[1, 0] * 3),
                     "^split 1 must come before its left child, got 1$",
                     id="a cycle outside the trees"),
    ])
    def test_malformed_model_rejected(self, rng, edit, why):
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        doc = json.loads(json.dumps(train_forest(X, y, 3, 0).to_json()))
        assert doc["feature"][3:] == [-1] * 6 and "left" not in doc
        assert RandomForest.from_json(doc, n_features=4).left.tolist() == [3, 5, 7] + [-1] * 6
        edit(doc)
        with pytest.raises(ValueError, match=why):
            RandomForest.from_json(doc, n_features=4)


def leaf_forest(classes, *leaf_counts):
    """A forest of one-leaf trees with these class counts, read from its
    model document."""
    n = len(leaf_counts)
    return RandomForest.from_json({
        "format_version": 5, "classes": classes, "n_trees": n, "feature": [-1] * n,
        "threshold": [0.0] * n,
        "counts": [c for counts in leaf_counts for c in counts]}, n_features=4)


class TestTwoStage:
    def test_composition(self, rng):
        # stage 1 separates CAPA (low values) from non-CAPA (high values);
        # stage 2 separates the 7 action classes
        X1 = np.vstack([rng.normal(0, 1, (40, 4)), rng.normal(30, 1, (40, 4))])
        y1 = np.array([int(StageOneLabel.CAPA)] * 40
                      + [int(StageOneLabel.NON_CAPA)] * 40)
        stage1 = train_forest(X1, y1, 25, 1)
        X2, y2 = [], []
        for cls in range(1, 8):
            X2.append(rng.normal(cls - 4.0, 0.2, (20, 4)))
            y2.extend([cls] * 20)
        stage2 = train_forest(np.vstack(X2), np.array(y2), 25, 1)
        got = classify_two_stage(stage1, stage2,
                                 [np.full(4, 30.0), np.full(4, -4 + 6.0)])
        assert got[0] is StageOneLabel.NON_CAPA
        assert got[1] is CapaLabel(6)


def random_node(rng, n_rows, n_classes, n_feat=9):
    """A training matrix with continuous, tied (few integer values) and
    constant columns, and a node of it: a sorted bootstrap sample of rows."""
    X = np.column_stack([
        rng.normal(size=(n_rows, n_feat // 3)),
        rng.integers(0, 3, size=(n_rows, n_feat // 3)).astype(float),
        np.full((n_rows, n_feat - 2 * (n_feat // 3)), 4.0),
    ])
    y = rng.integers(0, n_classes, size=n_rows)
    idx = np.sort(rng.integers(0, n_rows, size=rng.integers(1, n_rows + 1)))
    return X, y, idx


def kernel_splits(X, y, n_classes, nodes):
    """_best_splits of the (idx, feat_idx) nodes of X, with the training
    arrays built as train_forest builds them.  Each split is (Gini, feature,
    threshold, left, right), each side its (rows, class counts): the rows
    at or below the threshold go left."""
    idxs = [np.asarray(idx) for idx, _ in nodes]
    counts = np.array([np.bincount(y[idx], minlength=n_classes) for idx in idxs],
                      dtype=np.int32)
    gini, feature, threshold, left = _best_splits(
        *_levels(np.ascontiguousarray(X.T)), y, np.concatenate(idxs).astype(np.int32),
        np.array([len(idx) for idx in idxs]), np.array([f for _, f in nodes]), counts)
    splits = []
    for idx, node_counts, g, f, thr, left_counts in zip(
            idxs, counts, gini.tolist(), feature.tolist(), threshold.tolist(), left):
        below = X[idx, f] <= thr
        splits.append(None if f < 0 else
                      (g, f, thr, (idx[below], left_counts.tolist()),
                       (idx[~below], (node_counts - left_counts).tolist())))
    return splits


def assert_split(X, y, n_classes, idx, feat_idx, got):
    """got is the naive split of the node, with its rows partitioned at the
    threshold and the class counts of each side."""
    want = naive_best_split(X[idx], y[idx], n_classes, feat_idx)
    if want is None:
        assert got is None
        return
    gini, f, thr, (left, left_counts), (right, right_counts) = got
    assert (gini, f, thr) == want
    below = X[idx, f] <= thr
    assert sorted(left.tolist()) == idx[below].tolist()
    assert sorted(right.tolist()) == idx[~below].tolist()
    assert left_counts == np.bincount(y[left], minlength=n_classes).tolist()
    assert right_counts == np.bincount(y[right], minlength=n_classes).tolist()


class TestSplitKernel:
    @pytest.mark.parametrize("n_classes", [2, 3, 5, 7, 8])
    def test_matches_per_feature_oracle(self, rng, n_classes):
        splits = 0
        for _ in range(60):
            X, y, idx = random_node(rng, int(rng.integers(2, 80)), n_classes)
            k = int(rng.integers(1, 6))
            feat_idx = np.sort(rng.choice(X.shape[1], size=k, replace=False))
            got = kernel_splits(X, y, n_classes, [(idx, feat_idx)])[0]
            assert_split(X, y, n_classes, idx, feat_idx, got)
            splits += got is not None
            # the same node amid others of other sizes scores the same
            nodes = [(np.sort(rng.integers(0, len(X), size=int(rng.integers(1, 60)))),
                      np.sort(rng.choice(X.shape[1], size=k, replace=False)))
                     for _ in range(3)]
            nodes.insert(int(rng.integers(0, 4)), (idx, feat_idx))
            for (node_idx, feats), got in zip(
                    nodes, kernel_splits(X, y, n_classes, nodes)):
                assert_split(X, y, n_classes, node_idx, feats, got)
        assert splits > 30

    def test_no_valid_split(self, rng):
        X, y, idx = random_node(rng, 40, 3)
        constant = np.array([7, 8])
        assert kernel_splits(X, y, 3, [(idx, constant)]) == [None]
        assert naive_best_split(X[idx], y[idx], 3, constant) is None
        # one row has no boundary, alone or beside a node that splits
        rows = np.array([0, 1, 2, 3])
        assert kernel_splits(X, y, 3, [(rows[:1], [0])]) == [None]
        got = kernel_splits(X, y, 3, [(rows[:1], [0]), (rows, [0])])
        assert got[0] is None and got[1] is not None

    def test_midpoint_rounded_onto_the_upper_value(self):
        a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        assert 0.5 * (a + b) == b  # the midpoint of a and b rounds onto b
        X = np.array([[a], [a], [b], [b], [2.0], [2.0]])
        y = np.array([0, 0, 1, 1, 1, 1])
        rows = np.arange(6)
        # the threshold falls back to a, so the cut still separates a from b,
        # with or without a value above b
        for node, right in ((rows, [0, 4]), (rows[:4], [0, 2])):
            got = kernel_splits(X, y, 2, [(node, [0])])[0]
            assert_split(X, y, 2, node, [0], got)
            assert got[:3] == (0.0, 0, a)
            assert got[3][1] == [2, 0] and got[4][1] == right


@st.composite
def training_sets(draw, max_rows=40):
    """(X, y) for the forest oracles: columns of 1 to 4 integer values,
    constant columns, adjacent floats and continuous values, rows that may
    repeat, and labels of 2 to 8 classes, at least two of them present."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_rows))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["integer", "constant", "adjacent",
                                               "continuous"]), min_size=1, max_size=6)):
        if kind == "integer":
            columns.append(rng.integers(0, draw(st.integers(1, 4)), size=n).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, 3.0))
        elif kind == "adjacent":
            columns.append(1.0 + 2.0 ** -52 * rng.integers(0, 4, size=n))
        else:
            columns.append(rng.normal(size=n))
    X = np.column_stack(columns)
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]  # repeated rows
    n_classes = draw(st.integers(2, 8))
    y = rng.integers(0, n_classes, size=n)
    if (y == y[0]).all():
        y[0] = (y[0] + 1) % n_classes
    return X, y, n_classes


class TestGeneratedInputs:
    """The split kernel and the forest against their oracles on generated
    inputs heavy in ties, where the histogram rule and the dropped cuts
    inside one-class runs matter most."""

    @given(training_sets(), st.data())
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    def test_kernel_matches_per_feature_oracle(self, training, data):
        X, y, n_classes = training
        nodes = []
        for _ in range(data.draw(st.integers(1, 3))):
            size = data.draw(st.integers(1, len(X)))
            nodes.append(np.sort(data.draw(st.lists(st.integers(0, len(X) - 1),
                                                    min_size=size, max_size=size))))
        # a column with as many distinct values as the first node has rows,
        # give or take one: its segment is on either side of the histogram rule
        n_values = min(max(len(nodes[0]) + data.draw(st.integers(-1, 1)), 1), len(X))
        column = np.random.default_rng(len(X)).permutation(len(X)) % n_values
        X = np.column_stack([X, column * 0.5])
        k = data.draw(st.integers(1, X.shape[1]))
        feats = [sorted(data.draw(st.sets(st.integers(0, X.shape[1] - 1),
                                          min_size=k, max_size=k))) for _ in nodes]
        if X.shape[1] - 1 not in feats[0]:
            feats[0][-1] = X.shape[1] - 1
        for idx, f, got in zip(nodes, feats,
                               kernel_splits(X, y, n_classes, list(zip(nodes, feats)))):
            assert_split(X, y, n_classes, idx, np.array(f), got)

    @given(training_sets(), st.integers(1, 3), st.integers(0, 2**64 - 1))
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    def test_forest_matches_oracle(self, training, n_estimators, seed):
        X, y, _ = training
        assert train_forest(X, y, n_estimators, seed).trees == \
            naive_forest_trees(X, y, n_estimators, seed)


class TestModelFormat:
    """Model format 4 on generated forests: a document read back from its
    JSON text is the same forest, and one leaf made a split or split made a
    leaf, or n_trees one more or one less, is rejected."""

    @given(training_sets(), st.integers(1, 3), st.integers(0, 2**64 - 1), st.data())
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    def test_round_trip_and_layout_defects(self, training, n_estimators, seed, data):
        X, y, _ = training
        forest = train_forest(X, y, n_estimators, seed)
        doc = forest.to_json()
        back = RandomForest.from_json(json.loads(json.dumps(doc)), X.shape[1])
        for key in ("feature", "threshold", "counts", "left"):
            np.testing.assert_array_equal(getattr(back, key), getattr(forest, key))
        for got, want in zip(back.predict(X), forest.predict(X)):
            np.testing.assert_array_equal(got, want)
        i = data.draw(st.integers(0, len(doc["feature"]) - 1))
        flip = -1 if doc["feature"][i] >= 0 else data.draw(st.integers(0, X.shape[1] - 1))
        feature = [*doc["feature"][:i], flip, *doc["feature"][i + 1:]]
        for bad in ({**doc, "feature": feature}, {**doc, "n_trees": n_estimators - 1},
                    {**doc, "n_trees": n_estimators + 1}):
            with pytest.raises(ValueError):
                RandomForest.from_json(bad, X.shape[1])


def leaves(node):
    """The class counts of the leaves of a nested-dict tree."""
    if node["leaf"]:
        return [node["counts"]]
    return leaves(node["left"]) + leaves(node["right"])


class TestSplitThreshold:
    """A split's threshold is the midpoint of the values on either side of
    its cut, or the lower value where the midpoint rounds onto the upper, so
    it always separates the rows the cut was scored on."""

    def test_adjacent_floats_split(self):
        a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        X = np.tile([[a], [a], [b], [b], [2.0], [2.0]], (3, 1))
        y = np.tile([0, 0, 1, 1, 1, 1], 3)
        forest = train_forest(X, y, 3, 0)
        assert forest.trees == naive_forest_trees(X, y, 3, 0)
        assert all(min(counts) == 0 for tree in forest.trees for counts in leaves(tree))
        assert forest.predict([[a], [b], [2.0]])[0].tolist() == [0, 1, 1]

    @pytest.mark.parametrize("low, high", [(1e308, 1.5e308), (-1.5e308, -1e308)],
                             ids=["positive", "negative"])
    def test_values_whose_sum_overflows(self, low, high):
        X = np.array([[low], [high]] * 4)
        y = np.array([0, 1] * 4)
        forest = train_forest(X, y, 3, 0)
        assert forest.trees == naive_forest_trees(X, y, 3, 0)
        assert all(low <= tree["threshold"] < high for tree in forest.trees)
        assert forest.predict([[low], [high]])[0].tolist() == [0, 1]
        doc = json.loads(json.dumps(forest.to_json(), allow_nan=False))
        assert RandomForest.from_json(doc, 1).trees == forest.trees


def growth_data(rng, n_rows, n_classes):
    """random_node's columns plus one of adjacent floats, some of whose
    midpoints round up onto the upper value, and random labels."""
    X, y, _ = random_node(rng, n_rows, n_classes)
    ulps = 1.0 + 2.0 ** -52 * rng.integers(0, 4, size=n_rows)
    return np.column_stack([X, ulps]), y


class TestLockstepGrowth:
    """All trees grow together, one depth at a time, and must equal
    naive_forest_trees, which grows them one by one."""

    @pytest.mark.parametrize("n_classes", [2, 4, 7])
    def test_matches_recursive_oracle(self, rng, n_classes):
        X, y = growth_data(rng, 120, n_classes)
        assert train_forest(X, y, 6, n_classes).trees == \
            naive_forest_trees(X, y, 6, n_classes)

    def test_steps_larger_than_a_pass(self, rng):
        # 4097 rows x 2 candidate features (ceil(sqrt(4))) per root: one step
        # of 4 trees holds more values than one pass scores
        X, y = growth_data(rng, 4097, 3)
        X = X[:, [0, 3, 6, 9]]  # continuous, tied, constant and adjacent floats
        assert 4 * 4097 * 2 > classifier._PASS_ELEMENTS
        assert train_forest(X, y, 4, 1).trees == naive_forest_trees(X, y, 4, 1)

    @pytest.mark.parametrize("cap", [1, 50, 400])
    def test_any_pass_size(self, rng, monkeypatch, cap):
        X, y = growth_data(rng, 150, 4)
        want = train_forest(X, y, 5, 3).trees
        monkeypatch.setattr(classifier, "_PASS_ELEMENTS", cap)
        assert train_forest(X, y, 5, 3).trees == want == naive_forest_trees(X, y, 5, 3)

    def test_first_trees_of_a_larger_forest(self, rng):
        X, y = growth_data(rng, 120, 3)
        small = train_forest(X, y, 3, 8).trees
        assert small == train_forest(X, y, 5, 8).trees[:3]
        assert small != train_forest(X, y, 3, 9).trees

    def test_bad_training_values_rejected(self):
        X = np.arange(8.0).reshape(4, 2)
        y = np.array([1, 2, 1, 2])
        with pytest.raises(ValueError, match="finite"):
            train_forest(np.where(X == 3, np.nan, X), y, 2, 0)

    @pytest.mark.parametrize("X", [np.zeros((4, 0)), np.zeros(4), np.zeros((4, 2, 1))],
                             ids=["no-features", "vector", "3-d"])
    def test_matrix_without_features_rejected(self, X):
        with pytest.raises(ValueError, match=rf"^expected a rows x features matrix "
                                             rf"with a feature or more, got shape "
                                             rf"{re.escape(str(X.shape))}$"):
            train_forest(X, [0, 1, 0, 1], 2, 0)


def reference_draw(seed, purpose, tree, depth, counter):
    """One keyed draw in Python integers: the key hashes (seed, purpose,
    tree, depth) by SplitMix64 mixes, then the counter-th output of the
    SplitMix64 stream from that key."""
    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)
    key = 0
    for part in (seed, purpose, tree, depth):
        key = mix(key ^ part)
    return mix((key + 0x9E3779B97F4A7C15 * (counter + 1)) % 2**64)


class TestKeyedDraws:
    def test_splitmix64_reference_stream(self):
        # the first outputs of SplitMix64 seeded with 1234567
        states = np.uint64(1234567) + _GAMMA * np.arange(1, 6, dtype=np.uint64)
        assert _mix(states).tolist() == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    @pytest.mark.parametrize("key, counter, want", [
        ((7, _FEATURES, 3, 2), [0, 1, 2, 3],
         [13820641432645056966, 7316285299855643297, 3142733834210387681,
          12477402831823933235]),
        ((2**64 - 1, _BOOTSTRAP, 24, 0), [0, 2**40],
         [13791547329358690386, 4399022849495825203]),
    ])
    def test_golden_words(self, key, counter, want):
        # models depend on these words: they must not change with numpy
        assert _draws(*key, np.array(counter)).tolist() == want
        assert [reference_draw(*key, c) for c in counter] == want

    def test_broadcast_keys(self):
        got = _draws(5, _FEATURES, [[0], [3]], 1, [[0, 9], [2, 4]])
        assert got.dtype == np.uint64 and got.shape == (2, 2)
        assert got.tolist() == [[reference_draw(5, _FEATURES, t, 1, c) for c in cs]
                                for t, cs in [(0, [0, 9]), (3, [2, 4])]]

    def test_bootstrap_uniform(self):
        n = 40
        samples = _bootstrap(3, np.arange(300), n)
        assert all(len(s) == n and (np.diff(s) >= 0).all() for s in samples)
        counts = np.bincount(np.concatenate(samples), minlength=n)
        assert len(counts) == n
        assert stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("n, trees", [(1, [0]), (2, [1, 0]), (40, [5, 0, 3]),
                                          (257, range(9))])
    def test_bootstrap_batched_equals_per_tree(self, n, trees):
        batched = _bootstrap(7, np.array(trees), n)
        assert batched.shape == (len(trees), n)
        for t, sample in zip(trees, batched.tolist()):
            assert sample == _bootstrap(7, np.array([t]), n)[0].tolist()
            words = (reference_draw(7, _BOOTSTRAP, t, 0, c) for c in range(n))
            assert sample == sorted((w >> 32) * n >> 32 for w in words)

    def test_feature_subsets_uniform(self):
        n_nodes, n_feat, k = 4000, 27, 6
        trees = np.repeat(np.arange(40), n_nodes // 40)
        positions = np.tile(np.arange(n_nodes // 40), 40)
        subsets = _feature_subsets(11, 2, trees, positions, n_feat, k)
        assert subsets.shape == (n_nodes, k)
        assert (np.diff(subsets, axis=1) > 0).all()  # ascending, distinct
        counts = np.bincount(subsets.ravel(), minlength=n_feat)
        assert stats.chisquare(counts).pvalue > 1e-3
        # another depth draws other subsets
        assert (_feature_subsets(11, 3, trees, positions, n_feat, k) != subsets).any()

    def test_permutation_positions_uniform(self):
        n = 10
        # split_train_test's row order
        perms = np.array([np.argsort(_draws(seed, _SPLIT, 0, 0, np.arange(n)), kind="stable")
                          for seed in range(2000)])
        assert (np.sort(perms, axis=1) == np.arange(n)).all()
        for row in (0, n - 1):
            position = np.argmax(perms == row, axis=1)
            assert stats.chisquare(np.bincount(position, minlength=n)).pvalue > 1e-3


class TestBatchedPredict:
    def assert_matches_rows(self, forest, X):
        labels, fractions = forest.predict(X)
        assert labels.shape == (len(X),)
        assert fractions.shape == (len(X), len(forest.classes))
        for label, frac, want in zip(labels.tolist(), fractions.tolist(),
                                     naive_predict(forest, X), strict=True):
            assert (label, dict(zip(forest.classes, frac))) == want

    def test_random_forests(self, rng):
        for n_classes in (2, 4, 7):
            X = rng.normal(size=(150, 5))
            X[:, 1] = np.round(X[:, 1])  # ties
            y = rng.integers(1, n_classes + 1, size=150)
            forest = train_forest(X, y, 9, n_classes)
            probe = np.vstack([X[:40], rng.normal(size=(40, 5))])
            self.assert_matches_rows(forest, probe)
            # one-row batches give the same answer as the whole batch
            labels, _ = forest.predict(probe)
            assert [forest.predict(probe[i:i + 1])[0][0]
                    for i in range(len(probe))] == labels.tolist()

    def test_vote_tie_and_one_row(self):
        forest = leaf_forest([3, 7], [5, 0], [0, 5])
        self.assert_matches_rows(forest, np.zeros((1, 4)))

    def test_vector_rejected(self):
        forest = leaf_forest([1, 2], [1, 0])
        with pytest.raises(ValueError):
            forest.predict(np.zeros(4))

    def test_two_stage_matches_rows(self, rng):
        X1 = np.vstack([rng.normal(0, 1, (40, 4)), rng.normal(6, 1, (40, 4))])
        y1 = np.repeat([int(StageOneLabel.CAPA), int(StageOneLabel.NON_CAPA)], 40)
        stage1 = train_forest(X1, y1, 7, 2)
        X2 = rng.normal(0, 1, (60, 4))
        stage2 = train_forest(X2, rng.integers(1, 8, size=60), 7, 2)
        probe = rng.normal(3, 3, (50, 4))
        got = classify_two_stage(stage1, stage2, probe)
        assert got == naive_classify_two_stage(stage1, stage2, probe)
        assert {type(g) for g in got} == {StageOneLabel, CapaLabel}

    def test_two_stage_with_no_capa_rows(self, rng):
        X1 = np.vstack([rng.normal(0, 1, (30, 3)), rng.normal(9, 1, (30, 3))])
        y1 = np.repeat([int(StageOneLabel.CAPA), int(StageOneLabel.NON_CAPA)], 30)
        stage1 = train_forest(X1, y1, 5, 4)
        stage2 = train_forest(X1, np.tile([1, 2, 3], 20), 5, 4)
        probe = rng.normal(9, 1, (6, 3))
        assert classify_two_stage(stage1, stage2, probe) == \
            [StageOneLabel.NON_CAPA] * 6
        labels, fractions = stage2.predict(probe[[]])
        assert labels.shape == (0,) and fractions.shape == (0, 3)


class TestReport:
    @staticmethod
    def scores(row):
        return row["precision"], row["recall"], row["f1"]

    def test_published_row_stage1(self):
        r = report_row_from_counts(1, tp=1174, tn=1380, fp=94, fn=10)
        assert self.scores(r) == (0.93, 0.99, 0.96)

    def test_published_row_stage2(self):
        r = report_row_from_counts(2, tp=200, tn=1180, fp=5, fn=15)
        assert self.scores(r) == (0.98, 0.93, 0.95)

    def test_half_up_rounding(self):
        r = report_row_from_counts(1, tp=1, tn=0, fp=7, fn=0)
        # precision 0.125 rounds half-up to 0.13, where round() gives 0.12
        assert r["precision"] == 0.13
        # the row is the report_stage document's row, rounded as written
        assert r == {"label": 1, "tp": 1, "tn": 0, "fp": 7, "fn": 0,
                     "precision": 0.13, "recall": 1.0, "f1": 0.22,
                     "precision_undefined": False}
        assert json.loads(json.dumps(r)) == r

    def test_undefined_precision_flagged(self):
        r = report_row_from_counts(1, tp=0, tn=5, fp=0, fn=3)
        assert r["precision_undefined"]
        assert r["precision"] == 0.0
        assert r["f1"] == 0.0

    def test_counts_from_predictions(self):
        y_true = [1, 1, 2, 2, 2, 3]
        y_pred = [1, 2, 2, 2, 3, 3]
        rows = compute_report(y_true, y_pred, classes=[1, 2, 3])["rows"]
        by = {r["label"]: r for r in rows}
        counts = [tuple(by[c][k] for k in ("tp", "fp", "fn", "tn")) for c in (1, 2, 3)]
        assert counts == [(1, 0, 1, 4), (2, 1, 1, 2), (1, 1, 0, 4)]
        # one-vs-rest counts always sum to the sample count
        for r in rows:
            assert r["tp"] + r["tn"] + r["fp"] + r["fn"] == 6

    def test_report_json_rounds(self):
        # predictions giving the published stage-1 counts for class 1
        y_true = [1] * 1174 + [1] * 10 + [2] * 94 + [2] * 1380
        y_pred = [1] * 1174 + [2] * 10 + [1] * 94 + [2] * 1380
        doc = json.loads(json.dumps(compute_report(y_true, y_pred, classes=[1, 2])))
        row = doc["rows"][0]
        assert (row["tp"], row["tn"], row["fp"], row["fn"]) == (1174, 1380, 94, 10)
        assert (row["precision"], row["recall"], row["f1"]) == (0.93, 0.99, 0.96)
