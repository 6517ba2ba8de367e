import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from capaminer import classifier
from capaminer.errors import DegenerateData, MissingCreationDate
from capaminer.classifier import (
    BOOLEAN_FIELDS,
    FEATURE_ORDER,
    MISSING,
    CapaLabel,
    ForestConfig,
    PullRequestRecord,
    RandomForest,
    StageOneLabel,
    TIMESTAMP_FIELDS,
    classify_two_stage,
    compute_report,
    encode_features,
    label_by_keywords,
    load_keyword_map,
    report_row_from_counts,
    report_to_json,
    split_train_test,
    train_forest,
    _BOOTSTRAP,
    _FEATURES,
    _GAMMA,
    _SPLIT,
    _best_splits,
    _bootstrap,
    _dense_ranks,
    _draws,
    _feature_subsets,
    _mix,
)
from capaminer.ingestion import load_prs_jsonl
from capaminer.timeutil import from_rfc3339

from conftest import (naive_best_split, naive_classify_two_stage,
                      naive_forest_trees, naive_predict)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference_encoding(obj, reference_instant):
    """The 27 features of one raw JSON pull request, field by field."""
    out = []
    for name in FEATURE_ORDER:
        v = obj.get(name)
        if v is None:
            out.append(MISSING)
        elif name in BOOLEAN_FIELDS:
            out.append(1.0 if v else 0.0)
        elif name in TIMESTAMP_FIELDS:
            v = from_rfc3339(v) if isinstance(v, str) else v
            out.append(float(v) - float(reference_instant))
        else:
            out.append(float(v))
    return np.array(out)


class TestFeatureEncoding:
    def test_27_features_in_table_order(self):
        assert len(FEATURE_ORDER) == 27
        assert FEATURE_ORDER[0] == "number_of_comments"
        assert FEATURE_ORDER[11] == "creation_date"
        assert FEATURE_ORDER[-1] == "number_of_file_changes"
        assert len(TIMESTAMP_FIELDS) == 7
        assert len(BOOLEAN_FIELDS) == 5

    def test_encoding_rules(self):
        pr = PullRequestRecord(
            repo_id="org/r", creation_date=1000.0,
            fields={"number_of_comments": 4, "merged_state": True,
                    "locked_state": False, "closure_date": 5000.0})
        x = encode_features(pr, reference_instant=1000.0)
        assert len(x) == 27
        assert x[FEATURE_ORDER.index("number_of_comments")] == 4.0
        assert x[FEATURE_ORDER.index("merged_state")] == 1.0
        assert x[FEATURE_ORDER.index("locked_state")] == 0.0
        assert x[FEATURE_ORDER.index("creation_date")] == 0.0
        assert x[FEATURE_ORDER.index("closure_date")] == 4000.0
        # everything absent encodes to the sentinel
        assert x[FEATURE_ORDER.index("milestone_status")] == MISSING
        assert x[FEATURE_ORDER.index("number_of_additions")] == MISSING

    def test_missing_creation_date(self):
        with pytest.raises(MissingCreationDate):
            PullRequestRecord(repo_id="org/r", creation_date=None)

    @pytest.mark.parametrize("name, value", [
        ("repo_id", 5), ("repo_id", None), ("text", 5), ("text", ["fix ci"])])
    def test_text_and_repo_id_must_be_strings(self, name, value):
        args = {"repo_id": "org/r", "creation_date": 0.0, "text": "", name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a string"):
            PullRequestRecord(**args)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PullRequestRecord(repo_id="org/r", creation_date=0.0,
                              fields={"number_of_commits": -2})

    def test_numpy_counts_accepted_nan_rejected(self):
        pr = PullRequestRecord(repo_id="org/r", creation_date=np.float64(2.0),
                               fields={"number_of_commits": np.int64(3)})
        assert pr.fields == {"number_of_commits": 3.0, "creation_date": 2.0}
        assert type(pr.creation_date) is float
        for bad in (float("nan"), 10**400):
            with pytest.raises(ValueError, match="number_of_commits must be a finite"):
                PullRequestRecord(repo_id="org/r", creation_date=0.0,
                                  fields={"number_of_commits": bad})

    def test_fixture_encoding_matches_per_field_reference(self):
        lines = (FIXTURES / "prs.jsonl").read_text().splitlines()
        objs = [json.loads(line) for line in lines]
        prs = load_prs_jsonl(FIXTURES / "prs.jsonl")
        earliest = min(from_rfc3339(o["creation_date"]) for o in objs)
        for ref in (earliest, 0.0, 1234.5):
            for obj, pr in zip(objs, prs, strict=True):
                got = encode_features(pr, ref)
                assert got.tobytes() == reference_encoding(obj, ref).tobytes()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            PullRequestRecord(repo_id="org/r", creation_date=0.0,
                              fields={"number_of_bananas": 1})


class TestKeywordLabeling:
    def test_capa_examples(self):
        assert label_by_keywords("Add eslint config") == (
            StageOneLabel.CAPA, CapaLabel.ADD_LINTER)
        assert label_by_keywords("raise branch COVERAGE") == (
            StageOneLabel.CAPA, CapaLabel.COVERAGE)
        assert label_by_keywords("drop dead code paths") == (
            StageOneLabel.CAPA, CapaLabel.UNUSED)

    def test_first_match_in_ascending_label_order(self):
        # hits both linter (1) and refactor (5): label 1 wins
        got = label_by_keywords("refactor the pylint setup")
        assert got == (StageOneLabel.CAPA, CapaLabel.ADD_LINTER)

    def test_non_capa(self):
        assert label_by_keywords("hotfix for crash") == (
            StageOneLabel.NON_CAPA, None)

    def test_unmatched_is_none(self):
        assert label_by_keywords("weekly sync notes") is None

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            label_by_keywords("x", keyword_map={})

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
        kmap, non_capa = classifier.DEFAULT_KEYWORDS, classifier.DEFAULT_NON_CAPA_KEYWORDS
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
        with pytest.raises(ValueError):
            split_train_test(rng.normal(size=(3, 2)), [1, 1, 2], 0.8, seed=0)

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
        forest = train_forest(X[train], y[train], ForestConfig(50, seed=3))
        pred, _ = forest.predict(X[test])
        acc = np.mean(pred == y[test])
        assert acc >= 0.95

    def test_bitwise_deterministic(self, rng):
        X, y = separable_data(rng, n_per_class=20)
        a = train_forest(X, y, ForestConfig(10, seed=5))
        b = train_forest(X, y, ForestConfig(10, seed=5))
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_row_order_invariant(self, rng):
        X, y = separable_data(rng, n_per_class=20)
        perm = rng.permutation(len(y))
        a = train_forest(X, y, ForestConfig(10, seed=5))
        b = train_forest(X[perm], y[perm], ForestConfig(10, seed=5))
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    def test_vote_tie_goes_to_lowest_class(self):
        tree_a = {"leaf": True, "counts": [5, 0]}
        tree_b = {"leaf": True, "counts": [0, 5]}
        forest = RandomForest(ForestConfig(2), classes=[3, 7],
                              trees=[tree_a, tree_b])
        labels, fractions = forest.predict(np.zeros((1, 4)))
        assert labels.tolist() == [3]
        assert dict(zip(forest.classes, fractions[0].tolist())) == {3: 0.5, 7: 0.5}

    def test_feature_subset_default(self, rng):
        # ceil(sqrt(27)) = 6 candidate features per node
        X, y = rng.normal(size=(80, 27)), rng.integers(1, 4, size=80)
        trees = {k: train_forest(X, y, ForestConfig(4, features_per_split=k, seed=1)).trees
                 for k in (None, 5, 6, 7)}
        assert trees[None] == trees[6]
        assert trees[None] != trees[5] and trees[None] != trees[7]

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2**64), ("seed", 1.5), ("n_estimators", 0),
        ("min_samples_leaf", 0), ("max_depth", -1), ("features_per_split", 0),
    ])
    def test_config_out_of_range(self, rng, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ForestConfig(**{"n_estimators": 2, field: value})
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        doc = train_forest(X, y, ForestConfig(3)).to_json()
        doc["config"][field] = value
        with pytest.raises(ValueError, match=f"^{field} must be "):
            RandomForest.from_json(doc, n_features=4)

    def test_config_limits_accepted(self, rng):
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        config = ForestConfig(2, max_depth=0, features_per_split=1, seed=2**64 - 1)
        forest = train_forest(X, y, config)
        assert all(tree["leaf"] for tree in forest.trees)
        assert RandomForest.from_json(forest.to_json(), n_features=4).config == config

    def test_single_class_raises(self, rng):
        X = rng.normal(size=(10, 3))
        with pytest.raises(DegenerateData):
            train_forest(X, np.ones(10), ForestConfig(2))

    def test_json_round_trip(self, rng):
        X, y = separable_data(rng, n_per_class=15)
        forest = train_forest(X, y, ForestConfig(5, seed=2))
        back = RandomForest.from_json(json.loads(json.dumps(forest.to_json())))
        probe = rng.normal(15, 8, size=(20, X.shape[1]))
        assert forest.predict(probe)[0].tolist() == back.predict(probe)[0].tolist()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            RandomForest.from_json({"format_version": 99})

    # explicit ids keep the test names stable when a message is reworded
    @pytest.mark.parametrize("edit, why", [
        pytest.param(lambda d: d.pop("config"),
                     r"^config must be an object with exactly the keys \[.*\], got None$",
                     id="<lambda>-config must have exactly the keys0"),
        pytest.param(lambda d: d["config"].pop("seed"),
                     "^config must be an object with exactly the keys ",
                     id="<lambda>-config must have exactly the keys1"),
        pytest.param(lambda d: d.update(classes=[1, 1]),
                     r"^classes must be two or more distinct integers, got \[1, 1\]$",
                     id="<lambda>-classes must be distinct integers0"),
        pytest.param(lambda d: d.update(classes=[1, True]),
                     r"^classes must be two or more distinct integers, got \[1, True\]$",
                     id="<lambda>-classes must be distinct integers1"),
        (lambda d: d.update(trees=[]), "trees must be a non-empty list"),
        pytest.param(lambda d: d["trees"].append("leaf"),
                     r"^trees\[3\]: not a JSON object$", id="<lambda>-boolean leaf0"),
        pytest.param(lambda d: first_node(d, True).update(leaf=1),
                     "^leaf must be true or false, got 1$", id="<lambda>-boolean leaf1"),
        pytest.param(lambda d: first_node(d, True).update(counts=[3]),
                     r"^counts must be a list of 2 integers >= 0, got \[3\]$",
                     id="<lambda>-leaf counts0"),
        pytest.param(lambda d: first_node(d, True).update(counts=[3, -1]),
                     r"^counts must be a list of 2 integers >= 0, got \[3, -1\]$",
                     id="<lambda>-leaf counts1"),
        pytest.param(lambda d: first_node(d, False).update(feature=-1),
                     "^feature must be an index below 4, got -1$", id="<lambda>-split feature0"),
        pytest.param(lambda d: first_node(d, False).update(feature=4),
                     "^feature must be an index below 4, got 4$", id="<lambda>-split feature1"),
        pytest.param(lambda d: first_node(d, False).update(feature=1.0),
                     "^feature must be an index below 4, got 1.0$",
                     id="<lambda>-split feature2"),
        pytest.param(lambda d: first_node(d, False).update(threshold="0.5"),
                     "^threshold must be a finite number, got '0.5'$",
                     id="<lambda>-split threshold"),
        pytest.param(lambda d: first_node(d, False).pop("right"),
                     "^right must be a tree node, got None$",
                     id="<lambda>-a left and a right child"),
    ])
    def test_malformed_model_rejected(self, rng, edit, why):
        X, y = separable_data(rng, n_classes=2, n_per_class=15, n_features=4)
        doc = json.loads(json.dumps(train_forest(X, y, ForestConfig(3)).to_json()))
        RandomForest.from_json(doc, n_features=4)
        edit(doc)
        with pytest.raises(ValueError, match=why):
            RandomForest.from_json(doc, n_features=4)


def first_node(doc, leaf):
    """The first leaf (or split) node of a model document, in pre-order."""
    nodes = list(reversed(doc["trees"]))
    while nodes:
        node = nodes.pop()
        if node["leaf"] is leaf:
            return node
        if not node["leaf"]:
            nodes += [node["right"], node["left"]]
    raise AssertionError("no such node")


class TestTwoStage:
    def test_composition(self, rng):
        # stage 1 separates CAPA (low values) from non-CAPA (high values);
        # stage 2 separates the 7 action classes
        X1 = np.vstack([rng.normal(0, 1, (40, 4)), rng.normal(30, 1, (40, 4))])
        y1 = np.array([int(StageOneLabel.CAPA)] * 40
                      + [int(StageOneLabel.NON_CAPA)] * 40)
        stage1 = train_forest(X1, y1, ForestConfig(25, seed=1))
        X2, y2 = [], []
        for cls in range(1, 8):
            X2.append(rng.normal(cls - 4.0, 0.2, (20, 4)))
            y2.extend([cls] * 20)
        stage2 = train_forest(np.vstack(X2), np.array(y2),
                              ForestConfig(25, seed=1))
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


def kernel_splits(X, y, n_classes, nodes, min_leaf):
    """_best_splits of the (idx, feat_idx) nodes of X, with the training
    arrays built as train_forest builds them."""
    XT = np.ascontiguousarray(X.T)
    return _best_splits(XT, _dense_ranks(XT), np.eye(n_classes, dtype=np.int32)[y],
                        [idx for idx, _ in nodes],
                        np.array([feats for _, feats in nodes]), min_leaf)


def assert_split(X, y, n_classes, idx, feat_idx, min_leaf, got):
    """got is the naive split of the node, with its rows partitioned at the
    threshold and the class counts of each side."""
    want = naive_best_split(X[idx], y[idx], n_classes, feat_idx, min_leaf)
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
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("n_classes", [2, 3, 5, 7, 8])
    def test_matches_per_feature_oracle(self, rng, n_classes, min_leaf):
        splits = 0
        for _ in range(60):
            X, y, idx = random_node(rng, int(rng.integers(2, 80)), n_classes)
            k = int(rng.integers(1, 6))
            feat_idx = np.sort(rng.choice(X.shape[1], size=k, replace=False))
            got = kernel_splits(X, y, n_classes, [(idx, feat_idx)], min_leaf)[0]
            assert_split(X, y, n_classes, idx, feat_idx, min_leaf, got)
            splits += got is not None
            # the same node amid others of other sizes scores the same
            nodes = [(np.sort(rng.integers(0, len(X), size=int(rng.integers(1, 60)))),
                      np.sort(rng.choice(X.shape[1], size=k, replace=False)))
                     for _ in range(3)]
            nodes.insert(int(rng.integers(0, 4)), (idx, feat_idx))
            for (node_idx, feats), got in zip(
                    nodes, kernel_splits(X, y, n_classes, nodes, min_leaf)):
                assert_split(X, y, n_classes, node_idx, feats, min_leaf, got)
        assert splits > 30

    def test_no_valid_split(self, rng):
        X, y, idx = random_node(rng, 40, 3)
        constant = np.array([7, 8])
        assert kernel_splits(X, y, 3, [(idx, constant)], 1) == [None]
        assert naive_best_split(X[idx], y[idx], 3, constant, 1) is None
        # four distinct values cannot leave 3 rows on both sides
        rows = np.array([0, 1, 2, 3])
        got = kernel_splits(X, y, 3, [(rows, [0]), (rows, [0])], 3)
        assert got == [None, None]
        assert kernel_splits(X, y, 3, [(rows, [0])], 2)[0] is not None

    def test_midpoint_rounded_onto_the_upper_value(self):
        a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        assert 0.5 * (a + b) == b  # the threshold between a and b is b
        X = np.array([[a], [a], [b], [b], [2.0], [2.0]])
        y = np.array([0, 0, 1, 1, 1, 1])
        rows = np.arange(6)
        # rows equal to the threshold go left, as at prediction time
        got = kernel_splits(X, y, 2, [(rows, [0])], 1)[0]
        assert_split(X, y, 2, rows, [0], 1, got)
        assert got[3][1] == [2, 2] and got[4][1] == [0, 2]
        # with nothing above b, the split would leave the right side empty
        assert kernel_splits(X, y, 2, [(rows[:4], [0])], 1) == [None]


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
    @pytest.mark.parametrize("min_leaf, max_depth, per_split", [
        (1, None, None), (3, None, 2), (1, 4, 5), (3, 7, None)])
    def test_matches_recursive_oracle(self, rng, n_classes, min_leaf, max_depth,
                                      per_split):
        X, y = growth_data(rng, 120, n_classes)
        config = ForestConfig(6, max_depth=max_depth, min_samples_leaf=min_leaf,
                              features_per_split=per_split, seed=n_classes)
        assert train_forest(X, y, config).trees == naive_forest_trees(X, y, config)

    def test_steps_larger_than_a_pass(self, rng):
        # 900 rows x 4 features per root: one step of 4 trees holds more
        # values than one pass scores
        X, y = growth_data(rng, 900, 3)
        config = ForestConfig(4, features_per_split=4, seed=1)
        assert 4 * 900 * 4 > classifier._PASS_ELEMENTS
        assert train_forest(X, y, config).trees == naive_forest_trees(X, y, config)

    @pytest.mark.parametrize("cap", [1, 50, 400])
    def test_any_pass_size(self, rng, monkeypatch, cap):
        X, y = growth_data(rng, 150, 4)
        config = ForestConfig(5, seed=3)
        want = train_forest(X, y, config).trees
        monkeypatch.setattr(classifier, "_PASS_ELEMENTS", cap)
        assert train_forest(X, y, config).trees == want == naive_forest_trees(X, y, config)

    def test_first_trees_of_a_larger_forest(self, rng):
        X, y = growth_data(rng, 120, 3)
        small = train_forest(X, y, ForestConfig(3, seed=8)).trees
        assert small == train_forest(X, y, ForestConfig(5, seed=8)).trees[:3]
        assert small != train_forest(X, y, ForestConfig(3, seed=9)).trees

    def test_bad_training_values_rejected(self):
        X = np.arange(8.0).reshape(4, 2)
        y = np.array([1, 2, 1, 2])
        with pytest.raises(ValueError, match="finite"):
            train_forest(np.where(X == 3, np.nan, X), y, ForestConfig(2))
        with pytest.raises(ValueError, match="min_samples_leaf"):
            train_forest(X, y, ForestConfig(2, min_samples_leaf=0))


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
        samples = [_bootstrap(3, t, n) for t in range(300)]
        assert all(len(s) == n and (np.diff(s) >= 0).all() for s in samples)
        counts = np.bincount(np.concatenate(samples), minlength=n)
        assert len(counts) == n
        assert stats.chisquare(counts).pvalue > 1e-3

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
        for x, label, frac in zip(X, labels.tolist(), fractions.tolist()):
            want_label, want_frac = naive_predict(forest, x)
            assert label == want_label
            assert dict(zip(forest.classes, frac)) == want_frac

    def test_random_forests(self, rng):
        for n_classes in (2, 4, 7):
            X = rng.normal(size=(150, 5))
            X[:, 1] = np.round(X[:, 1])  # ties
            y = rng.integers(1, n_classes + 1, size=150)
            forest = train_forest(X, y, ForestConfig(9, seed=n_classes))
            probe = np.vstack([X[:40], rng.normal(size=(40, 5))])
            self.assert_matches_rows(forest, probe)
            # one-row batches give the same answer as the whole batch
            labels, _ = forest.predict(probe)
            assert [forest.predict(probe[i:i + 1])[0][0]
                    for i in range(len(probe))] == labels.tolist()

    def test_vote_tie_and_one_row(self):
        forest = RandomForest(ForestConfig(2), classes=[3, 7],
                              trees=[{"leaf": True, "counts": [5, 0]},
                                     {"leaf": True, "counts": [0, 5]}])
        self.assert_matches_rows(forest, np.zeros((1, 4)))

    def test_vector_rejected(self):
        forest = RandomForest(ForestConfig(1), classes=[1, 2],
                              trees=[{"leaf": True, "counts": [1, 0]}])
        with pytest.raises(ValueError):
            forest.predict(np.zeros(4))

    def test_two_stage_matches_rows(self, rng):
        X1 = np.vstack([rng.normal(0, 1, (40, 4)), rng.normal(6, 1, (40, 4))])
        y1 = np.repeat([int(StageOneLabel.CAPA), int(StageOneLabel.NON_CAPA)], 40)
        stage1 = train_forest(X1, y1, ForestConfig(7, seed=2))
        X2 = rng.normal(0, 1, (60, 4))
        stage2 = train_forest(X2, rng.integers(1, 8, size=60), ForestConfig(7, seed=2))
        probe = rng.normal(3, 3, (50, 4))
        got = classify_two_stage(stage1, stage2, probe)
        assert got == [naive_classify_two_stage(stage1, stage2, x) for x in probe]
        assert {type(g) for g in got} == {StageOneLabel, CapaLabel}

    def test_two_stage_with_no_capa_rows(self, rng):
        X1 = np.vstack([rng.normal(0, 1, (30, 3)), rng.normal(9, 1, (30, 3))])
        y1 = np.repeat([int(StageOneLabel.CAPA), int(StageOneLabel.NON_CAPA)], 30)
        stage1 = train_forest(X1, y1, ForestConfig(5, seed=4))
        stage2 = train_forest(X1, np.tile([1, 2, 3], 20), ForestConfig(5, seed=4))
        probe = rng.normal(9, 1, (6, 3))
        assert classify_two_stage(stage1, stage2, probe) == \
            [StageOneLabel.NON_CAPA] * 6
        labels, fractions = stage2.predict(probe[[]])
        assert labels.shape == (0,) and fractions.shape == (0, 3)


class TestReport:
    def test_published_row_stage1(self):
        r = report_row_from_counts(1, tp=1174, tn=1380, fp=94, fn=10)
        assert r.rounded() == (0.93, 0.99, 0.96)

    def test_published_row_stage2(self):
        r = report_row_from_counts(2, tp=200, tn=1180, fp=5, fn=15)
        assert r.rounded() == (0.98, 0.93, 0.95)

    def test_half_up_rounding(self):
        r = report_row_from_counts(1, tp=1, tn=0, fp=7, fn=0)
        # precision 0.125 rounds half-up to 0.13
        assert r.rounded()[0] == 0.13

    def test_undefined_precision_flagged(self):
        r = report_row_from_counts(1, tp=0, tn=5, fp=0, fn=3)
        assert r.precision_undefined
        assert r.precision == 0.0
        assert r.f1 == 0.0

    def test_counts_from_predictions(self):
        y_true = [1, 1, 2, 2, 2, 3]
        y_pred = [1, 2, 2, 2, 3, 3]
        rows = compute_report(y_true, y_pred, classes=[1, 2, 3])
        by = {r.label: r for r in rows}
        assert (by[1].tp, by[1].fp, by[1].fn, by[1].tn) == (1, 0, 1, 4)
        assert (by[2].tp, by[2].fp, by[2].fn, by[2].tn) == (2, 1, 1, 2)
        assert (by[3].tp, by[3].fp, by[3].fn, by[3].tn) == (1, 1, 0, 4)
        # one-vs-rest counts always sum to the sample count
        for r in rows:
            assert r.tp + r.tn + r.fp + r.fn == 6

    def test_report_json_rounds(self):
        doc = report_to_json([report_row_from_counts(1, 1174, 1380, 94, 10)])
        row = doc["rows"][0]
        assert (row["precision"], row["recall"], row["f1"]) == (0.93, 0.99, 0.96)
