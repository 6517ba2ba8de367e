import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capaminer import association, classifier, ingestion
from capaminer.cli import (
    ARTIFACTS,
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_OK,
    VALUE_CHECKS,
    OutputLock,
    PipelineConfig,
    Run,
    bundled_data_path,
    cmd_validate,
    load_config,
    main,
)
from capaminer.errors import ConfigError
from capaminer.ingestion import load_metrics_csv
from capaminer.timeutil import from_rfc3339
from capaminer.tsdist import znorm_distance

from conftest import naive_classify_two_stage, naive_predict, run_capaminer

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FIXTURE_KEYWORDS = classifier.load_keyword_map(
    json.loads((FIXTURES / "keywords.json").read_text()))


def fixture_config(tmp_path, **extra):
    cfg = json.loads((FIXTURES / "config.json").read_text())
    cfg["metrics_path"] = str(FIXTURES / "metrics.csv")
    cfg["prs_path"] = str(FIXTURES / "prs.jsonl")
    cfg["keywords_path"] = str(FIXTURES / "keywords.json")
    out = tmp_path / "out"
    cfg["out_dir"] = str(out)
    cfg.update(extra)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, out


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def fixture_label(obj):
    """The CapaLabel that the fixture keyword map gives the PR obj,
    StageOneLabel.NON_CAPA, or None when no phrase matches."""
    labels = classifier.label_by_keywords(obj["text"], *FIXTURE_KEYWORDS)
    return labels and (labels[1] or labels[0])


def fixture_prs(path, edit):
    """The fixture PRs, as the list of objects that edit makes of theirs,
    written to path."""
    objs = [json.loads(line) for line in
            (FIXTURES / "prs.jsonl").read_text().splitlines()]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in edit(objs)))
    return path


def no_keyword(objs):
    return [{**obj, "text": "no keyword here"} for obj in objs]


def capa_only(objs):
    non_capa = classifier.StageOneLabel.NON_CAPA
    return [obj for obj in objs if fixture_label(obj) is not non_capa]


def one_unused(objs):
    unused = [obj for obj in objs if fixture_label(obj) is classifier.CapaLabel.UNUSED]
    return [obj for obj in objs if obj not in unused[1:]]


def with_creation_date(value):
    """An edit that sets the first PR's creation_date to value."""
    return lambda objs: [{**objs[0], "creation_date": value}, *objs[1:]]


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.seed == 0
        assert cfg.alpha == 0.15
        assert cfg.window_days == 30.0
        assert cfg.min_count == 5

    def test_overrides_win(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 3, "alpha": 0.1}))
        cfg = load_config(p, {"seed": 9})
        assert cfg.seed == 9
        assert cfg.alpha == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sede": 3}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_invalid_alpha_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"alpha": 2.0}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("key, value", [
        ("min_len", 1),
        ("min_len", 8.0),
        ("max_len", 7),
        ("metrics", "lines_added"),
        ("metrics", ["lines_add"]),
        ("metrics", []),
        ("window_days", -30),
        ("coverage_value", 0),
        ("coverage_value", 1.5),
        ("coverage_value", 2),
        ("train_ratio", 1.5),
        ("train_ratio", 0),
        ("n_estimators", 0),
        ("n_estimators", 2.5),
        ("alpha", "0.1"),
        ("seed", 1.5),
        ("min_count", "3"),
        ("min_count", 0),
        ("reference_instant", "x"),
        ("metrics", ["lines_added", "lines_added"]),
        ("seed", -1),
        ("seed", True),
        ("match_threshold", float("nan")),
        ("reference_instant", float("nan")),
        ("out_dir", 5),
        # an int too large for a float, which math.isfinite cannot take
        *(pytest.param(key, 10**400, id=f"{key}-huge") for key in (
            "alpha", "window_days", "match_threshold", "coverage_value",
            "reference_instant")),
    ])
    def test_bad_value_exits_before_any_write(self, tmp_path, capsys, key, value):
        cfg, out = fixture_config(tmp_path, **{key: value})
        out.mkdir()
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_unknown_metric_names_the_known_ones(self, tmp_path):
        cfg, _ = fixture_config(tmp_path, metrics=["lines_added", "lines_add"])
        with pytest.raises(ConfigError) as exc:
            load_config(cfg)
        assert str(exc.value) == (
            f"metrics must be a non-empty list of distinct names from "
            f"{ingestion.METRIC_COLUMNS}, got ['lines_added', 'lines_add']")

    def test_readme_names_every_config_key(self):
        readme = (ROOT / "README.md").read_text()
        table = readme.split("### Configuration keys", 1)[1].split("\n## ", 1)[0]
        keys = [k for row in table.splitlines() if row.startswith("| `")
                for k in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(PipelineConfig))

    def test_every_field_has_one_check(self):
        assert set(VALUE_CHECKS) == {f.name for f in dataclasses.fields(PipelineConfig)}

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(PipelineConfig)])
    def test_every_field_is_checked(self, key):
        # load_config only: a numeric path given to main would open one of
        # this process's own file descriptors
        for value in (None, True, 5, -1, float("nan"), "x", [], {}):
            try:
                load_config(None, {key: value})
            except ConfigError as exc:
                assert str(exc).startswith(f"{key} must be "), (value, str(exc))
            else:
                path = key in ("metrics_path", "prs_path", "keywords_path", "out_dir")
                assert not (isinstance(value, bool) or value != value
                            or path and not isinstance(value, str)), value

    @pytest.mark.parametrize("text", ["5", "[]", '"x"', "null"])
    def test_config_must_be_an_object(self, tmp_path, capsys, text):
        p = tmp_path / "c.json"
        p.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(p), "--out", str(out), "pipeline"]) == \
            EXIT_CONFIG_ERROR
        assert f"error: invalid config {p}: not a JSON object" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_coverage_value_is_always_a_fraction(self, tmp_path):
        patterns = []
        for value in (1, 1.0):
            cfg, out = fixture_config(tmp_path / repr(value),
                                      coverage_value=value)
            assert main(["--config", str(cfg), "mine"]) == EXIT_OK
            patterns.append((out / "patterns.json").read_bytes())
        assert patterns[0] == patterns[1]


class TestExitCodes:
    @pytest.mark.parametrize("stage", ["mine", "pipeline"])
    def test_header_only_metrics_is_a_data_error(self, tmp_path, capsys, stage):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text((FIXTURES / "metrics.csv").read_text().splitlines()[0] + "\n")
        cfg, out = fixture_config(tmp_path, metrics_path=str(metrics))
        out.mkdir()
        assert main(["--config", str(cfg), stage]) == EXIT_DATA_ERROR
        assert f"error: no metric series in {metrics}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_missing_metrics_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metrics_path": str(missing),
                                   "out_dir": str(tmp_path / "out")}))
        rc = main(["--config", str(cfg), "mine"])
        assert rc == EXIT_CONFIG_ERROR
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["label", "train", "pipeline"])
    def test_empty_prs_file_is_a_data_error(self, tmp_path, capsys, stage):
        prs = tmp_path / "prs.jsonl"
        prs.write_text("")
        cfg, _ = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), stage]) == EXIT_DATA_ERROR
        assert f"no pull requests in {prs}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, why", [
        ("number_of_comments", '"3"', "must be a finite number"),
        ("number_of_comments", "Infinity", "must be a finite number"),
        ("number_of_comments", "-1", "must be non-negative"),
        ("creation_date", '"not a date"', "is not an RFC 3339 date"),
        # which 3.11's fromisoformat read as 2019-12-30
        ("creation_date", '"2020-W01-1"', "is not an RFC 3339 date: '2020-W01-1'"),
        ("creation_date", "1e12", "must be a time in years 0001 to 9999 UTC"),
        ("creation_date", "-62135596801", "must be a time in years 0001 to 9999 UTC"),
    ])
    def test_bad_pr_value_is_a_data_error(self, tmp_path, capsys, field, value, why):
        lines = (FIXTURES / "prs.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first[field] = "SENTINEL"
        lines[0] = json.dumps(first).replace('"SENTINEL"', value)
        prs = tmp_path / "prs.jsonl"
        prs.write_text("\n".join(lines) + "\n")
        cfg, out = fixture_config(tmp_path, prs_path=str(prs))
        out.mkdir()
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid pull requests {prs}: line 1: {field} {why}")
        assert "Traceback" not in err and list(out.iterdir()) == []

    @pytest.mark.parametrize("edit, why", [
        (lambda cells: cells[:3], "row 6 has 3 cells, the header 5"),
        (lambda cells: [cells[0], "notadate", *cells[2:]],
         "timestamp at row 6 is not an RFC 3339 date: 'notadate'"),
        # before 0001-01-01 UTC, which no RFC 3339 time can write
        (lambda cells: [cells[0], "0001-01-01T00:00:00+23:00", *cells[2:]],
         "timestamp at row 6 must be a time in years 0001 to 9999 UTC, "
         "got '0001-01-01T00:00:00+23:00'"),
    ])
    def test_malformed_metrics_row_is_a_data_error(self, tmp_path, capsys, edit, why):
        lines = (FIXTURES / "metrics.csv").read_text().splitlines()
        lines[6] = ",".join(edit(lines[6].split(",")))  # data row 6
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("\n".join(lines) + "\n")
        cfg, out = fixture_config(tmp_path, metrics_path=str(metrics))
        out.mkdir()
        for stage in ("mine", "pipeline"):
            assert main(["--config", str(cfg), stage]) == EXIT_DATA_ERROR
            assert capsys.readouterr().err == f"error: invalid metrics {metrics}: {why}\n"
            assert list(out.iterdir()) == []

    def test_null_pr_ids_fall_back_to_the_pull_request_number(self, tmp_path):
        # each fixture pr_id is its pull_request_number, so nulling them all
        # changes no artifact
        lines = (FIXTURES / "prs.jsonl").read_text().splitlines()
        prs = tmp_path / "prs.jsonl"
        prs.write_text("".join(json.dumps({**json.loads(line), "pr_id": None}) + "\n"
                               for line in lines))
        runs = [fixture_config(tmp_path / name, **extra)
                for name, extra in (("a", {}), ("b", {"prs_path": str(prs)}))]
        for cfg, _ in runs:
            assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        (_, a), (_, b) = runs
        for name in ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_repeated_pr_id_is_a_data_error(self, tmp_path, capsys):
        lines = (FIXTURES / "prs.jsonl").read_text().splitlines()
        prs = tmp_path / "prs.jsonl"
        prs.write_text("\n".join([*lines, lines[4]]) + "\n")
        cfg, out = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), "label"]) == EXIT_DATA_ERROR
        first = json.loads(lines[4])
        assert capsys.readouterr().err == (
            f"error: invalid pull requests {prs}: line {len(lines) + 1}: pull request "
            f"{first['pr_id']!r} of {first['repo_id']!r} repeats line 5\n")
        assert not (out / "golden.jsonl").exists()

    def test_non_string_text_is_a_data_error(self, tmp_path, capsys):
        lines = (FIXTURES / "prs.jsonl").read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "text": 5})
        prs = tmp_path / "prs.jsonl"
        prs.write_text("\n".join(lines) + "\n")
        cfg, _ = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), "label"]) == EXIT_DATA_ERROR
        assert capsys.readouterr().err == (
            f"error: invalid pull requests {prs}: line 3: text must be a string, got 5\n")

    @pytest.mark.parametrize("edit, why", [
        (no_keyword, "stage 1: training needs labeled pull requests of 2 classes "
                     "or more, got 0"),
        (capa_only, "stage 1: training needs labeled pull requests of 2 classes "
                    "or more, got 1"),
        (one_unused, "stage 2: class 7 has 1 labeled pull request, and training "
                     "needs 2 of each class"),
    ], ids=["no-keyword", "capa-only", "one-unused"])
    def test_untrainable_labels_are_a_data_error(self, tmp_path, capsys, edit, why):
        prs = fixture_prs(tmp_path / "prs.jsonl", edit)
        cfg, out = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), "label"]) == EXIT_OK
        for command in ("train", "pipeline"):
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert main(["--config", str(cfg), command]) == EXIT_DATA_ERROR
            assert capsys.readouterr().err == f"error: {why}\n"
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # explicit ids keep the test names stable when a message is reworded
    @pytest.mark.parametrize("stage, edit, why", [
        # a model as format 1 wrote it, with the forest's settings beside its trees
        pytest.param(1, lambda doc: {**older_format(doc, 1),
                                     "config": {"n_estimators": 100, "seed": 0}},
                     "format_version must be 4, got 1",
                     id="1-<lambda>-format 1 rejected"),
        # a model as format 2 wrote it, with its trees as nested dicts
        pytest.param(2, lambda doc: older_format(doc, 2),
                     "format_version must be 4, got 2", id="format 2 rejected"),
        (2, lambda doc: json.dumps(doc)[:-40], "line 1 column"),  # truncated
        (2, lambda doc: "[" * 100_000, "recursion depth"),
        pytest.param(2, lambda doc: with_split_feature(doc, 99),
                     "feature[0] must be an integer in [-1, 26], got 99",
                     id="2-<lambda>-split feature must be an index below 27"),
        (1, lambda doc: {**doc, "classes": [1, 5]}, "not all StageOneLabel values"),
    ])
    def test_malformed_model_is_a_config_error(self, tmp_path, capsys, stage, edit, why):
        cfg, out = fixture_config(tmp_path)
        for step in ("label", "train"):
            assert main(["--config", str(cfg), step]) == EXIT_OK
        path = out / f"model_stage{stage}.json"
        doc = edit(json.loads(path.read_text()))
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", str(cfg), "classify"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"error: invalid model {path}: " in err and why in err
        assert not (out / "classified.jsonl").exists()

    @pytest.mark.parametrize("name, stage, line, edit, why", [
        ("occurrences.jsonl", "associate", 1, lambda ln: without(ln, "start_time"),
         "start_time must be an RFC 3339 date, got None"),
        ("occurrences.jsonl", "associate", 1, lambda ln: with_fields(ln, pattern_id="0"),
         "pattern_id must be an integer >= 0, got '0'"),
        ("occurrences.jsonl", "associate", 1, lambda ln: without(ln, "distance"),
         "distance must be a finite number, got None"),
        ("occurrences.jsonl", "associate", 1,
         lambda ln: with_fields(ln, distance=10**400), "distance must be a finite number"),
        ("classified.jsonl", "associate", 2, lambda ln: with_fields(ln, capa_class=9),
         "capa_class must be null or a CAPA class in 1..7, got 9"),
        ("classified.jsonl", "associate", 1, lambda ln: with_fields(ln, creation_date=5),
         "creation_date must be an RFC 3339 date, got 5"),
        # 0000-12-31T23:00:00 UTC, which no RFC 3339 time can write back
        ("classified.jsonl", "associate", 1,
         lambda ln: with_fields(ln, creation_date="0001-01-01T00:00:00+01:00"),
         "creation_date must be an RFC 3339 date, got '0001-01-01T00:00:00+01:00'"),
        ("golden.jsonl", "train", 1, lambda ln: with_fields(ln, stage1="CAPA"),
         "stage1 must be capa or non_capa, got 'CAPA'"),
        ("golden.jsonl", "train", 1,
         lambda ln: with_fields(ln, stage1="capa", stage2=None),
         "stage2 must be a CAPA class in 1..7, got None"),
        ("golden.jsonl", "train", 1, lambda ln: "{oops", "Expecting property name"),
        ("golden.jsonl", "train", 1, lambda ln: "5", "not a JSON object"),
        # the first pattern row
        ("contingency.csv", "validate", 2, lambda ln: ln.replace(",", ",x", 1),
         "invalid literal"),
    ])
    def test_malformed_artifact_is_a_config_error(self, tmp_path, capsys, name,
                                                  stage, line, edit, why):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        path = out / name
        lines = path.read_text().splitlines()
        lines[line] = edit(lines[line])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["--config", str(cfg), stage]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ") and f" {path}: " in err
        assert why in err and "Traceback" not in err
        if name.endswith(".jsonl"):
            assert f"line {line + 1}" in err

    @pytest.mark.parametrize("missing, what", [
        ("contingency", "contingency table"), ("pairwise", "pairwise rows")])
    def test_missing_standalone_table_is_a_config_error(self, tmp_path, capsys,
                                                         missing, what):
        paths = {"contingency": bundled_data_path("reference_capa_counts.csv"),
                 "pairwise": bundled_data_path("reference_pairwise.json"),
                 missing: tmp_path / "nope"}
        out = tmp_path / "out"
        assert main(["--out", str(out), "validate", "--contingency",
                     str(paths["contingency"]), "--pairwise",
                     str(paths["pairwise"])]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"error: {what} file not found: {tmp_path / 'nope'}\n")
        assert list(out.iterdir()) == []

    def test_pr_line_must_be_an_object(self, tmp_path, capsys):
        prs = tmp_path / "prs.jsonl"
        prs.write_text((FIXTURES / "prs.jsonl").read_text() + "5\n")
        n = len(prs.read_text().splitlines())
        cfg, _ = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), "label"]) == EXIT_DATA_ERROR
        assert f"line {n}: not a JSON object" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_CONFIG_ERROR

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG_ERROR

    def test_locked_output_dir_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").touch()
        rc = main(["--out", str(out), "report"])
        assert rc == EXIT_CONFIG_ERROR
        assert "lock" in capsys.readouterr().err

    def test_lock_records_pid(self, tmp_path):
        with OutputLock(tmp_path) as lock:
            assert lock.path.read_text() == str(os.getpid())
        assert not lock.path.exists()

    def test_live_lock_is_not_stale(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        assert main(["--out", str(out), "report"]) == EXIT_CONFIG_ERROR
        assert "locked by another run" in capsys.readouterr().err

    def test_stale_lock_names_pid_and_path(self, tmp_path, capsys):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped, so its pid no longer runs
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text(str(child.pid))
        assert main(["--out", str(out), "report"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"stale lock of pid {child.pid}" in err
        assert str(out / ".lock") in err
        assert (out / ".lock").exists()  # left for the user to remove

    def test_lock_released_after_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "report"]) == EXIT_OK
        assert not (out / ".lock").exists()
        assert main(["--out", str(out), "report"]) == EXIT_OK


@pytest.fixture(scope="module")
def trained_fixture(tmp_path_factory):
    """The config and output directory of a fixture run through label and
    train."""
    cfg, out = fixture_config(tmp_path_factory.mktemp("trained"))
    for step in ("label", "train"):
        assert main(["--config", str(cfg), step]) == EXIT_OK
    return cfg, out


# values that no node array holds: null, bool, string and nested lists
NOT_AN_ENTRY = [None, True, "0", [0], []]
# per node array, more values that no valid model holds there: floats,
# negatives, out-of-range indices, and a split made a leaf or a leaf a split
MODEL_DEFECTS = {
    "feature": [1.5, -2, 27, "leaf", "split"],
    "threshold": [math.nan, math.inf, -math.inf, 10**400],
    "counts": [1.5, -1, 2**31],
}
# the named feature defects: the new value, and whether it goes at a split
FLIPS = {"leaf": (-1, True), "split": (0, False)}


def damaged_model(doc, key, defect, position):
    """doc with one entry of doc[key] replaced by defect, or with doc[key]
    cut short; position picks the entry, or the length left."""
    entries = doc[key]
    if defect == "cut":
        del entries[position % len(entries):]
    elif isinstance(defect, str) and defect in FLIPS:
        value, at_split = FLIPS[defect]
        nodes = [i for i, f in enumerate(entries) if (f >= 0) == at_split]
        entries[nodes[position % len(nodes)]] = value
    else:
        entries[position % len(entries)] = defect
    return doc


class TestModelFileContract:
    """A model file damaged in one entry of one node array, or cut short, is
    a config error of a lone classify: exit 2, the error naming the file, no
    traceback, and the output directory as it was."""

    @pytest.mark.parametrize("key, defect", [
        pytest.param(key, defect, id=f"{key}-" + ("10**400" if defect == 10**400
                                                   else repr(defect)))
        for key, defects in MODEL_DEFECTS.items()
        for defect in [*NOT_AN_ENTRY, *defects, "cut"]])
    @given(st.sampled_from([1, 2]), st.integers(0, 2**16))
    @settings(derandomize=True, deadline=None, database=None, max_examples=2)
    def test_damaged_model_is_a_config_error(self, trained_fixture, key, defect, stage,
                                             position):
        cfg, out = trained_fixture
        path = out / f"model_stage{stage}.json"
        text = path.read_text()
        path.write_text(json.dumps(damaged_model(json.loads(text), key, defect, position)))
        try:
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["--config", str(cfg), "classify"])
            assert code == EXIT_CONFIG_ERROR, err.getvalue()
            assert err.getvalue().startswith(f"error: invalid model {path}: ")
            assert "Traceback" not in err.getvalue()
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        finally:
            path.write_text(text)


PAIRWISE_FIELDS = {"pattern", "capa_i", "capa_j", "mean_i", "mean_j", "t", "dof", "p"}


class TestValidateStandalone:
    def test_reference_table_and_pairwise(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "--out", str(out), "--alpha", "0.15", "--seed", "11",
            "validate",
            "--contingency", str(bundled_data_path("reference_capa_counts.csv")),
            "--pairwise", str(bundled_data_path("reference_pairwise.json")),
        ])
        assert rc == EXIT_OK
        chi2 = json.loads((out / "chi2.json").read_text())
        assert chi2["meta"]["seed"] == 11
        assert chi2["statistic"] == pytest.approx(84.208, abs=0.01)
        assert chi2["dof"] == 54
        assert 0.005 <= chi2["p_value"] <= 0.012
        mapping = json.loads((out / "mapping.json").read_text())
        got = [(t["pattern"], t["capa"]) for t in mapping["tuples"]]
        assert got == [(5, 0), (11, 1), (12, 0), (13, 0), (14, 1)]

    def run_validate(self, tmp_path, contingency=None, pairwise=None):
        out = tmp_path / "out"
        reference = json.loads(
            bundled_data_path("reference_pairwise.json").read_text())
        table = tmp_path / "table.csv"
        table.write_text(contingency or
                         bundled_data_path("reference_capa_counts.csv").read_text())
        rows = tmp_path / "pairwise.json"
        rows.write_text(json.dumps(pairwise or reference))
        rc = main(["--out", str(out), "validate", "--contingency", str(table),
                   "--pairwise", str(rows)])
        return rc, out, table, rows

    def test_pairwise_without_t_or_dof_records_null(self, tmp_path):
        # the published rows give means and p-values only; no t is made up
        rc, out, _, _ = self.run_validate(tmp_path)
        assert rc == EXIT_OK
        tests = json.loads((out / "pairwise.json").read_text())["tests"]
        assert len(tests) == 14
        assert all(set(t) == PAIRWISE_FIELDS and t["t"] is None and t["dof"] is None
                   for t in tests)

    def test_pairwise_row_keeps_only_its_fields(self, tmp_path):
        doc = json.loads(bundled_data_path("reference_pairwise.json").read_text())
        doc["tests"][3]["source"] = "table 7"
        rc, out, _, _ = self.run_validate(tmp_path, pairwise=doc)
        assert rc == EXIT_OK
        tests = json.loads((out / "pairwise.json").read_text())["tests"]
        assert set(tests[3]) == PAIRWISE_FIELDS

    # rows[1] is pattern 9's: from p-negative on, each row would bend the
    # mapping or make mapping.json or pairwise.json unreadable
    @pytest.mark.parametrize("edit, why", [
        (lambda rows: rows[3].pop("pattern"),
         "tests[3]: pattern must be an integer >= 0, got None"),
        (lambda rows: rows[3].update(p="x"), "tests[3]: p must be a number in [0, 1], got 'x'"),
        (lambda rows: rows[3].update(capa_i=1.0),
         "capa_i must be an action id in 0..6, got 1.0"),
        (lambda rows: rows[3].update(pattern=True), "pattern must be an integer >= 0, got True"),
        (lambda rows: rows[3].update(mean_j=None), "mean_j must be a number in [0, 1]"),
        (lambda rows: rows[3].update(mean_i=10**400),
         "tests[3]: mean_i must be a number in [0, 1], got 1000"),
        (lambda rows: rows[3].update(t="2.1"), "t must be null or a finite number, got '2.1'"),
        (lambda rows: rows[3].update(dof=[]), "dof must be null or a finite number, got []"),
        (lambda rows: rows[1].update(p=-3.0),
         "tests[1]: p must be a number in [0, 1], got -3.0"),
        (lambda rows: rows[1].update(t=float("nan")),
         "tests[1]: t must be null or a finite number, got nan"),
        (lambda rows: rows[1].update(capa_i=99),
         "tests[1]: capa_i must be an action id in 0..6, got 99"),
        (lambda rows: rows[1].update(pattern=-1),
         "tests[1]: pattern must be an integer >= 0, got -1"),
        (lambda rows: rows[1].update(capa_j=1, p=0.9),
         "tests[1]: capa_i and capa_j must be two actions no earlier row "
         "compares for pattern 9, got 1 and 1"),
        (lambda rows: rows.extend(
            {"pattern": 3, "capa_i": i, "capa_j": j, "mean_i": mi, "mean_j": mj,
             "p": 0.01} for i, j, mi, mj in ((0, 2, 0.8, 0.2), (2, 0, 0.2, 0.8))),
         "tests[15]: capa_i and capa_j must be two actions no earlier row "
         "compares for pattern 3, got 2 and 0"),
        # the table has patterns 5..14, and pattern 5 saw action 1 only twice
        (lambda rows: rows.append({"pattern": 4, "capa_i": 0, "capa_j": 2,
                                   "mean_i": 0.8, "mean_j": 0.2, "p": 0.01}),
         "tests[14]: pattern must be a pattern of the table, got 4"),
        (lambda rows: rows.append({"pattern": 5, "capa_i": 1, "capa_j": 2,
                                   "mean_i": 0.8, "mean_j": 0.2, "p": 0.01}),
         "tests[14]: capa_i and capa_j must be actions of pattern 5 seen at "
         "least min_count times, [0, 2], got 1 and 2"),
    ], ids=["no-pattern", "p-text", "capa-float", "pattern-bool", "mean-null", "mean-huge",
            "t-text", "dof-list", "p-negative", "t-nan", "action-99",
            "pattern-negative", "self-pair", "repeated-pair", "pattern-not-in-table",
            "action-not-qualifying"])
    def test_malformed_pairwise_row(self, tmp_path, capsys, edit, why):
        doc = json.loads(bundled_data_path("reference_pairwise.json").read_text())
        edit(doc["tests"])
        rc, out, _, rows = self.run_validate(tmp_path, pairwise=doc)
        assert rc == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid pairwise rows {rows}: ")
        assert why in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("edit, why", [
        (lambda text: text.replace("Pattern 6,2,", "Pattern 6,x,"), "'x'"),
        (lambda text: "Pattern type,CAPA 0,CAPA 1,Total\nPattern 0,5\nTotal,5,0,5\n",
         "line 2: 2 cells, the header has 4"),
        (lambda text: text.replace("Pattern 6,2,", "Pattern 6,-5,"),
         "counts must be non-negative"),
        (lambda text: text.replace("Pattern 6,", "Pattern 5,"), "repeated labels"),
        (lambda text: text.replace("CAPA 1,", "CAPA 0,"), "repeated labels"),
        (lambda text: text.replace(",0,20\n", ",0,21\n"),
         "line 2: row total 21, its cells sum to 20"),
        (lambda text: text.replace(",11,217", ",11,218"),
         "line 12: Total row [37, 49, 69, 10, 6, 35, 11, 218], the columns sum to "
         "[37, 49, 69, 10, 6, 35, 11, 217]"),
        (lambda text: text.replace("Pattern 6,2,2,1,1,0,0,0,6", "Pattern 6,2,2,1,1,0,0,0,6,42"),
         "line 3: 10 cells, the header has 9"),
        (lambda text: text.rsplit("Total,", 1)[0], "and a Total row"),
        (lambda text: text.replace("CAPA 1,", "CAPA x,"), "line 1: invalid literal for int()"),
        (lambda text: text.replace("Pattern 6,", ","), "line 3: invalid literal for int()"),
        # a count past int64, with totals that agree
        (lambda text: "Pattern type,CAPA 0,CAPA 1,Total\n"
         f"Pattern 0,{10**29},1,{10**29 + 1}\nTotal,{10**29},1,{10**29 + 1}\n",
         "too large"),
    ], ids=["cell-text", "short-row", "negative-cell", "repeated-row", "repeated-column",
            "row-total", "total-row", "extra-cell", "no-total-row", "bad-header", "empty-label",
            "count-past-int64"])
    def test_malformed_contingency_table(self, tmp_path, capsys, edit, why):
        text = bundled_data_path("reference_capa_counts.csv").read_text()
        rc, out, table, _ = self.run_validate(tmp_path, contingency=edit(text))
        assert rc == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert str(table) in err and why in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_missing_contingency(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "out"), "validate"])
        assert rc == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("flag, path", [
        ("--contingency", "reference_capa_counts.csv"), ("--pairwise", "reference_pairwise.json")])
    def test_lone_standalone_flag_is_a_config_error(self, tmp_path, capsys, flag, path):
        # one standalone file beside a run's own artifacts would mix two
        # runs: the published table's chi2 with the run's joins, say
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["--config", str(cfg), "validate", flag, str(bundled_data_path(path))])
        assert rc == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "--contingency and --pairwise together" in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestReportGaps:
    def test_report_with_no_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "4", "report"]) == EXIT_OK
        text = (out / "report.md").read_text()
        assert text.startswith("<!-- seed=4 -->")
        assert "Missing artifacts" in text
        assert "contingency.csv" in text
        assert "chi2.json" in text


def set_field(key, value, row=None):
    """An edit of a JSON document that sets key, in doc[row[0]][row[1]]
    when row is given."""
    def edit(doc):
        (doc if row is None else doc[row[0]][row[1]])[key] = value
        return doc
    return edit


def drop_field(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


class TestReportInputs:
    @pytest.mark.parametrize("name, edit, why", [
        ("report_stage1.json", set_field("rows", 5), "rows must be a list, got 5"),
        ("report_stage1.json", set_field("rows", {}), "rows must be a list"),
        ("report_stage2.json", set_field("f1", "1.00", ("rows", 0)),
         "rows[0]: f1 must be a finite number, got '1.00'"),
        ("report_stage1.json", set_field("label", "1", ("rows", 1)),
         "rows[1]: label must be an integer, got '1'"),
        ("report_stage2.json", set_field("tp", None, ("rows", 2)),
         "rows[2]: tp must be an integer >= 0, got None"),
        ("report_stage1.json", set_field("rows", [[]]), "rows[0]: not a JSON object"),
        ("chi2.json", set_field("statistic", "x"),
         "statistic must be a finite number, got 'x'"),
        ("chi2.json", drop_field("low_expected_cells"),
         "low_expected_cells must be an integer >= 0, got None"),
        ("chi2.json", set_field("dof", "12"), "dof must be an integer >= 0, got '12'"),
        ("chi2.json", set_field("p_value", False), "p_value must be a finite number"),
        ("chi2.json", lambda doc: [doc], "not a JSON object"),
        ("chi2.json", set_field("statistic", None), "note must be a string, got None"),
        ("mapping.json", drop_field("tuples"), "tuples must be a list, got None"),
        ("mapping.json", set_field("alpha", "0.15"), "alpha must be a finite number"),
        ("mapping.json", set_field("tuples", [{"pattern": 0, "capa": "1"}]),
         "tuples[0]: capa must be an action id in 0..6, got '1'"),
        ("mapping.json", set_field("tuples", [{"pattern": None, "capa": 1}]),
         "tuples[0]: pattern must be an integer >= 0, got None"),
        ("contingency.csv", lambda text: text.replace("Pattern 0,14,", "Pattern 0,x,"),
         "invalid literal"),
        ("contingency.csv", lambda text: text.replace("Pattern 0,14,", "Pattern 0,-1,"),
         "counts must be non-negative"),
        ("contingency.csv", lambda text: text.replace("Pattern 1,", "Pattern 0,"),
         "repeated labels"),
        ("contingency.csv", lambda text: text.replace("Pattern 0,14,", "Pattern 0,15,"),
         "line 3: row total"),
    ], ids=["rows-int", "rows-object", "f1-text", "label-text", "tp-null", "row-list",
            "statistic-text", "no-low-expected-cells", "dof-text", "p-value-bool",
            "chi2-list", "no-note", "no-tuples", "alpha-text", "capa-text",
            "pattern-null", "cell-text", "negative-cell", "repeated-row", "row-total"])
    def test_malformed_input_exits_2_and_keeps_report(self, tmp_path, capsys, name,
                                                      edit, why):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        report = (out / "report.md").read_bytes()
        path = out / name
        if name.endswith(".json"):
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        else:
            path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert main(["--config", str(cfg), "report"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {ARTIFACTS[name][0]} {path}: ")
        assert why in err and "Traceback" not in err
        assert (out / "report.md").read_bytes() == report

    def test_missing_class_report_is_listed(self, tmp_path):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        (out / "report_stage2.json").unlink()
        assert main(["--config", str(cfg), "report"]) == EXIT_OK
        text = (out / "report.md").read_text()
        assert text.endswith("## Missing artifacts\n\n- report_stage2.json\n")
        assert "## Actions near patterns" in text and "## Independence test" in text

    def test_present_class_report_is_rendered_beside_a_missing_one(self, tmp_path):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        (out / "report_stage1.json").unlink()
        assert main(["--config", str(cfg), "report"]) == EXIT_OK
        text = (out / "report.md").read_text()
        assert "## Classification report, stage 2" in text.splitlines()
        assert "## Classification report, stage 1" not in text
        assert text.endswith("## Missing artifacts\n\n- report_stage1.json\n")

    def test_malformed_class_report_is_an_error_beside_a_missing_one(self, tmp_path,
                                                                     capsys):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        report = (out / "report.md").read_bytes()
        path = out / "report_stage1.json"
        path.write_text(json.dumps({"rows": 5}))
        (out / "report_stage2.json").unlink()
        capsys.readouterr()
        assert main(["--config", str(cfg), "report"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == \
            f"error: invalid class report {path}: rows must be a list, got 5\n"
        assert (out / "report.md").read_bytes() == report


# the artifacts that a stage reads back
PARSED = [name for name, row in ARTIFACTS.items() if row[4] is not None]


@pytest.fixture(scope="module", params=["fixture", "numeric-dates"])
def pipeline_out(request, tmp_path_factory):
    """The config and output directory of a pipeline on the fixture, and on
    its PRs with numeric creation dates."""
    tmp = tmp_path_factory.mktemp(request.param)
    prs = FIXTURES / "prs.jsonl" if request.param == "fixture" else \
        numeric_date_prs(tmp / "prs.jsonl")
    cfg, out = fixture_config(tmp, prs_path=str(prs))
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    return load_config(cfg), out


class TestArtifactTable:
    @pytest.mark.parametrize("name", PARSED)
    def test_render_of_the_parse_is_the_file(self, pipeline_out, name):
        cfg, out = pipeline_out
        run = Run(cfg, out)
        text = ARTIFACTS[name][3](run, run.load(name))
        assert text.encode("utf-8") == (out / name).read_bytes()

    @pytest.mark.parametrize("name", PARSED)
    def test_damaged_or_deleted_artifact_is_a_config_error(self, pipeline_out, tmp_path,
                                                           name):
        cfg, out = pipeline_out
        what, stage = ARTIFACTS[name][:2]
        path = tmp_path / name
        path.write_bytes((out / name).read_bytes()[:-2])  # cuts the last line's end
        with pytest.raises(ConfigError) as damaged:
            Run(cfg, tmp_path).load(name)
        assert str(damaged.value).startswith(f"invalid {what} {path}: ")
        path.unlink()
        with pytest.raises(ConfigError) as deleted:
            Run(cfg, tmp_path).load(name)
        assert str(deleted.value) == f"{what} file not found: {path} (run {stage})"

    def test_only_parsed_artifacts_are_read_back(self, pipeline_out):
        cfg, out = pipeline_out
        run = Run(cfg, out)
        for attr in ("patterns", "pairwise", "report_md", "no_such_value"):
            with pytest.raises(AttributeError, match=f"no attribute '{attr}'"):
                getattr(run, attr)
        # each row has an attribute of its own
        assert run.report_stage1 == json.loads((out / "report_stage1.json").read_text())
        assert run.report_stage2 == json.loads((out / "report_stage2.json").read_text())

    def test_attribute_error_of_a_parse_names_the_file(self, pipeline_out, monkeypatch):
        # else Run.joins, which reads the occurrences, would report itself missing
        def parse(text):
            raise AttributeError("'list' object has no attribute 'get'")
        cfg, out = pipeline_out
        what, stage, attr, render, _ = ARTIFACTS["occurrences.jsonl"]
        monkeypatch.setitem(ARTIFACTS, "occurrences.jsonl",
                            (what, stage, attr, render, parse))
        with pytest.raises(ConfigError, match="^invalid occurrences .*: 'list' object"):
            Run(cfg, out).joins


def malformed_line_at_length_9(tmp_path, out, monkeypatch):
    prs = fixture_prs(tmp_path / "prs.jsonl",
                      lambda objs: [*objs[:5], {"creation_date": "yesterday"}, *objs[6:]])
    return ("pipeline", {"prs_path": str(prs), "min_len": 9, "max_len": 9},
            EXIT_DATA_ERROR, f"error: invalid pull requests {prs}: line 6: creation_date is "
                             "not an RFC 3339 date: 'yesterday'\n")


def lines_added_times_1e160(tmp_path, out, monkeypatch):
    # each finite, but the squared deviations of org/repo0's lines_added
    # overflow, which z-normalized every window to zeros, a perfect match
    metrics = tmp_path / "metrics.csv"
    lines = (FIXTURES / "metrics.csv").read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        repo, stamp, added, rest = line.split(",", 3)
        lines[i] = f"{repo},{stamp},{float(added) * 1e160!r},{rest}"
    metrics.write_text("".join(line + "\n" for line in lines))
    return ("mine", {"metrics_path": str(metrics)}, EXIT_DATA_ERROR,
            f"error: invalid metrics {metrics}: lines_added of org/repo0: values must "
            "not exceed 3.06e+152 in magnitude, for their squared deviations to stay "
            "finite, got 3.63e+161\n")


def no_keyword_match(tmp_path, out, monkeypatch):
    prs = fixture_prs(tmp_path / "prs.jsonl", no_keyword)
    return ("pipeline", {"prs_path": str(prs)}, EXIT_DATA_ERROR,
            "error: stage 1: training needs labeled pull requests of 2 classes or "
            "more, got 0\n")


def class_with_one_labeled_pr(tmp_path, out, monkeypatch):
    prs = fixture_prs(tmp_path / "prs.jsonl", one_unused)
    return ("pipeline", {"prs_path": str(prs)}, EXIT_DATA_ERROR,
            "error: stage 2: class 7 has 1 labeled pull request, and training needs "
            "2 of each class\n")


def creation_date_in_year_33658(tmp_path, out, monkeypatch):
    prs = fixture_prs(tmp_path / "prs.jsonl", with_creation_date(1e12))
    return ("pipeline", {"prs_path": str(prs)}, EXIT_DATA_ERROR,
            f"error: invalid pull requests {prs}: line 1: creation_date must be a time "
            "in years 0001 to 9999 UTC, got 1000000000000.0\n")


def undecodable_pr_line(tmp_path, out, monkeypatch):
    prs = tmp_path / "prs.jsonl"
    prs.write_bytes((FIXTURES / "prs.jsonl").read_bytes().replace(b"{", b"\xff{", 1))
    return ("pipeline", {"prs_path": str(prs)}, EXIT_DATA_ERROR,
            f"error: invalid pull requests {prs}: 'utf-8' codec can't decode byte 0xff")


def undecodable_metrics_row(tmp_path, out, monkeypatch):
    metrics = tmp_path / "metrics.csv"
    lines = (FIXTURES / "metrics.csv").read_bytes().splitlines(keepends=True)
    lines[6] = b"\xff" + lines[6]
    metrics.write_bytes(b"".join(lines))
    return ("pipeline", {"metrics_path": str(metrics)}, EXIT_DATA_ERROR,
            f"error: invalid metrics {metrics}: 'utf-8' codec can't decode byte 0xff")


def defective(name, edit, why):
    """A case of test_failed_run_keeps_every_byte: the pipeline on the
    fixture file name with its lines edited, which must exit 1 naming the
    file, then why."""
    what, key = {"metrics.csv": ("metrics", "metrics_path"),
                 "prs.jsonl": ("pull requests", "prs_path")}[name]

    def case(tmp_path, out, monkeypatch):
        lines = (FIXTURES / name).read_text().splitlines()
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in edit(lines)))
        return ("pipeline", {key: str(path)}, EXIT_DATA_ERROR,
                f"error: invalid {what} {path}: {why}\n")

    case.__name__ = f"{name}-{edit.__name__}"
    return case


def cut_column(lines):
    return [lines[0].replace("lines_changed", "lines_total"), *lines[1:]]


def short_row(lines):
    return [*lines[:6], ",".join(lines[6].split(",")[:3]), *lines[7:]]


def infinite_cell(lines):
    return [*lines[:6], lines[6].rsplit(",", 1)[0] + ",inf", *lines[7:]]


def repeated_row(lines):
    return [*lines[:7], *lines[6:]]


def bad_timestamp(lines):
    return [*lines[:6], lines[6].replace("2020-09-18T12:26:40Z", "notadate"), *lines[7:]]


def not_json(lines):
    return [*lines[:5], "{oops", *lines[6:]]


def string_count(lines):
    return [*lines[:5], with_fields(lines[5], number_of_comments="3"), *lines[6:]]


def repeated_pr(lines):
    return [*lines[:5], with_fields(lines[5], pr_id="105"), *lines[6:]]


def truncated_model(tmp_path, out, monkeypatch):
    path = out / "model_stage2.json"
    path.write_text(path.read_text()[:-40])
    return "classify", {}, EXIT_CONFIG_ERROR, f"error: invalid model {path}: "


def unencodable_last_artifact(tmp_path, out, monkeypatch):
    # a lone surrogate cannot be encoded, so the last temp file fails
    # after every other one is written; another seed changes every other
    # artifact, so a rename before the failure would show
    what, stage, attr, _, parse = ARTIFACTS["report.md"]
    monkeypatch.setitem(ARTIFACTS, "report.md",
                        (what, stage, attr, lambda run, text: "\ud800", parse))
    return "pipeline", {"seed": 8}, None, None


class TestAtomicWrites:
    @pytest.mark.parametrize("case", [
        malformed_line_at_length_9, lines_added_times_1e160, no_keyword_match,
        class_with_one_labeled_pr,
        creation_date_in_year_33658, undecodable_pr_line, undecodable_metrics_row,
        truncated_model, unencodable_last_artifact,
        # each loader defect names the file, then its row or line
        defective("metrics.csv", cut_column, "missing column(s): lines_changed"),
        defective("metrics.csv", short_row, "row 6 has 3 cells, the header 5"),
        defective("metrics.csv", infinite_cell, "non-finite value at row 6"),
        defective("metrics.csv", repeated_row,
                  "row 7 of org/repo0 is 0 s after row 6, not the file's step of 86400 s"),
        defective("metrics.csv", bad_timestamp,
                  "timestamp at row 6 is not an RFC 3339 date: 'notadate'"),
        defective("prs.jsonl", not_json, "malformed JSON at line 6"),
        defective("prs.jsonl", string_count,
                  "line 6: number_of_comments must be a finite number, got '3'"),
        defective("prs.jsonl", repeated_pr,
                  "line 6: pull request '105' of 'org/repo0' repeats line 5")],
        ids=lambda case: case.__name__)
    def test_failed_run_keeps_every_byte(self, tmp_path, capsys, monkeypatch, case):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        command, extra, code, err = case(tmp_path, out, monkeypatch)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg, _ = fixture_config(tmp_path, **extra)
        capsys.readouterr()
        if code is None:
            with pytest.raises(UnicodeEncodeError):
                main(["--config", str(cfg), command])
        else:
            assert main(["--config", str(cfg), command]) == code
            got = capsys.readouterr().err
            assert got.startswith(err) and "Traceback" not in got
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def with_fields(line, **fields):
    """The JSON object of line with fields set."""
    return json.dumps({**json.loads(line), **fields})


def without(line, key):
    """The JSON object of line without key."""
    return json.dumps({k: v for k, v in json.loads(line).items() if k != key})


def with_split_feature(doc, feature):
    """doc with the root split of its first tree on feature."""
    assert doc["feature"][0] >= 0
    doc["feature"][0] = feature
    return doc


def older_format(doc, version):
    """The model document doc as format 1 or 2 held its forest: nested
    trees."""
    forest = classifier.RandomForest.from_json(doc, len(classifier.FEATURE_ORDER))
    return {"meta": doc["meta"], "format_version": version, "classes": doc["classes"],
            "trees": forest.trees}


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the arguments of each
    call; those of a plain method of a class begin with self."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bound = isinstance(owner, type) and hasattr(original, "__self__")
    monkeypatch.setattr(owner, name, staticmethod(counted) if bound else counted)
    return calls


def numeric_date_prs(path):
    """The fixture PRs with creation_date as POSIX seconds 0.3 us before a
    metric sample, so RFC 3339 (whole microseconds) rounds them onto the
    start of any occurrence that begins that day."""
    lines = []
    for line in (FIXTURES / "prs.jsonl").read_text().splitlines():
        obj = json.loads(line)
        obj["creation_date"] = from_rfc3339(obj["creation_date"]) - 3600 - 3e-7
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestPipeline:
    def test_pipeline_equals_subcommand_composition(self, tmp_path):
        # in the one-repository cut every metric is a lone series
        lines = (FIXTURES / "metrics.csv").read_text().splitlines(keepends=True)
        one_repo = tmp_path / "one_repo.csv"
        one_repo.write_text("".join(
            [lines[0]] + [ln for ln in lines if ln.startswith("org/repo3,")]))
        inputs = {
            "fixture": {},
            "numeric": {"prs_path": str(numeric_date_prs(tmp_path / "prs_numeric.jsonl"))},
            "one_repo": {"metrics_path": str(one_repo)},
        }
        for label, extra in inputs.items():
            cfg_a, out_a = fixture_config(tmp_path / label / "a", **extra)
            assert main(["--config", str(cfg_a), "pipeline"]) == EXIT_OK
            for name in ARTIFACTS:
                assert (out_a / name).exists(), name

            cfg_b, out_b = fixture_config(tmp_path / label / "b", **extra)
            for step in ("mine", "label", "train", "classify", "associate",
                         "validate", "report"):
                assert main(["--config", str(cfg_b), step]) == EXIT_OK, step
            for name in ARTIFACTS:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                    (label, name)
                # every artifact is strict JSON (RFC 8259): no NaN or Infinity token
                text = (out_a / name).read_text()
                docs = {".json": [text], ".jsonl": text.splitlines()}.get(Path(name).suffix, [])
                for doc in docs:
                    json.loads(doc, parse_constant=reject_constant)
        # out_a holds the one-repository run, the last input
        patterns = json.loads((out_a / "patterns.json").read_text())["patterns"]
        assert [(p["source"]["repo"], p["source"]["offset"]) for p in patterns] == \
            [("org/repo3", 36), ("org/repo3", 79), ("org/repo3", 24)]

    def test_pipeline_parses_encodes_and_joins_once(self, tmp_path, monkeypatch):
        n_prs = len((FIXTURES / "prs.jsonl").read_text().splitlines())
        loads = count_calls(monkeypatch, ingestion, "load_prs_jsonl")
        joins = count_calls(monkeypatch, association, "temporal_join")
        encodes = count_calls(monkeypatch, classifier, "encode")
        model_reads = count_calls(monkeypatch, classifier.RandomForest, "from_json")
        artifact_reads = count_calls(monkeypatch, Run, "load")
        cfg, _ = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        assert len(loads) == len(joins) == 1
        # one encoding of the whole table, not one per pull request
        assert len(encodes) == 1 and encodes[0][0].shape == (n_prs, 27)
        assert model_reads == [] and artifact_reads == []
        # a single stage still reads its inputs from the files
        assert main(["--config", str(cfg), "classify"]) == EXIT_OK
        assert len(loads) == 2 and len(model_reads) == 2
        artifact_reads.clear()
        assert main(["--config", str(cfg), "report"]) == EXIT_OK
        assert sorted(args[1] for args in artifact_reads) == [
            "chi2.json", "contingency.csv", "mapping.json",
            "report_stage1.json", "report_stage2.json"]

    def test_fixture_models_pinned(self, tmp_path):
        # trees depend only on the features, labels, keyed draws and Gini
        # arithmetic, so these digests hold on any platform; a change that
        # grows other trees on purpose updates them and says why; the digests
        # changed with model format 3 (node arrays, not nested trees), whose
        # trees are those of format 2, and with model format 4 (no stored
        # left children), whose trees are those of format 3
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("model_stage1.json", "model_stage2.json")}
        assert digests == {
            "model_stage1.json":
                "a27efa6a6d3baf9200c07c7360c0e526c362d291c34ec988b623ce857aa08806",
            "model_stage2.json":
                "5fb739dd91e327f0109c849f024ea812f8b2b73b5a92c38989a76b6dcc78f757",
        }

    def test_pipeline_imports_no_random_or_masked_arrays(self, tmp_path):
        # numpy.random pulls in hashlib and OpenSSL, a plain np.unique pulls
        # in numpy.ma: several MiB of resident memory that a run never uses;
        # -X importtime logs each module the command imports on stderr
        cfg, out = fixture_config(tmp_path)
        child = run_capaminer("--config", cfg, "pipeline",
                              env={"PYTHONPROFILEIMPORTTIME": "1"})
        imported = {line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "numpy" in imported
        assert not {"numpy.random", "numpy.ma", "hashlib"} & imported
        assert (out / "model_stage2.json").exists()

    def test_mine_is_alike_at_one_and_two_blas_threads(self, tmp_path):
        # lengths 6 to 12 over the fixture's 8 repositories, so that the
        # consensus search splits its products and seeds each length with
        # the last one's winner, which the fixture's one length does not
        outs = []
        for threads in ("1", "2"):
            cfg, out = fixture_config(tmp_path / threads, min_len=6, max_len=12)
            run_capaminer("--config", cfg, "mine", env={"OPENBLAS_NUM_THREADS": threads})
            outs.append({name: (out / name).read_bytes()
                         for name in ("patterns.json", "occurrences.jsonl")})
        assert outs[0] == outs[1]
        patterns = json.loads(outs[0]["patterns.json"])["patterns"]
        assert len({p["length"] for p in patterns}) >= 3

    def test_inputs_are_read_as_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale, with UTF-8 mode and locale coercion off,
        # Python's default encoding is ASCII; and an open that falls back to
        # the locale's encoding is an EncodingWarning, here an error
        objs = [json.loads(line) for line in
                (FIXTURES / "prs.jsonl").read_text().splitlines()]
        objs[0]["text"] = "Überarbeitung: " + objs[0]["text"]
        prs = tmp_path / "prs.jsonl"
        prs.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n"
                               for obj in objs), encoding="utf-8")
        warn = {"PYTHONWARNDEFAULTENCODING": "1", "PYTHONWARNINGS": "error::EncodingWarning"}
        outs = []
        for name, locale in (("utf8", {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}),
                             ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0",
                                        "PYTHONCOERCECLOCALE": "0"})):
            cfg, out = fixture_config(tmp_path / name, prs_path=str(prs))
            run_capaminer("--config", cfg, "pipeline", env={**warn, **locale})
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outs[0]) == sorted(ARTIFACTS)
        assert outs[0] == outs[1]

    def test_inputs_with_a_byte_order_mark_read_as_without(self, tmp_path):
        # the UTF-8 mark that Excel and PowerShell write before the text
        marked = {}
        for name in ("metrics.csv", "prs.jsonl", "keywords.json"):
            marked[name] = tmp_path / name
            marked[name].write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
        outs = []
        for name, paths in (("plain", {}), ("marked", {
                "metrics_path": str(marked["metrics.csv"]),
                "prs_path": str(marked["prs.jsonl"]),
                "keywords_path": str(marked["keywords.json"])})):
            cfg, out = fixture_config(tmp_path / name, **paths)
            if paths:
                cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
            assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outs[0]) == sorted(ARTIFACTS)
        assert outs[0] == outs[1]

    def test_fixture_models_predict_as_per_row_walk(self, tmp_path):
        cfg, out = fixture_config(tmp_path)
        for stage in ("label", "train"):
            assert main(["--config", str(cfg), stage]) == EXIT_OK
        run = Run(load_config(cfg), out)
        stage1, stage2 = run.model_stage1, run.model_stage2
        X = classifier.encode(ingestion.load_prs_jsonl(FIXTURES / "prs.jsonl").values)
        for forest in (stage1, stage2):
            labels, fractions = forest.predict(X)
            for label, frac, want in zip(labels.tolist(), fractions.tolist(),
                                         naive_predict(forest, X), strict=True):
                assert (label, dict(zip(forest.classes, frac))) == want
        got = classifier.classify_two_stage(stage1, stage2, X)
        assert got == naive_classify_two_stage(stage1, stage2, X)
        assert classifier.StageOneLabel.NON_CAPA in got
        assert any(isinstance(g, classifier.CapaLabel) for g in got)

    def test_validate_logs_skipped_pairs(self, tmp_path, caplog):
        # pattern 0 has three occurrences, pattern 1 one: its pair is skipped
        caps = {(0, 0): [0, 0, 1], (0, 1): [0, 1, 1, 0], (0, 2): [0, 0, 0, 1],
                (1, 0): [0, 1]}
        joins = [({"pattern_id": pt, "repo": "r", "start_index": k}, c)
                 for (pt, k), cs in caps.items() for c in cs]
        run = Run(load_config(None, {"out_dir": str(tmp_path), "min_count": 1}),
                  tmp_path)
        run.joins = joins
        run.table = association.build_contingency(joins)
        with caplog.at_level("INFO", logger="capaminer.cli"):
            cmd_validate(run)
        skipped = [r.args[0] for r in caplog.records
                   if r.msg.startswith("skipped %d action pairs")]
        assert skipped == [1]
        assert [(t["pattern"], t["capa_i"], t["capa_j"]) for t in run.pairwise] == \
            [(0, 0, 1)]

    @pytest.mark.parametrize("key", ["metrics_path", "prs_path", "keywords_path"])
    def test_missing_input_fails_before_any_write(self, tmp_path, capsys, key):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(ARTIFACTS)
        # a re-run at another length must not replace the patterns before
        # the missing input stops it; nor may a directory, which cannot be
        # read: a data error of the data inputs, a config error of the map
        directory = tmp_path / "directory"
        directory.mkdir()
        unreadable = EXIT_CONFIG_ERROR if key == "keywords_path" else EXIT_DATA_ERROR
        for path, code in ((tmp_path / "missing", EXIT_CONFIG_ERROR),
                           (directory, unreadable)):
            cfg, _ = fixture_config(tmp_path, min_len=9, max_len=9, **{key: str(path)})
            assert main(["--config", str(cfg), "pipeline"]) == code
            err = capsys.readouterr().err
            assert str(path) in err and "Traceback" not in err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("text", [
        '{"capa": {"refactoring": "refactor"}}',  # phrases must be a list
        '{"non_capa": "bump"}',
        '{"capa": {"nonsense": ["x"]}}',
        '["refactor"]',
        '{"non_capa": [""]}',  # an empty phrase is in every text
        '{"capa": {}}',
        '{"capa": {"refactoring": ["refactor"], "Refactoring": ["cleanup"]}}',
        '{"non-capa": ["wip"], "Capa": {"coverage": ["x"]}}',
        '{"capa": ',
    ])
    def test_bad_keyword_map_fails_before_any_write(self, tmp_path, capsys, text):
        kw = tmp_path / "keywords.json"
        kw.write_text(text)
        cfg, out = fixture_config(tmp_path, keywords_path=str(kw))
        for command in ("label", "pipeline"):
            assert main(["--config", str(cfg), command]) == EXIT_CONFIG_ERROR
            assert f"error: invalid keyword map {kw}: " in capsys.readouterr().err
            assert list(out.iterdir()) == []

    def test_creation_date_before_year_1000_round_trips(self, tmp_path):
        prs = fixture_prs(tmp_path / "prs.jsonl", with_creation_date(-6e10))
        cfg, out = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        first = json.loads((out / "classified.jsonl").read_text().splitlines()[1])
        assert first["creation_date"] == "0068-09-03T13:20:00Z"
        contingency = (out / "contingency.csv").read_bytes()
        # a lone associate parses the date back from classified.jsonl
        assert main(["--config", str(cfg), "associate"]) == EXIT_OK
        assert (out / "contingency.csv").read_bytes() == contingency

    def test_report_counts_low_expected_cells(self, tmp_path):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        chi2 = json.loads((out / "chi2.json").read_text())
        assert chi2["low_expected_cells"] == 8
        assert "\nExpected cells below 5: 8\n" in (out / "report.md").read_text()

    def test_seed_recorded_in_artifacts(self, tmp_path):
        cfg, out = fixture_config(tmp_path, seed=13)
        assert main(["--config", str(cfg), "mine"]) == EXIT_OK
        doc = json.loads((out / "patterns.json").read_text())
        assert doc["meta"]["seed"] == 13
        head = (out / "occurrences.jsonl").read_text().splitlines()[0]
        assert json.loads(head) == {"meta": {"seed": 13}}

    def test_patterns_numbered_in_configured_metric_order(self, tmp_path):
        metrics = ["lines_changed", "lines_added"]
        cfg, out = fixture_config(tmp_path, metrics=metrics)
        assert main(["--config", str(cfg), "mine"]) == EXIT_OK
        patterns = json.loads((out / "patterns.json").read_text())["patterns"]
        names = [p["metric"] for p in patterns]
        assert [p["pattern_id"] for p in patterns] == list(range(len(patterns)))
        assert set(names) == set(metrics)
        assert names == sorted(names, key=metrics.index)

    def test_occurrence_ids_name_patterns_of_their_metric(self, tmp_path):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "mine"]) == EXIT_OK
        patterns = {p["pattern_id"]: p for p in json.loads(
            (out / "patterns.json").read_text())["patterns"]}
        # ids run on across metrics
        assert len({p["metric"] for p in patterns.values()}) > 1
        series = {(s.repo_id, s.metric_name): s
                  for s in load_metrics_csv(FIXTURES / "metrics.csv")}
        lines = (out / "occurrences.jsonl").read_text().splitlines()[1:]
        assert lines
        for line in lines:
            occ = json.loads(line)
            p = patterns[occ["pattern_id"]]
            window = series[(occ["repo"], p["metric"])].values[
                occ["start_index"] : occ["end_index"] + 1]
            assert znorm_distance(p["values"], window) == pytest.approx(
                occ["distance"], abs=1e-9)
