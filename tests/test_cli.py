import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    _write_jsonl,
    bundled_data_path,
    cmd_validate,
    load_config,
    main,
)
from capaminer.errors import ConfigError
from capaminer.ingestion import load_metrics_csv
from capaminer.mining import occurrence_from_json, patterns_from_json
from capaminer.timeutil import from_rfc3339
from capaminer.tsdist import znorm_distance

from conftest import naive_classify_two_stage, naive_predict

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


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
    ])
    def test_bad_value_exits_before_any_write(self, tmp_path, capsys, key, value):
        cfg, out = fixture_config(tmp_path, **{key: value})
        out.mkdir()
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG_ERROR
        assert key in capsys.readouterr().err
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
    ])
    def test_bad_pr_value_is_a_data_error(self, tmp_path, capsys, field, value, why):
        lines = (FIXTURES / "prs.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first[field] = "SENTINEL"
        lines[0] = json.dumps(first).replace('"SENTINEL"', value)
        prs = tmp_path / "prs.jsonl"
        prs.write_text("\n".join(lines) + "\n")
        cfg, _ = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_DATA_ERROR
        assert f"error: line 1: {field} {why}" in capsys.readouterr().err

    def test_non_string_text_is_a_data_error(self, tmp_path, capsys):
        lines = (FIXTURES / "prs.jsonl").read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "text": 5})
        prs = tmp_path / "prs.jsonl"
        prs.write_text("\n".join(lines) + "\n")
        cfg, _ = fixture_config(tmp_path, prs_path=str(prs))
        assert main(["--config", str(cfg), "label"]) == EXIT_DATA_ERROR
        assert "error: line 3: text must be a string, got 5" in capsys.readouterr().err

    # explicit ids keep the test names stable when a message is reworded
    @pytest.mark.parametrize("stage, edit, why", [
        pytest.param(1, lambda doc: {"format_version": 1},
                     "config must be an object with exactly the keys",
                     id="1-<lambda>-config must have exactly the keys"),
        (2, lambda doc: json.dumps(doc)[:-40], "line 1 column"),  # truncated
        (2, lambda doc: "[" * 100_000, "recursion depth"),
        pytest.param(2, lambda doc: with_split_feature(doc, 99),
                     "feature must be an index below 27, got 99",
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
        ("classified.jsonl", "associate", 2, lambda ln: with_fields(ln, capa_class=9),
         "capa_class must be null or a CAPA class in 1..7, got 9"),
        ("classified.jsonl", "associate", 1, lambda ln: with_fields(ln, creation_date=5),
         "creation_date must be an RFC 3339 date, got 5"),
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
        got = {(t["pattern"], t["capa"]) for t in mapping["tuples"]}
        assert got == {(5, 0), (11, 1), (12, 0), (13, 0), (14, 1)}

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
        assert all(t["t"] is None and t["dof"] is None for t in tests)

    @pytest.mark.parametrize("edit, why", [
        (lambda row: row.pop("pattern"), "tests[3]: pattern must be an integer, got None"),
        (lambda row: row.update(p="x"), "tests[3]: p must be a finite number, got 'x'"),
        (lambda row: row.update(capa_i=1.0), "capa_i must be an integer, got 1.0"),
        (lambda row: row.update(pattern=True), "pattern must be an integer, got True"),
        (lambda row: row.update(mean_j=None), "mean_j must be a finite number"),
        (lambda row: row.update(t="2.1"), "t must be a number or null, got '2.1'"),
        (lambda row: row.update(dof=[]), "dof must be a number or null, got []"),
    ], ids=["no-pattern", "p-text", "capa-float", "pattern-bool", "mean-null",
            "t-text", "dof-list"])
    def test_malformed_pairwise_row(self, tmp_path, capsys, edit, why):
        doc = json.loads(bundled_data_path("reference_pairwise.json").read_text())
        edit(doc["tests"][3])
        rc, out, _, rows = self.run_validate(tmp_path, pairwise=doc)
        assert rc == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert str(rows) in err and why in err and "Traceback" not in err
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
    ], ids=["cell-text", "short-row", "negative-cell", "repeated-row", "repeated-column",
            "row-total", "total-row", "extra-cell", "no-total-row", "bad-header", "empty-label"])
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


class TestAtomicWrites:
    def test_failed_write_keeps_previous_artifact(self, tmp_path):
        cfg = load_config(None, {"out_dir": str(tmp_path)})
        path = tmp_path / "golden.jsonl"
        _write_jsonl(path, ['{"pr_id": 1}'], cfg)
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails partway
        with pytest.raises(UnicodeEncodeError):
            _write_jsonl(path, ['{"pr_id": 2}', "\ud800"], cfg)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["golden.jsonl"]


def with_fields(line, **fields):
    """The JSON object of line with fields set."""
    return json.dumps({**json.loads(line), **fields})


def without(line, key):
    """The JSON object of line without key."""
    return json.dumps({k: v for k, v in json.loads(line).items() if k != key})


def with_split_feature(doc, feature):
    """doc with the root split of its first tree on feature."""
    doc["trees"][0]["feature"] = feature
    return doc


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
        inputs = [FIXTURES / "prs.jsonl",
                  numeric_date_prs(tmp_path / "prs_numeric.jsonl")]
        for prs in inputs:
            cfg_a, out_a = fixture_config(tmp_path / prs.stem / "a",
                                          prs_path=str(prs))
            assert main(["--config", str(cfg_a), "pipeline"]) == EXIT_OK
            for name in ARTIFACTS:
                assert (out_a / name).exists(), name

            cfg_b, out_b = fixture_config(tmp_path / prs.stem / "b",
                                          prs_path=str(prs))
            for step in ("mine", "label", "train", "classify", "associate",
                         "validate", "report"):
                assert main(["--config", str(cfg_b), step]) == EXIT_OK, step
            for name in ARTIFACTS:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                    (prs.name, name)

    def test_pipeline_parses_encodes_and_joins_once(self, tmp_path, monkeypatch):
        n_prs = len((FIXTURES / "prs.jsonl").read_text().splitlines())
        loads = count_calls(monkeypatch, ingestion, "load_prs_jsonl")
        joins = count_calls(monkeypatch, association, "temporal_join")
        encodes = count_calls(monkeypatch, classifier, "encode_features")
        model_reads = count_calls(monkeypatch, classifier.RandomForest, "from_json")
        artifact_reads = count_calls(monkeypatch, Run, "load")
        cfg, _ = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        assert len(loads) == len(joins) == 1
        assert len(encodes) == len({id(args[0]) for args in encodes}) == n_prs
        assert model_reads == [] and artifact_reads == []
        # a single stage still reads its inputs from the files
        assert main(["--config", str(cfg), "classify"]) == EXIT_OK
        assert len(loads) == 2 and len(model_reads) == 2
        artifact_reads.clear()
        assert main(["--config", str(cfg), "report"]) == EXIT_OK
        assert sorted(args[1] for args in artifact_reads) == [
            "chi2.json", "contingency.csv", "mapping.json",
            "report_stage1.json", "report_stage2.json"]

    def test_pipeline_imports_no_random_or_masked_arrays(self, tmp_path):
        # numpy.random pulls in hashlib and OpenSSL, a plain np.unique pulls
        # in numpy.ma: several MiB of resident memory that a run never uses
        cfg, out = fixture_config(tmp_path)
        script = ("import sys; from capaminer.cli import main; "
                  "code = main(['--config', sys.argv[1], 'pipeline']); "
                  "print(sorted({'numpy.random', 'numpy.ma', 'hashlib'} & set(sys.modules)));"
                  "sys.exit(code)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                               capture_output=True, text=True, check=True)
        assert child.stdout.strip() == "[]"
        assert (out / "model_stage2.json").exists()

    def test_fixture_models_predict_as_per_row_walk(self, tmp_path):
        cfg, out = fixture_config(tmp_path)
        for stage in ("label", "train"):
            assert main(["--config", str(cfg), stage]) == EXIT_OK
        run = Run(load_config(cfg), out)
        (stage1, stage2), X = run.models, run.features
        for forest in (stage1, stage2):
            labels, fractions = forest.predict(X)
            for x, label, frac in zip(X, labels.tolist(), fractions.tolist()):
                assert (label, dict(zip(forest.classes, frac))) == \
                    naive_predict(forest, x)
        got = classifier.classify_two_stage(stage1, stage2, X)
        assert got == [naive_classify_two_stage(stage1, stage2, x) for x in X]
        assert classifier.StageOneLabel.NON_CAPA in got
        assert any(isinstance(g, classifier.CapaLabel) for g in got)

    def test_validate_logs_skipped_pairs(self, tmp_path, caplog):
        # pattern 0 has three occurrences, pattern 1 one: its pair is skipped
        caps = {(0, 0): [0, 0, 1], (0, 1): [0, 1, 1, 0], (0, 2): [0, 0, 0, 1],
                (1, 0): [0, 1]}
        joins = [association.JoinRecord(pt, ("r", k), f"p{pt}.{k}.{i}", c, 0.0)
                 for (pt, k), cs in caps.items() for i, c in enumerate(cs)]
        run = Run(load_config(None, {"out_dir": str(tmp_path), "min_count": 1}),
                  tmp_path)
        run.joins = joins
        (tmp_path / "contingency.csv").write_text(association.contingency_to_csv(
            association.build_contingency(joins)))
        with caplog.at_level("INFO", logger="capaminer.cli"):
            cmd_validate(run)
        skipped = [r.args[0] for r in caplog.records
                   if r.msg.startswith("skipped %d action pairs")]
        tested = json.loads((tmp_path / "pairwise.json").read_text())["tests"]
        assert skipped == [1]
        assert [(t["pattern"], t["capa_i"], t["capa_j"]) for t in tested] == \
            [(0, 0, 1)]

    @pytest.mark.parametrize("key", ["metrics_path", "prs_path", "keywords_path"])
    def test_missing_input_fails_before_any_write(self, tmp_path, capsys, key):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(ARTIFACTS)
        # a re-run at another length must not replace the patterns before
        # the missing input stops it
        missing = tmp_path / "missing"
        cfg, _ = fixture_config(tmp_path, min_len=9, max_len=9,
                                **{key: str(missing)})
        assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG_ERROR
        assert str(missing) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("text", [
        '{"capa": {"refactoring": "refactor"}}',  # phrases must be a list
        '{"non_capa": "bump"}',
        '{"capa": {"nonsense": ["x"]}}',
        '["refactor"]',
        '{"non_capa": [""]}',  # an empty phrase is in every text
        '{"capa": {}}',
        '{"capa": {"refactoring": ["refactor"], "Refactoring": ["cleanup"]}}',
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
        patterns = patterns_from_json(json.loads((out / "patterns.json").read_text()))
        names = [p.metric_name for p in patterns]
        assert [p.pattern_id for p in patterns] == list(range(len(patterns)))
        assert set(names) == set(metrics)
        assert names == sorted(names, key=metrics.index)

    def test_occurrence_ids_name_patterns_of_their_metric(self, tmp_path):
        cfg, out = fixture_config(tmp_path)
        assert main(["--config", str(cfg), "mine"]) == EXIT_OK
        patterns = {p.pattern_id: p for p in patterns_from_json(
            json.loads((out / "patterns.json").read_text()))}
        # ids run on across metrics
        assert len({p.metric_name for p in patterns.values()}) > 1
        series = {(s.repo_id, s.metric_name): s
                  for s in load_metrics_csv(FIXTURES / "metrics.csv")}
        lines = (out / "occurrences.jsonl").read_text().splitlines()[1:]
        assert lines
        for line in lines:
            occ = occurrence_from_json(json.loads(line))
            p = patterns[occ.pattern_id]
            window = series[(occ.repo_id, p.metric_name)].values[
                occ.start_index : occ.end_index + 1]
            assert znorm_distance(p.values, window) == pytest.approx(
                occ.distance, abs=1e-9)
