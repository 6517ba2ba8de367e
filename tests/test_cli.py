import json
from pathlib import Path

import pytest

from capaminer.cli import (
    ARTIFACTS,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    _write_jsonl,
    bundled_data_path,
    load_config,
    main,
)
from capaminer.errors import ConfigError
from capaminer.ingestion import load_metrics_csv
from capaminer.mining import occurrence_from_json_line, patterns_from_json
from capaminer.tsdist import znorm_distance

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_config(tmp_path, **extra):
    cfg = json.loads((FIXTURES / "config.json").read_text())
    cfg["metrics_path"] = str(FIXTURES / "metrics.csv")
    cfg["prs_path"] = str(FIXTURES / "prs.jsonl")
    cfg["keywords_path"] = str(FIXTURES / "keywords.json")
    cfg["out_dir"] = str(tmp_path / "out")
    cfg.update(extra)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["out_dir"])


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


class TestExitCodes:
    def test_missing_metrics_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"metrics_path": str(missing),
                                   "out_dir": str(tmp_path / "out")}))
        rc = main(["--config", str(cfg), "mine"])
        assert rc == EXIT_CONFIG_ERROR
        assert str(missing) in capsys.readouterr().err

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


class TestPipeline:
    def test_pipeline_equals_subcommand_composition(self, tmp_path):
        cfg_a, out_a = fixture_config(tmp_path / "a")
        assert main(["--config", str(cfg_a), "pipeline"]) == EXIT_OK
        for name in ARTIFACTS:
            assert (out_a / name).exists(), name

        cfg_b, out_b = fixture_config(tmp_path / "b")
        for step in ("mine", "label", "train", "classify", "associate",
                     "validate", "report"):
            assert main(["--config", str(cfg_b), step]) == EXIT_OK, step
        for name in ARTIFACTS:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_recorded_in_artifacts(self, tmp_path):
        cfg, out = fixture_config(tmp_path, seed=13)
        assert main(["--config", str(cfg), "mine"]) == EXIT_OK
        doc = json.loads((out / "patterns.json").read_text())
        assert doc["meta"]["seed"] == 13
        head = (out / "occurrences.jsonl").read_text().splitlines()[0]
        assert json.loads(head) == {"meta": {"seed": 13}}

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
            occ = occurrence_from_json_line(line)
            p = patterns[occ.pattern_id]
            window = series[(occ.repo_id, p.metric_name)].values[
                occ.start_index : occ.end_index + 1]
            assert znorm_distance(p.values, window) == pytest.approx(
                occ.distance, abs=1e-9)
