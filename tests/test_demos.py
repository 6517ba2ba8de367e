"""The demos run against the current API."""

import json
import re
import runpy
from pathlib import Path

import pytest

from capaminer.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


# generate_fixture_dataset.py is left out: it rewrites fixtures/
@pytest.mark.parametrize("name", ["mine_fixture_patterns.py",
                                  "validate_published_counts.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


def test_fixture_matches_its_generator():
    texts = runpy.run_path(str(DEMOS / "generate_fixture_dataset.py"))["fixture_texts"]()
    assert sorted(texts) == sorted(path.name for path in (ROOT / "fixtures").iterdir())
    for name, text in texts.items():
        assert (ROOT / "fixtures" / name).read_bytes() == text.encode(), name


def test_mining_demo_numbers_patterns_as_mine_does(tmp_path, capsys):
    runpy.run_path(str(DEMOS / "mine_fixture_patterns.py"), run_name="__main__")
    printed = re.findall(r"pattern (\d+) from (\S+) offset (\d+),",
                         capsys.readouterr().out)
    cfg = json.loads((ROOT / "fixtures" / "config.json").read_text())
    cfg.update(metrics_path=str(ROOT / "fixtures" / "metrics.csv"),
               out_dir=str(tmp_path / "out"))
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "config.json"), "mine"]) == EXIT_OK
    mined = json.loads((tmp_path / "out" / "patterns.json").read_text())["patterns"]
    assert printed == [(str(p["pattern_id"]), p["source"]["repo"],
                        str(p["source"]["offset"])) for p in mined]
