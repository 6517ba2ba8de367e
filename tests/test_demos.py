"""The demos run against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# generate_fixture_dataset.py is left out: it rewrites fixtures/
@pytest.mark.parametrize("name", ["mine_fixture_patterns.py",
                                  "validate_published_counts.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
