"""The capaminer command as a user runs it, each call in a fresh process
(conftest.run_capaminer): the same bytes from every run, at one BLAS thread
or more; and a numeric path, which in process would be the test's own
stderr, fails before any write."""

import json

import pytest

from conftest import ROOT, run_capaminer

CONFIG = "fixtures/config.json"  # its paths are relative to the repository root


def files(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("repo", [None, "org/repo3"], ids=["fixture", "one-repository"])
def test_runs_are_byte_identical(tmp_path, repo):
    config = CONFIG
    if repo:
        # the fixture cut to one repository, so every metric is a lone
        # series, scored against its own windows
        lines = (ROOT / "fixtures" / "metrics.csv").read_text().splitlines(keepends=True)
        metrics = tmp_path / "one.csv"
        metrics.write_text(lines[0] + "".join(line for line in lines[1:]
                                              if line.startswith(f"{repo},")))
        config = tmp_path / "one.json"
        config.write_text(json.dumps({**json.loads((ROOT / CONFIG).read_text()),
                                      "metrics_path": str(metrics)}))
    # artifacts must not depend on BLAS threading
    for name, env in (("run1", None), ("run2", None), ("run3", {"OPENBLAS_NUM_THREADS": "1"})):
        run_capaminer("--config", config, "--out", tmp_path / name, "pipeline", env=env)
    first = files(tmp_path / "run1")
    assert files(tmp_path / "run2") == first
    assert files(tmp_path / "run3") == first


@pytest.mark.parametrize("key", ["metrics_path", "prs_path", "keywords_path"])
def test_non_string_path_fails_before_any_write(tmp_path, key):
    # a numeric path would be opened as a file descriptor: 2 is stderr
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({key: 2}))
    out = tmp_path / "bad"
    out.mkdir()
    child = run_capaminer("--config", config, "--out", out, "pipeline", code=2)
    assert child.stderr.startswith(f"error: {key} ")
    assert list(out.iterdir()) == []
