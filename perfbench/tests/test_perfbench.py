"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import capaminer
import check
import gen
import run
import spans
from capaminer import cli, mining, tsdist

ROOT = gen.ROOT
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, where workload configs can
    name their inputs by repository-relative paths."""
    base = ROOT / "perfbench" / "_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def fixture_out(tmp_path_factory):
    """One pipeline run of the bundled fixture."""
    out = tmp_path_factory.mktemp("fixture-out")
    assert cli.main(["--config", str(ROOT / "fixtures/config.json"),
                     "--out", str(out), "pipeline"]) == 0
    return out


def fixture_problems(out):
    config = json.loads((ROOT / "fixtures/config.json").read_text())
    series = check.load_series(ROOT / config["metrics_path"])
    tau = cli.load_config(ROOT / "fixtures/config.json").mining_config().match_threshold
    return (check.check_artifacts(out, cli.ARTIFACTS, 320)
            + check.check_results(out, series, tau))


# --- generator ---------------------------------------------------------------

def test_generator_same_seed_same_bytes(work_dir):
    a = gen.write_workload("mine-multilen", 3, work_dir / "a")
    b = gen.write_workload("mine-multilen", 3, work_dir / "b")
    for name in ("metrics.csv", "prs.jsonl"):
        assert (work_dir / "a" / name).read_bytes() == (work_dir / "b" / name).read_bytes()
    assert a["sizes"] == b["sizes"] == {
        **a["sizes"], "repos": 16, "days_per_repo": 365, "prs": 1280}
    c = gen.write_workload("mine-multilen", 4, work_dir / "c")
    assert c["sha256"][c["config"]["prs_path"]] != a["sha256"][a["config"]["prs_path"]]


def test_fixture_workload_is_the_bundled_config(work_dir):
    desc = gen.write_workload("fixture", 9, work_dir)
    assert desc["config_path"] == "fixtures/config.json"
    assert desc["sizes"]["prs"] == 320
    assert not any(work_dir.iterdir())


# --- output check ------------------------------------------------------------

def test_check_passes_a_clean_run(fixture_out):
    assert fixture_problems(fixture_out) == []
    assert check.capa_macro_f1(fixture_out) > 0


def test_check_fails_a_tampered_occurrence_distance(fixture_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(fixture_out, out)
    path = out / "occurrences.jsonl"
    lines = path.read_text().splitlines()
    occ = json.loads(lines[1])
    occ["distance"] += 1e-3
    lines[1] = json.dumps(occ, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    problems = fixture_problems(out)
    assert len(problems) == 1 and "distance" in problems[0]
    assert (check.artifact_digest(out, cli.ARTIFACTS)
            != check.artifact_digest(fixture_out, cli.ARTIFACTS))


def test_check_uses_one_tau_for_every_length(fixture_out, work_dir, tmp_path):
    """The program derives its default tau from min_len and uses it at every
    length, so a length-10 occurrence between 0.5*sqrt(8) and 0.5*sqrt(10)
    is above tau."""
    desc = gen.write_workload("mine-multilen", 1, work_dir)
    cfg = cli.load_config(desc["config_path"])
    tau = cfg.mining_config().match_threshold
    assert (cfg.min_len, cfg.max_len) == (8, 10)
    assert tau == pytest.approx(0.5 * math.sqrt(8))
    rng = np.random.default_rng(0)
    pattern, noise = rng.random(10), rng.standard_normal(10)
    lo, hi = 0.0, 10.0  # noise scale: distance below 1.5 at lo, not at hi
    for _ in range(60):
        mid = (lo + hi) / 2
        if tsdist.znorm_distance(pattern, pattern + mid * noise) < 1.5:
            lo = mid
        else:
            hi = mid
    window = pattern + lo * noise
    d = tsdist.znorm_distance(pattern, window)
    assert tau < d <= 0.5 * math.sqrt(10)
    series = {("a", "x"): pattern, ("b", "x"): np.concatenate([rng.random(5), window])}
    out = tmp_path / "out"
    shutil.copytree(fixture_out, out)
    (out / "patterns.json").write_text(json.dumps({"patterns": [{
        "pattern_id": 0, "length": 10, "metric": "x",
        "source": {"repo": "a", "offset": 0}, "values": pattern.tolist(),
        "radius": check.consensus_radius(series, "x", "a", 0, 10)}]}))
    (out / "occurrences.jsonl").write_text(json.dumps({
        "pattern_id": 0, "repo": "b", "start_index": 5, "end_index": 14,
        "distance": d}) + "\n")
    assert check.check_results(out, series, tau) == [
        f"occurrence b@5 of pattern 0: distance {d} above tau"]
    assert check.check_results(out, series, 0.5 * math.sqrt(10)) == []


def test_check_fails_a_missing_artifact(fixture_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(fixture_out, out)
    (out / "mapping.json").unlink()
    assert check.check_artifacts(out, cli.ARTIFACTS, 320) == ["mapping.json: missing"]


def test_chi2_recomputation():
    counts = np.array([[10.0, 0, 5], [0, 0, 0], [3, 0, 9]])
    kept = counts[[0, 2]][:, [0, 2]]
    expected = kept.sum(axis=1)[:, None] * kept.sum(axis=0)[None, :] / kept.sum()
    assert check.chi2_statistic(counts) == pytest.approx(
        ((kept - expected) ** 2 / expected).sum())
    assert check.chi2_statistic(np.array([[1.0, 2.0]])) is None


# --- spans -------------------------------------------------------------------

def test_self_time_on_a_hand_built_tree():
    S = spans.Span
    tree = [
        S("a", 0.0, 10.0, -1),
        S("b", 1.0, 4.0, 0),
        S("c", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("b", 6.0, 7.0, 3),  # b inside b: not counted twice inclusively
    ]
    got = spans.summarize(tree)
    assert got["a"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert got["b"] == {"s": 7.0, "self_s": 6.0, "calls": 3}
    assert got["c"] == {"s": 1.0, "self_s": 1.0, "calls": 1}
    # self times of all spans add up to the root's duration
    assert sum(r["self_s"] for r in got.values()) == 10.0


def test_covered_merges_overlaps():
    assert spans.covered([(5, 6), (0, 2), (1, 3)]) == 4
    assert spans.covered([]) == 0


def test_tracer_rebinds_every_module_and_restores():
    original = mining.distance_profile
    tracer = spans.Tracer()
    with tracer.installed():
        assert mining.distance_profile is not original
        assert capaminer.count_matches is mining.count_matches
        series = mining.MetricSeries("r", "m", range(12), [float(v % 5) for v in range(12)])
        pattern = mining.ConsensusPattern(0, [0.0, 1.0, 2.0, 1.0], "m", "r", 0, 0.0)
        mining.count_matches(pattern, series, 10.0)
    assert mining.distance_profile is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "mining.count_matches"
    assert "tsdist.znormalized_windows" in names
    child = names.index("tsdist.distance_profile")
    assert tracer.spans[child].parent == 0


def test_traced_fixture_stage_times_add_up(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    cfg = cli.load_config("fixtures/config.json", {"out_dir": str(tmp_path)})
    tracer = spans.Tracer()
    with tracer.installed():
        cli.cmd_pipeline(cfg, tmp_path)
    roots = [i for i, s in enumerate(tracer.spans) if s.parent < 0]
    assert [tracer.spans[i].name for i in roots] == ["cli.cmd_pipeline"]
    stages = [s.name for s in tracer.spans if s.parent == roots[0]]
    assert stages == [f"cli.cmd_{s}" for s in run.STAGES]
    summary = spans.summarize(tracer.spans)
    total = summary["cli.cmd_pipeline"]["s"]
    assert sum(r["self_s"] for r in summary.values()) == pytest.approx(total, rel=1e-9)
    assert (sum(summary[name]["s"] for name in stages)
            + summary["cli.cmd_pipeline"]["self_s"]) == pytest.approx(total, rel=1e-9)
    layer = run.layer_metrics(summary, tracer.counts, tmp_path, cli.ARTIFACTS)
    assert layer["ingestion.load_prs_jsonl.calls"][0] == 3
    assert layer["stats.low_expected_cells"][0] == 8


def test_a_failed_run_counts_once_and_spares_the_next(work_dir):
    bench = run.Bench("fixture", 1, 1.0, work_dir)
    bad = bench.run_process("no/such/config.json")
    good = bench.run_process("fixtures/config.json")
    assert bad.problems and "exit code 2" in bad.problems[0]
    assert not good.problems and good.pipeline_s > 0 and good.rss_mib > 0


def test_tree_nodes_counts_nested_nodes():
    leaf = {"leaf": True, "counts": [1]}
    tree = {"leaf": False, "feature": 0, "threshold": 0.5, "left": leaf,
            "right": {"leaf": False, "feature": 1, "threshold": 1.0,
                      "left": leaf, "right": leaf}}
    assert spans.tree_nodes(tree) == 5


# --- contract ----------------------------------------------------------------

def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "fixture", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(NAME.fullmatch(n) for n in result["metrics"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
