"""Seeded inputs for the benchmark workloads.

The synthetic workloads reuse the fixture demo's texts and planted shapes
(imported from demos/generate_fixture_dataset.py) at larger scales.  The
demo's own generators are not reused as-is: make_metrics hard-codes 8 repos,
120 days and plant positions inside those 120 days, and make_prs hard-codes
40 PRs per repo and a class offset of 40 per label, which separates the
classes so well that every F1 is exactly 1.0.  The generators here plant the
same shapes across the whole span and use a smaller class offset.

The same seed gives byte-identical files.  Usage:

    python3 perfbench/gen.py --workload forest-bulk --seed 1 --dest DIR
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEMO_PATH = ROOT / "demos" / "generate_fixture_dataset.py"
FIXTURE_CONFIG = "fixtures/config.json"
KEYWORDS_PATH = "fixtures/keywords.json"
DAY = 86400
T0 = 1_600_000_000

# Per-label shift of the PR count features.  12 gives stage-1 F1 near 0.93
# and stage-2 macro F1 near 0.84, close to the published classification
# rows that tests/test_acceptance.py reproduces.
CLASS_OFFSET = 12.0


@dataclass(frozen=True)
class Scale:
    n_repos: int
    n_days: int
    prs_per_repo: int
    min_len: int
    max_len: int
    n_estimators: int


WORKLOADS = {
    "fixture": None,  # the bundled fixtures/config.json, unchanged
    "mine-multilen": Scale(n_repos=16, n_days=365, prs_per_repo=80,
                           min_len=8, max_len=10, n_estimators=10),
    "forest-bulk": Scale(n_repos=8, n_days=365, prs_per_repo=240,
                         min_len=8, max_len=8, n_estimators=25),
}


def load_demo():
    """The fixture demo as a private module object (it is not a package)."""
    spec = importlib.util.spec_from_file_location("_fixture_demo", DEMO_PATH)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def rfc3339(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def _plant(series, shape, starts, rng, noise, lift=0.0):
    for s in starts:
        series[s : s + len(shape)] = (
            shape + rng.normal(0, noise, len(shape)) + lift).round(1)


def _plant_starts(rng, n_days, length, every):
    """One start per block of `every` days, at a seeded place in the block."""
    starts = []
    for block in range(0, n_days - length, every):
        hi = min(block + every, n_days) - length
        if hi > block:
            starts.append(int(rng.integers(block, hi)))
    return starts


def make_metrics(demo, rng, scale: Scale):
    """Rows (repo, ts, added, deleted, changed) with the demo's burst planted
    in lines_changed of 3/4 of the repos and its triangle in lines_added of
    5/8, about once every 60 days."""
    burst = demo.planted_burst()
    tri = demo.planted_triangle()
    rows = []
    n = scale.n_days
    for r in range(scale.n_repos):
        added = np.abs(rng.normal(20, 6, n)).round(1)
        deleted = np.abs(rng.normal(12, 4, n)).round(1)
        changed = np.abs(rng.normal(35, 8, n)).round(1)
        if r % 4 != 3:
            _plant(changed, burst, _plant_starts(rng, n, len(burst), 60), rng, 1.0)
        if r % 8 < 5:
            _plant(added, tri, _plant_starts(rng, n, len(tri), 60), rng, 0.8, 2.0)
        repo = f"org/repo{r}"
        for d in range(n):
            rows.append((repo, T0 + d * DAY, added[d], deleted[d], changed[d]))
    return rows


def make_prs(demo, rng, scale: Scale):
    """Pull requests with the demo's texts and field set, and count features
    shifted by CLASS_OFFSET per label."""
    prs = []
    pr_no = 100
    for r in range(scale.n_repos):
        repo = f"org/repo{r}"
        for _ in range(scale.prs_per_repo):
            pr_no += 1
            roll = rng.random()
            if roll < 0.70:
                label = int(rng.integers(1, 8))
                texts = demo.CAPA_TEXTS[label]
            elif roll < 0.90:
                label = 0  # non-CAPA
                texts = demo.NON_CAPA_TEXTS
            else:
                label = -1  # unlabeled
                texts = demo.UNLABELED_TEXTS
            text = texts[int(rng.integers(len(texts)))]
            created = T0 + float(rng.integers(0, scale.n_days)) * DAY + 3600.0
            closed = created + float(rng.integers(1, 20)) * DAY
            base = CLASS_OFFSET * max(label, 0)
            obj = {
                "repo_id": repo,
                "pr_id": str(pr_no),
                "text": text,
                "pull_request_number": pr_no,
                "creation_date": rfc3339(created),
                "closure_date": rfc3339(closed),
                "update_date": rfc3339(closed),
                "locked_state": False,
                "merged_state": bool(rng.random() < 0.8),
                "pull_request_state": False,
                "number_of_comments": int(rng.poisson(3) + base * 0.1),
                "number_of_commits": int(rng.poisson(2) + base * 0.05) + 1,
                "number_of_files": int(rng.poisson(4) + base * 0.08) + 1,
                "number_of_issue_comments": int(rng.poisson(2)),
                "number_of_issue_events": int(rng.poisson(3)),
                "number_of_labels": int(rng.poisson(1)),
                "number_of_review_comments": int(rng.poisson(2) + base * 0.04),
                "number_of_review_requests": int(rng.poisson(1)),
                "number_of_reviewers": int(rng.integers(0, 4)),
                "number_of_additions": int(abs(rng.normal(120 + 3 * base, 20))),
                "number_of_deletions": int(abs(rng.normal(60 + 2 * base, 15))),
                "number_of_participants": int(rng.integers(1, 6)),
                "number_of_file_changes": int(rng.poisson(4) + base * 0.08) + 1,
            }
            if obj["merged_state"]:
                obj["merged_date"] = rfc3339(closed)
            if rng.random() < 0.3:
                obj["milestone_status"] = True
                obj["milestone_state"] = bool(rng.random() < 0.5)
                obj["milestone_creation_date"] = rfc3339(created - 5 * DAY)
                obj["milestone_closure_date"] = rfc3339(closed + 5 * DAY)
                obj["milestone_due_on_date"] = rfc3339(closed + 10 * DAY)
                obj["number_of_milestone_closed_issues"] = int(rng.poisson(2))
            prs.append(obj)
    return prs


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_workload(name: str, seed: int, dest: Path) -> dict:
    """Write the workload's inputs and return its description: config path,
    config echo, input sizes and input SHA-256s.

    Paths in the config are relative to the repository root, which is the
    working directory the pipeline runs in.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    scale = WORKLOADS[name]
    if scale is None:
        config_path = ROOT / FIXTURE_CONFIG
        config = json.loads(config_path.read_text())
    else:
        dest.mkdir(parents=True, exist_ok=True)
        demo = load_demo()
        rng = np.random.default_rng([seed, scale.n_repos, scale.n_days])
        with open(dest / "metrics.csv", "w") as fh:
            fh.write("repo_id,timestamp,lines_added,lines_deleted,lines_changed\n")
            for repo, ts, a, d, c in make_metrics(demo, rng, scale):
                fh.write(f"{repo},{rfc3339(ts)},{a},{d},{c}\n")
        with open(dest / "prs.jsonl", "w") as fh:
            for obj in make_prs(demo, rng, scale):
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
        config = {
            "metrics_path": _rel(dest / "metrics.csv"),
            "prs_path": _rel(dest / "prs.jsonl"),
            "keywords_path": KEYWORDS_PATH,
            "seed": seed,
            "alpha": 0.15,
            "window_days": 30,
            "min_count": 3,
            "min_len": scale.min_len,
            "max_len": scale.max_len,
            "coverage_value": 0.5,
            "n_estimators": scale.n_estimators,
        }
        config_path = dest / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    inputs = {key: config[key] for key in ("metrics_path", "prs_path",
                                           "keywords_path")}
    return {
        "workload": name,
        "seed": seed,
        "config_path": _rel(config_path),
        "config": config,
        "sizes": input_sizes(ROOT / config["metrics_path"],
                             ROOT / config["prs_path"]),
        "sha256": {path: sha256_file(ROOT / path)
                   for path in [_rel(config_path), *inputs.values()]},
    }


def input_sizes(metrics_path: Path, prs_path: Path) -> dict:
    repos, days = set(), 0
    with open(metrics_path) as fh:
        n_metrics = len(next(fh).split(",")) - 2  # after repo_id, timestamp
        for line in fh:
            repos.add(line.split(",", 1)[0])
            days += 1
    with open(prs_path) as fh:
        n_prs = sum(1 for line in fh if line.strip())
    return {"repos": len(repos), "days_per_repo": days // max(len(repos), 1),
            "metrics": n_metrics, "prs": n_prs,
            "metric_bytes": metrics_path.stat().st_size,
            "pr_bytes": prs_path.stat().st_size}


def _rel(path: Path) -> str:
    return str(Path(path).resolve().relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True,
                        help="directory under the repository root")
    args = parser.parse_args(argv)
    print(json.dumps(write_workload(args.workload, args.seed,
                                    Path(args.dest).resolve()), indent=2))


if __name__ == "__main__":
    main()
