"""Build the bundled fixture dataset under fixtures/.

Eight synthetic repositories, each with ~120 days of commit metrics.  A
sine-burst shape is planted in the lines_changed series of six repos (and a
triangular shape in lines_added of five), so mining recovers at least one
pattern per metric.  Pull requests carry the 27 tabled metrics with
class-dependent numeric offsets so the classifier has signal to learn, and
their texts hit the default keyword map.

Run from the repository root:  python demos/generate_fixture_dataset.py
Every file's text is built, by fixture_texts, before the first one is
written, so a failure leaves fixtures/ as it was.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, installed or not
from capaminer.timeutil import to_rfc3339 as rfc3339  # noqa: E402

GEN_SEED = 20240817
N_REPOS = 8
N_DAYS = 120
DAY = 86400
T0 = 1_600_000_000  # fixture epoch, 2020-09-13T12:26:40Z

FIXTURES = ROOT / "fixtures"

CAPA_TEXTS = {
    1: ["add eslint config", "enable pylint in ci", "tighten lint rule set"],
    2: ["raise branch coverage", "add tests for the parser", "hook up codecov"],
    3: ["rewrite readme quickstart", "expand api documentation", "fix docstring typos"],
    4: ["implement feature toggles", "add feature: bulk export", "new feature for search"],
    5: ["refactor session handling", "clean up import graph", "simplify retry logic"],
    6: ["fix build on windows", "deflake the flaky integration suite", "repair broken build"],
    7: ["remove unused helpers", "drop dead code paths", "delete unused settings"],
}
NON_CAPA_TEXTS = ["fix bug in pagination", "hotfix for crash on start",
                  "bump version to 2.3", "merge branch develop"]
UNLABELED_TEXTS = ["misc changes", "weekly sync", "update dependencies maybe"]


def planted_burst(length=8):
    return 40.0 * np.sin(np.linspace(0.0, np.pi, length))


def planted_triangle(length=8):
    half = length // 2
    up = np.linspace(0.0, 30.0, half, endpoint=False)
    return np.concatenate([up, np.linspace(30.0, 0.0, length - half)])


def make_metrics(rng):
    rows = []
    burst = planted_burst()
    tri = planted_triangle()
    for r in range(N_REPOS):
        repo = f"org/repo{r}"
        added = np.abs(rng.normal(20, 6, N_DAYS)).round(1)
        deleted = np.abs(rng.normal(12, 4, N_DAYS)).round(1)
        changed = np.abs(rng.normal(35, 8, N_DAYS)).round(1)
        if r < 6:  # lines_changed burst, two occurrences
            for start in (15 + 3 * r, 70 + 4 * r):
                changed[start : start + len(burst)] = (
                    burst + rng.normal(0, 1.0, len(burst))).round(1)
        if r < 5:  # lines_added triangle, two occurrences
            for start in (30 + 2 * r, 90 + 3 * r):
                added[start : start + len(tri)] = (
                    tri + rng.normal(0, 0.8, len(tri)) + 2.0).round(1)
        for d in range(N_DAYS):
            ts = T0 + d * DAY
            rows.append((repo, ts, added[d], deleted[d], changed[d]))
    return rows


def make_prs(rng):
    prs = []
    pr_no = 100
    for r in range(N_REPOS):
        repo = f"org/repo{r}"
        for _ in range(40):
            pr_no += 1
            roll = rng.random()
            if roll < 0.70:
                label = int(rng.integers(1, 8))
                text = CAPA_TEXTS[label][int(rng.integers(len(CAPA_TEXTS[label])))]
            elif roll < 0.90:
                label = 0  # non-CAPA
                text = NON_CAPA_TEXTS[int(rng.integers(len(NON_CAPA_TEXTS)))]
            else:
                label = -1  # unlabeled
                text = UNLABELED_TEXTS[int(rng.integers(len(UNLABELED_TEXTS)))]
            created = T0 + float(rng.integers(0, N_DAYS)) * DAY + 3600.0
            closed = created + float(rng.integers(1, 20)) * DAY
            # class-dependent offsets make the classes separable
            base = 40.0 * max(label, 0)
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
            if rng.random() < 0.3:  # milestone block present only sometimes
                obj["milestone_status"] = True
                obj["milestone_state"] = bool(rng.random() < 0.5)
                obj["milestone_creation_date"] = rfc3339(created - 5 * DAY)
                obj["milestone_closure_date"] = rfc3339(closed + 5 * DAY)
                obj["milestone_due_on_date"] = rfc3339(closed + 10 * DAY)
                obj["number_of_milestone_closed_issues"] = int(rng.poisson(2))
            prs.append(obj)
    return prs


def fixture_texts():
    """The text of each file under fixtures/, by file name."""
    rng = np.random.default_rng(GEN_SEED)
    rows = make_metrics(rng)
    prs = make_prs(rng)
    keywords = json.loads(
        (ROOT / "src" / "capaminer" / "data" / "default_keywords.json").read_text())
    config = {
        "metrics_path": "fixtures/metrics.csv",
        "prs_path": "fixtures/prs.jsonl",
        "keywords_path": "fixtures/keywords.json",
        "out_dir": "out",
        "seed": 7,
        "alpha": 0.15,
        "window_days": 30,
        "min_count": 3,
        "min_len": 8,
        "max_len": 8,
        "coverage_value": 0.5,
        "n_estimators": 50,
    }
    return {
        "metrics.csv": "repo_id,timestamp,lines_added,lines_deleted,lines_changed\n"
        + "".join(f"{repo},{rfc3339(ts)},{a},{d},{c}\n" for repo, ts, a, d, c in rows),
        "prs.jsonl": "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in prs),
        "keywords.json": json.dumps(keywords, indent=2) + "\n",
        "config.json": json.dumps(config, indent=2) + "\n",
    }


def main():
    texts = fixture_texts()
    FIXTURES.mkdir(exist_ok=True)
    for name, text in texts.items():
        (FIXTURES / name).write_text(text)
    print(f"wrote {', '.join(texts)} under {FIXTURES}")


if __name__ == "__main__":
    main()
