"""Checks on one pipeline run's output directory.

check_artifacts is cheap and runs on every run: all artifacts exist and
parse, and classified.jsonl has one line per input PR.  check_results
recomputes the numbers: every pattern radius and occurrence distance with
tsdist.znorm_distance on the raw windows, and the chi-squared statistic
with plain numpy from contingency.csv.  Runs of one workload must have
identical artifact digests, so check_results runs once per distinct digest.
Each returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from datetime import datetime
from pathlib import Path

import numpy as np

from capaminer import tsdist
from capaminer.errors import ZeroVariance

TOL = 1e-6


def artifact_digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = out / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _jsonl(path: Path) -> list:
    rows = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    return [r for r in rows if set(r) != {"meta"}]


def check_artifacts(out: Path, names, n_prs: int) -> list:
    problems = []
    for name in names:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        try:
            if name.endswith(".jsonl"):
                _jsonl(path)
            elif name.endswith(".json"):
                json.loads(path.read_text())
            elif name.endswith(".csv"):
                read_contingency(path)
            elif "# Pipeline report" not in path.read_text():
                problems.append(f"{name}: no report heading")
        except (ValueError, IndexError) as exc:
            problems.append(f"{name}: does not parse: {exc}")
    cls = out / "classified.jsonl"
    if cls.is_file() and not problems:
        n = len(_jsonl(cls))
        if n != n_prs:
            problems.append(f"classified.jsonl: {n} lines for {n_prs} PRs")
    return problems


def read_contingency(path: Path) -> np.ndarray:
    """Count matrix of contingency.csv without its Total row and column."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    body = [r for r in rows[1:] if r[0] != "Total"]
    counts = np.array([[int(c) for c in r[1:-1]] for r in body], dtype=float)
    return counts.reshape(len(body), len(rows[0]) - 2)


def chi2_statistic(counts: np.ndarray):
    """Pearson statistic after dropping all-zero rows and columns, or None
    when fewer than a 2x2 table remains."""
    obs = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    if obs.shape[0] < 2 or obs.shape[1] < 2:
        return None
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
    return float(((obs - expected) ** 2 / expected).sum())


def load_series(metrics_csv: Path) -> dict:
    """{(repo, metric): values in timestamp order} from the metrics CSV."""
    per_repo = {}
    with open(metrics_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        metrics = [c for c in reader.fieldnames if c not in ("repo_id", "timestamp")]
        for row in reader:
            ts = datetime.fromisoformat(row["timestamp"].replace("Z", "+00:00"))
            per_repo.setdefault(row["repo_id"], []).append(
                (ts.timestamp(), [float(row[m]) for m in metrics]))
    series = {}
    for repo, rows in per_repo.items():
        rows.sort(key=lambda r: r[0])
        for i, metric in enumerate(metrics):
            series[(repo, metric)] = np.array([r[1][i] for r in rows])
    return series


def _min_distance(q, values):
    """Smallest znorm_distance from q to a non-constant window of values."""
    m = len(q)
    best = math.inf
    for off in range(len(values) - m + 1):
        try:
            best = min(best, tsdist.znorm_distance(q, values[off : off + m]))
        except ZeroVariance:
            pass
    return best


def consensus_radius(series: dict, metric: str, repo: str, offset: int, m: int):
    """Radius of the window (repo, offset, m) among the metric's series: the
    max over the other series of the min distance to any of their windows.
    Every workload has more than one repository, so the program's
    single-series scoring is not recomputed."""
    src = series[(repo, metric)][offset : offset + m]
    return max(_min_distance(src, v) for (r, mt), v in series.items()
               if mt == metric and r != repo and len(v) >= m)


def check_results(out: Path, series: dict, tau: float) -> list:
    """tau is the program's match threshold for the run, one value for
    every pattern length."""
    problems = []
    patterns = {p["pattern_id"]: p
                for p in json.loads((out / "patterns.json").read_text())["patterns"]}
    for pid, p in sorted(patterns.items()):
        m, src = p["length"], p["source"]
        window = series[(src["repo"], p["metric"])][src["offset"] : src["offset"] + m]
        if not np.array_equal(window, np.array(p["values"])):
            problems.append(f"pattern {pid}: values differ from the source window")
            continue
        radius = consensus_radius(series, p["metric"], src["repo"], src["offset"], m)
        if not abs(radius - p["radius"]) <= TOL:
            problems.append(f"pattern {pid}: radius {p['radius']} != {radius}")
    for occ in _jsonl(out / "occurrences.jsonl"):
        p = patterns.get(occ["pattern_id"])
        if p is None:
            problems.append(f"occurrence of unknown pattern {occ['pattern_id']}")
            continue
        m = p["length"]
        tag = f"occurrence {occ['repo']}@{occ['start_index']} of pattern {p['pattern_id']}"
        if occ["end_index"] - occ["start_index"] + 1 != m:
            problems.append(f"{tag}: span does not match length {m}")
            continue
        values = series[(occ["repo"], p["metric"])]
        d = tsdist.znorm_distance(p["values"],
                                  values[occ["start_index"] : occ["end_index"] + 1])
        if not abs(d - occ["distance"]) <= TOL:
            problems.append(f"{tag}: distance {occ['distance']} != {d}")
        if not occ["distance"] <= tau:
            problems.append(f"{tag}: distance {occ['distance']} above tau")
    chi2 = json.loads((out / "chi2.json").read_text())
    expected = chi2_statistic(read_contingency(out / "contingency.csv"))
    got = chi2.get("statistic")
    if (got is None) != (expected is None) or (
            expected is not None and not math.isclose(got, expected, rel_tol=1e-9)):
        problems.append(f"chi2.json: statistic {got} != {expected}")
    return problems


def capa_macro_f1(out: Path) -> float:
    rows = json.loads((out / "report_stage2.json").read_text())["rows"]
    return sum(r["f1"] for r in rows) / len(rows)
