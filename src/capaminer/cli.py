"""Batch front-end: wires mining, labeling, training, classification, and
validation into subcommands that emit deterministic file artifacts.

Artifacts (fixed names, under the output directory): patterns.json,
occurrences.jsonl, golden.jsonl, model_stage1.json, model_stage2.json,
report_stage1.json, report_stage2.json, classified.jsonl, contingency.csv,
chi2.json, pairwise.json, mapping.json, report.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import association, classifier, ingestion, mining, timeutil
from .errors import CapaMinerError, ConfigError, EmptyTable
from .mining import MiningConfig, RepoCoverage

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CONFIG_ERROR = 2

ARTIFACTS = [
    "patterns.json", "occurrences.jsonl", "golden.jsonl",
    "model_stage1.json", "model_stage2.json",
    "report_stage1.json", "report_stage2.json", "classified.jsonl",
    "contingency.csv", "chi2.json", "pairwise.json", "mapping.json",
    "report.md",
]


@dataclass
class PipelineConfig:
    metrics_path: str = ""
    prs_path: str = ""
    keywords_path: str = ""
    out_dir: str = "out"
    seed: int = 0
    alpha: float = 0.15
    window_days: float = 30.0
    min_count: int = 5
    # mining
    metrics: tuple = ("lines_added", "lines_deleted", "lines_changed")
    min_len: int = 8
    max_len: int = 8
    match_threshold: float | None = None  # None: 25% of the 2*sqrt(m) maximum
    min_matches_per_series: int = 1
    max_matches_per_series: float = math.inf
    coverage_mode: str = "min"
    coverage_value: float = 0.5
    # classifier
    n_estimators: int = 100
    train_ratio: float = 0.8
    reference_instant: float | None = None  # None: min creation date

    def mining_config(self) -> MiningConfig:
        tau = self.match_threshold
        if tau is None:
            tau = 0.25 * 2.0 * math.sqrt(self.min_len)
        return MiningConfig(
            min_len=self.min_len,
            max_len=self.max_len,
            match_threshold=tau,
            min_matches_per_series=self.min_matches_per_series,
            max_matches_per_series=self.max_matches_per_series,
            repo_coverage=RepoCoverage(self.coverage_mode, self.coverage_value),
        )


def load_config(path=None, overrides=None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON in {path}: {exc}") from None
        known = set(PipelineConfig.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "metrics" in doc:
            doc["metrics"] = tuple(doc["metrics"])
        cfg = replace(cfg, **doc)
    if overrides:
        cfg = replace(cfg, **overrides)
    if not 0 < cfg.alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {cfg.alpha}")
    return cfg


def _require_file(path, what):
    if not path:
        raise ConfigError(f"no {what} path configured")
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    return path


def _meta(cfg):
    return {"seed": cfg.seed}


def _write_text(path: Path, text: str):
    """Write an artifact through a temp file in the same directory and
    os.replace, so a failure partway leaves the previous file intact under
    its final name."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, doc: dict, cfg):
    doc = {"meta": _meta(cfg), **doc}
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, lines, cfg):
    head = json.dumps({"meta": _meta(cfg)}, sort_keys=True)
    _write_text(path, "\n".join([head, *lines]) + "\n")


def _read_jsonl(path: Path):
    out = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if set(obj) == {"meta"}:
            continue
        out.append(obj)
    return out


class OutputLock:
    """Rejects concurrent runs against the same output directory."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output dir is locked by another run: {self.path}") from None
        os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def bundled_data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


# --- subcommand bodies -------------------------------------------------------

def cmd_mine(cfg: PipelineConfig, out: Path):
    _require_file(cfg.metrics_path, "metrics")
    series = ingestion.load_metrics_csv(cfg.metrics_path)
    mconf = cfg.mining_config()
    all_patterns = []
    for metric in cfg.metrics:
        subset = [s for s in series if s.metric_name == metric]
        if not subset:
            continue
        # ids continue across metrics so they stay globally unique
        all_patterns += mining.mine_patterns(subset, mconf,
                                             first_id=len(all_patterns))
    all_occurrences = [o for p in all_patterns for o in p.occurrences]
    _write_json(out / "patterns.json", mining.patterns_to_json(all_patterns), cfg)
    _write_jsonl(out / "occurrences.jsonl",
                 [mining.occurrence_to_json_line(o) for o in all_occurrences], cfg)
    log.info("mined %d patterns, %d occurrences", len(all_patterns),
             len(all_occurrences))


def _load_keywords(cfg):
    if cfg.keywords_path:
        with open(_require_file(cfg.keywords_path, "keyword map")) as fh:
            return classifier.load_keyword_map(json.load(fh))
    return classifier.DEFAULT_KEYWORDS, classifier.DEFAULT_NON_CAPA_KEYWORDS


def cmd_label(cfg: PipelineConfig, out: Path):
    _require_file(cfg.prs_path, "pull requests")
    prs = ingestion.load_prs_jsonl(cfg.prs_path)
    kmap, non_capa = _load_keywords(cfg)
    lines = []
    for pr in prs:
        labels = classifier.label_by_keywords(pr.text, kmap, non_capa)
        if labels is None:
            continue
        stage1, stage2 = labels
        lines.append(json.dumps({
            "pr_id": pr.pr_id,
            "repo_id": pr.repo_id,
            "stage1": stage1.name.lower(),
            "stage2": int(stage2) if stage2 is not None else None,
        }, sort_keys=True))
    _write_jsonl(out / "golden.jsonl", lines, cfg)
    log.info("labeled %d of %d pull requests", len(lines), len(prs))


def _reference_instant(cfg, prs):
    if cfg.reference_instant is not None:
        return cfg.reference_instant
    return min(pr.created_at for pr in prs)


def cmd_train(cfg: PipelineConfig, out: Path):
    _require_file(cfg.prs_path, "pull requests")
    prs = ingestion.load_prs_jsonl(cfg.prs_path)
    golden_path = out / "golden.jsonl"
    if not golden_path.exists():
        raise ConfigError(f"golden standard not found: {golden_path} (run label)")
    golden = {(g["repo_id"], g["pr_id"]): g for g in _read_jsonl(golden_path)}
    ref = _reference_instant(cfg, prs)
    X1, y1, X2, y2 = [], [], [], []
    for pr in prs:
        g = golden.get((pr.repo_id, pr.pr_id))
        if g is None:
            continue
        x = classifier.encode_features(pr, ref)
        stage1 = classifier.StageOneLabel[g["stage1"].upper()]
        X1.append(x)
        y1.append(int(stage1))
        if stage1 is classifier.StageOneLabel.CAPA:
            X2.append(x)
            y2.append(int(g["stage2"]))
    fconf = classifier.ForestConfig(n_estimators=cfg.n_estimators, seed=cfg.seed)
    for stage, (X, y) in enumerate([(X1, y1), (X2, y2)], start=1):
        X = np.array(X)
        y = np.array(y)
        tr, te = classifier.split_train_test(X, y, cfg.train_ratio, cfg.seed)
        forest = classifier.train_forest(X[tr], y[tr], fconf)
        pred = forest.predict_many(X[te])
        rows = classifier.compute_report(y[te].tolist(), pred,
                                         sorted(set(y.tolist())))
        _write_json(out / f"model_stage{stage}.json", forest.to_json(), cfg)
        _write_json(out / f"report_stage{stage}.json",
                    classifier.report_to_json(rows), cfg)
    log.info("trained stage-1 on %d rows, stage-2 on %d rows", len(X1), len(X2))


def cmd_classify(cfg: PipelineConfig, out: Path):
    _require_file(cfg.prs_path, "pull requests")
    prs = ingestion.load_prs_jsonl(cfg.prs_path)
    models = []
    for stage in (1, 2):
        path = out / f"model_stage{stage}.json"
        if not path.exists():
            raise ConfigError(f"model not found: {path} (run train)")
        models.append(classifier.RandomForest.from_json(
            json.loads(path.read_text())))
    ref = _reference_instant(cfg, prs)
    lines = []
    for pr in prs:
        x = classifier.encode_features(pr, ref)
        result = classifier.classify_two_stage(models[0], models[1], x)
        if result is classifier.StageOneLabel.NON_CAPA:
            label = None
        else:
            label = int(result)
        lines.append(json.dumps({
            "pr_id": pr.pr_id,
            "repo_id": pr.repo_id,
            "creation_date": timeutil.to_rfc3339(pr.created_at),
            "capa_class": label,
        }, sort_keys=True))
    _write_jsonl(out / "classified.jsonl", lines, cfg)
    log.info("classified %d pull requests", len(prs))


def _load_joins(cfg, out: Path):
    occ_path = out / "occurrences.jsonl"
    cls_path = out / "classified.jsonl"
    for p, hint in [(occ_path, "mine"), (cls_path, "classify")]:
        if not p.exists():
            raise ConfigError(f"artifact not found: {p} (run {hint})")
    occurrences = [mining.occurrence_from_json_line(json.dumps(o))
                   for o in _read_jsonl(occ_path)]
    classified = []
    for obj in _read_jsonl(cls_path):
        if obj["capa_class"] is None:
            continue
        classified.append((
            obj["pr_id"], obj["repo_id"],
            timeutil.from_rfc3339(obj["creation_date"]),
            association.capa_id_from_class(obj["capa_class"]),
        ))
    return association.temporal_join(
        occurrences, classified, cfg.window_days * 86400)


def cmd_associate(cfg: PipelineConfig, out: Path):
    joins = _load_joins(cfg, out)
    table = association.build_contingency(joins)
    text = f"# seed={cfg.seed}\n" + association.contingency_to_csv(table)
    _write_text(out / "contingency.csv", text)
    log.info("joined %d pull requests across %d pattern types",
             len(joins), len(table.row_labels))


def cmd_validate(cfg: PipelineConfig, out: Path, contingency_path=None,
                 pairwise_path=None):
    """Chi-squared on the contingency table, pairwise tests, and mapping.

    Falls back to precomputed pairwise rows (pairwise_path) when join
    artifacts are absent, e.g. when validating a standalone table.
    """
    cpath = Path(contingency_path) if contingency_path else out / "contingency.csv"
    if not cpath.exists():
        raise ConfigError(f"contingency table not found: {cpath}")
    table = association.contingency_from_csv(cpath.read_text())
    try:
        chi2 = association.chi2_on_table(table)
        chi2_doc = {
            "statistic": chi2.statistic,
            "dof": chi2.dof,
            "p_value": chi2.p_value,
            "dropped_rows": list(chi2.dropped_rows),
            "dropped_cols": list(chi2.dropped_cols),
            "low_expected_cells": chi2.low_expected_cells,
        }
    except EmptyTable as exc:
        chi2_doc = {"statistic": None, "dof": None, "p_value": None,
                    "note": str(exc)}
    _write_json(out / "chi2.json", chi2_doc, cfg)
    qualifying = association.filter_relevant(table, cfg.min_count)
    if pairwise_path:
        results = association.pairwise_from_json(
            json.loads(Path(pairwise_path).read_text()))
    else:
        joins = _load_joins(cfg, out)
        samples = association.occurrence_fraction_samples(joins)
        testable = {
            pt: {c for c in caps if len(samples.get((pt, c), [])) >= 2}
            for pt, caps in qualifying.items()
        }
        results = association.pairwise_tests(joins, testable)
    _write_json(out / "pairwise.json", association.pairwise_to_json(results), cfg)
    mapping = association.extract_mapping(results, cfg.alpha)
    _write_json(out / "mapping.json", association.mapping_to_json(mapping), cfg)
    log.info("chi2 p=%s; %d pairwise tests; %d mapping tuples",
             chi2_doc["p_value"], len(results), len(mapping.tuples))


def cmd_pipeline(cfg: PipelineConfig, out: Path):
    cmd_mine(cfg, out)
    cmd_label(cfg, out)
    cmd_train(cfg, out)
    cmd_classify(cfg, out)
    cmd_associate(cfg, out)
    cmd_validate(cfg, out)
    cmd_report(cfg, out)


def cmd_report(cfg: PipelineConfig, out: Path):
    """Assemble a human-readable summary from whatever artifacts exist."""
    lines = ["<!-- seed=%d -->" % cfg.seed, "# Pipeline report", ""]
    gaps = []

    cpath = out / "contingency.csv"
    if cpath.exists():
        lines += ["## Actions near patterns", "", "```"]
        lines += [ln for ln in cpath.read_text().splitlines()
                  if not ln.startswith("#")]
        lines += ["```", ""]
    else:
        gaps.append("contingency.csv")

    for stage in (1, 2):
        rpath = out / f"report_stage{stage}.json"
        if rpath.exists():
            doc = json.loads(rpath.read_text())
            lines += [f"## Classification report, stage {stage}", "",
                      "| label | TP | TN | FP | FN | PRE | REC | F1 |",
                      "|---|---|---|---|---|---|---|---|"]
            for r in doc["rows"]:
                lines.append(
                    "| {label} | {tp} | {tn} | {fp} | {fn} | "
                    "{precision:.2f} | {recall:.2f} | {f1:.2f} |".format(**r))
            lines.append("")
        else:
            gaps.append(rpath.name)

    chpath = out / "chi2.json"
    if chpath.exists():
        doc = json.loads(chpath.read_text())
        lines += ["## Independence test", ""]
        if doc.get("statistic") is None:
            lines += [f"not computed: {doc.get('note', 'degenerate table')}", ""]
        else:
            lines += [f"Chi-squared statistic {doc['statistic']:.4f}, "
                      f"dof {doc['dof']}, p-value {doc['p_value']:.4g}", ""]
    else:
        gaps.append("chi2.json")

    mpath = out / "mapping.json"
    if mpath.exists():
        doc = json.loads(mpath.read_text())
        lines += ["## Recommended actions (alpha = %g)" % doc["alpha"], ""]
        if doc["tuples"]:
            lines += [f"- Pattern {t['pattern']} -> CAPA {t['capa']}"
                      for t in doc["tuples"]]
        else:
            lines.append("- none")
        lines.append("")
    else:
        gaps.append("mapping.json")

    if gaps:
        lines += ["## Missing artifacts", ""]
        lines += [f"- {g}" for g in gaps]
        lines.append("")
    _write_text(out / "report.md", "\n".join(lines))


# --- argument parsing --------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="capaminer",
        description="Mine metric patterns, classify pull requests, and "
                    "validate pattern-action associations.")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--alpha", type=float, metavar="F")
    parser.add_argument("--window-days", type=float, metavar="N")
    parser.add_argument("--min-count", type=int, metavar="N")
    sub = parser.add_subparsers(dest="command")
    for name in ("mine", "label", "train", "classify", "associate",
                 "pipeline", "report"):
        sub.add_parser(name)
    validate = sub.add_parser("validate")
    validate.add_argument("--contingency", metavar="PATH",
                          help="validate a standalone contingency table")
    validate.add_argument("--pairwise", metavar="PATH",
                          help="precomputed pairwise test rows (JSON)")
    return parser


COMMANDS = {
    "mine": cmd_mine,
    "label": cmd_label,
    "train": cmd_train,
    "classify": cmd_classify,
    "associate": cmd_associate,
    "pipeline": cmd_pipeline,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG_ERROR
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.window_days is not None:
        overrides["window_days"] = args.window_days
    if args.min_count is not None:
        overrides["min_count"] = args.min_count
    try:
        cfg = load_config(args.config, overrides)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with OutputLock(out):
            if args.command == "validate":
                cmd_validate(cfg, out, args.contingency, args.pairwise)
            else:
                COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (CapaMinerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
