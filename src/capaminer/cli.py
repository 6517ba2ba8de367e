"""Batch front-end: wires mining, labeling, training, classification, and
validation into subcommands that emit deterministic file artifacts, the
fixed names of ARTIFACTS under the output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import association, classifier, ingestion, mining, stats, timeutil
from .errors import (INDEX, INTEGER, NON_NEGATIVE, NUMBER, PROBABILITY, TEXT,
                     CapaMinerError, ConfigError, EmptyDataset, EmptyTable,
                     MalformedInput, at_least, need, need_rows, or_null)
from .mining import MINING_CONFIG_FIELDS, MiningConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CONFIG_ERROR = 2

# {name: (what it is, the stage that writes it)}, in the order of the stages
ARTIFACTS = {
    "patterns.json": ("patterns", "mine"),
    "occurrences.jsonl": ("occurrences", "mine"),
    "golden.jsonl": ("golden standard", "label"),
    "model_stage1.json": ("model", "train"),
    "model_stage2.json": ("model", "train"),
    "report_stage1.json": ("class report", "train"),
    "report_stage2.json": ("class report", "train"),
    "classified.jsonl": ("classified pull requests", "classify"),
    "contingency.csv": ("contingency table", "associate"),
    "chi2.json": ("chi-squared result", "validate"),
    "pairwise.json": ("pairwise tests", "validate"),
    "mapping.json": ("mapping", "validate"),
    "report.md": ("report", "report"),
}


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
    match_threshold: float | None = None  # None: default_match_threshold(min_len)
    coverage_value: float = 0.5  # fraction of the repositories, in (0, 1]
    # classifier
    n_estimators: int = 100
    train_ratio: float = 0.8
    reference_instant: float | None = None  # None: min creation date

    def __post_init__(self):
        need(vars(self), VALUE_CHECKS)
        self.mining_config()  # checks max_len >= min_len

    def mining_config(self) -> MiningConfig:
        tau = self.match_threshold
        if tau is None:
            tau = mining.default_match_threshold(self.min_len)
        return MiningConfig(self.min_len, self.max_len, tau,
                            min_repo_fraction=self.coverage_value)


# {field: (test, requirement)} of a PipelineConfig, one per field; the
# mining and forest fields take the rules of MiningConfig and ForestConfig
VALUE_CHECKS = {
    **dict.fromkeys(("metrics_path", "prs_path", "keywords_path", "out_dir"), TEXT),
    "seed": classifier.FOREST_CONFIG_FIELDS["seed"],
    "alpha": PROBABILITY,
    "window_days": NON_NEGATIVE,
    "min_count": at_least(1),
    "metrics": (lambda v: isinstance(v, (list, tuple)) and 0 < len(set(v)) == len(v)
                and set(v) <= set(ingestion.METRIC_COLUMNS),
                f"a non-empty list of distinct names from {ingestion.METRIC_COLUMNS}"),
    "min_len": MINING_CONFIG_FIELDS["min_len"],
    "max_len": MINING_CONFIG_FIELDS["max_len"],
    "match_threshold": or_null(MINING_CONFIG_FIELDS["match_threshold"]),
    "coverage_value": MINING_CONFIG_FIELDS["min_repo_fraction"],
    "n_estimators": classifier.FOREST_CONFIG_FIELDS["n_estimators"],
    "train_ratio": PROBABILITY,
    "reference_instant": or_null(NUMBER),
}


def load_config(path=None, overrides=None) -> PipelineConfig:
    """The config at path, if any, with overrides; a bad one is a ConfigError."""
    doc = {} if path is None else _parse(
        Path(path), "config", lambda text: need(json.loads(text), {}), ConfigError)
    unknown = set(doc) - set(PipelineConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return PipelineConfig(**{**doc, **(overrides or {})})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_file(path, what):
    if not path:
        raise ConfigError(f"no {what} path configured")
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    return path


def _parse(path: Path, what, parse, error):
    """parse(text) of the file at path; a file that parse cannot read
    raises error, which names what and the path."""
    try:
        return parse(path.read_text())
    # invalid JSON is a ValueError, JSON nested too deep a RecursionError
    except (OSError, IndexError, TypeError, ValueError, RecursionError) as exc:
        raise error(f"invalid {what} {path}: {exc}") from None


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


def _write_json(path: Path, doc: dict, cfg, compact=False):
    doc = {"meta": {"seed": cfg.seed}, **doc}
    # indent makes json fall back to its pure-Python encoder, which takes
    # ten times as long on a model of nested trees
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    _write_text(path, json.dumps(doc, sort_keys=True, **layout) + "\n")


def _write_jsonl(path: Path, lines, cfg):
    head = json.dumps({"meta": {"seed": cfg.seed}}, sort_keys=True)
    _write_text(path, "\n".join([head, *lines]) + "\n")


# {key: (test, requirement)} of the artifact fields that later stages read
_DATE = (lambda v: timeutil.from_rfc3339(v) is not None, "an RFC 3339 date")
_CAPA = (lambda v: type(v) is int and v in range(1, 8), "a CAPA class in 1..7")
GOLDEN_FIELDS = {"repo_id": TEXT, "pr_id": TEXT,
                 "stage1": (lambda v: v in ("capa", "non_capa"), "capa or non_capa")}
OCCURRENCE_FIELDS = {"pattern_id": INDEX, "repo": TEXT, "start_index": INDEX,
                     "end_index": INDEX, "start_time": _DATE, "end_time": _DATE,
                     "distance": NUMBER}
CLASSIFIED_FIELDS = {
    "pr_id": TEXT, "repo_id": TEXT, "creation_date": _DATE,
    "capa_class": or_null(_CAPA)}
CLASS_REPORT_ROW_FIELDS = {
    "label": INTEGER,
    **{count: INDEX for count in ("tp", "tn", "fp", "fn")},
    **{score: NUMBER for score in ("precision", "recall", "f1")}}
CHI2_FIELDS = {"statistic": NUMBER, "dof": INDEX, "p_value": NUMBER,
               "low_expected_cells": INDEX}
MAPPING_TUPLE_FIELDS = {
    "pattern": INDEX,
    "capa": (lambda v: type(v) is int and v in range(association.N_CAPAS),
             f"an action id in 0..{association.N_CAPAS - 1}")}


def _golden_row(g):
    need(g, GOLDEN_FIELDS)
    return need(g, {"stage2": _CAPA}) if g["stage1"] == "capa" else g


def _chi2(doc):
    """A chi-squared document: a test result, or the note why there is none."""
    untested = isinstance(doc, dict) and doc.get("statistic") is None
    return need(doc, {"note": TEXT} if untested else CHI2_FIELDS)


def _read_jsonl(text, parse_row):
    """parse_row of each object after the meta line of a JSONL artifact; a
    line that is not an object or that parse_row rejects is a ValueError."""
    rows = []
    for n, line in enumerate(text.splitlines(), start=1):
        try:
            row = need(json.loads(line), {})
            if set(row) != {"meta"}:
                rows.append(parse_row(row))
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    return rows


class OutputLock:
    """Rejects concurrent runs against the same output directory.  The lock
    file holds the owner's pid, so a lock left by a crashed run is reported
    as stale."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                pid = self.path.read_text().strip()
            except OSError:  # released meanwhile
                pid = ""
            if pid.isdigit() and not _pid_running(int(pid)):
                raise ConfigError(f"stale lock of pid {pid}, which is not "
                                  f"running: remove {self.path}") from None
            raise ConfigError(
                f"output dir is locked by another run: {self.path}") from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)


def _pid_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0 only checks that the pid exists
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by another user
        pass
    return True


def bundled_data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def _forest(doc, labels):
    """The forest of a model document, whose classes must be labels values."""
    forest = classifier.RandomForest.from_json(doc, len(classifier.FEATURE_ORDER))
    if not set(forest.classes) <= set(labels):
        raise ValueError(f"classes {forest.classes} are not all "
                         f"{labels.__name__} values")
    return forest


# --- subcommand bodies -------------------------------------------------------

class Run:
    """One invocation's inputs and stage results, built on first use.

    A stage that produces a value stores it here as well as writing its
    artifact; a value this process has not produced is loaded from its input
    file or artifact.  So `pipeline` parses each input once and reads no
    artifact back, while a single subcommand reads the files it needs.
    golden, classified, reports, chi2 and mapping are the dicts written to
    disk, so the join parses creation_date from the same RFC 3339 text, and
    the report renders the same values, either way.
    """

    def __init__(self, cfg: PipelineConfig, out: Path):
        self.cfg = cfg
        self.out = out

    @cached_property
    def prs(self):
        prs = ingestion.load_prs_jsonl(_require_file(self.cfg.prs_path, "pull requests"))
        if not prs:
            raise EmptyDataset(f"no pull requests in {self.cfg.prs_path}")
        return prs

    @cached_property
    def keywords(self):
        """(keyword map, non-CAPA phrases) of keywords_path, or the bundled ones."""
        path = self.cfg.keywords_path
        if not path:
            return classifier.DEFAULT_KEYWORDS, classifier.DEFAULT_NON_CAPA_KEYWORDS
        return _parse(Path(_require_file(path, "keyword map")), "keyword map",
                      lambda text: classifier.load_keyword_map(json.loads(text)),
                      ConfigError)

    @cached_property
    def features(self):
        """One feature row per PR, all relative to one reference instant."""
        ref = self.cfg.reference_instant
        if ref is None:
            ref = min(pr.creation_date for pr in self.prs)
        return np.array([classifier.encode_features(pr, ref) for pr in self.prs])

    def load(self, name, parse):
        """parse(text) of the artifact name, checked for every field that its
        consumer reads; a missing artifact, or one that parse rejects, is a
        ConfigError naming it and, when missing, the stage that writes it."""
        what, stage = ARTIFACTS[name]
        path = self.out / name
        if not path.exists():
            raise ConfigError(f"{what} not found: {path} (run {stage})")
        return _parse(path, what, parse, ConfigError)

    @cached_property
    def golden(self):
        return self.load("golden.jsonl", lambda text: _read_jsonl(text, _golden_row))

    @cached_property
    def models(self):
        return [self.load(f"model_stage{stage}.json",
                          lambda text: _forest(json.loads(text), labels))
                for stage, labels in ((1, classifier.StageOneLabel),
                                      (2, classifier.CapaLabel))]

    @cached_property
    def occurrences(self):
        return self.load("occurrences.jsonl", lambda text: _read_jsonl(
            text, lambda o: mining.occurrence_from_json(need(o, OCCURRENCE_FIELDS))))

    @cached_property
    def classified(self):
        return self.load("classified.jsonl", lambda text: _read_jsonl(
            text, lambda c: need(c, CLASSIFIED_FIELDS)))

    @cached_property
    def reports(self):
        """The class-report documents of stages 1 and 2."""
        return [self.load(f"report_stage{stage}.json", lambda text: need_rows(
            json.loads(text), "rows", CLASS_REPORT_ROW_FIELDS)) for stage in (1, 2)]

    @cached_property
    def table(self):
        return self.load("contingency.csv", association.contingency_from_csv)

    @cached_property
    def chi2(self):
        return self.load("chi2.json", lambda text: _chi2(json.loads(text)))

    @cached_property
    def mapping(self):
        return self.load("mapping.json", lambda text: need_rows(need(
            json.loads(text), {"alpha": NUMBER}), "tuples", MAPPING_TUPLE_FIELDS))

    @cached_property
    def joins(self):
        return association.temporal_join(self.occurrences, [
            (c["pr_id"], c["repo_id"], timeutil.from_rfc3339(c["creation_date"]),
             association.capa_id_from_class(c["capa_class"]))
            for c in self.classified if c["capa_class"] is not None],
            self.cfg.window_days * 86400)


def cmd_mine(run: Run):
    cfg = run.cfg
    path = _require_file(cfg.metrics_path, "metrics")
    loaded = ingestion.load_metrics_csv(path)
    if not loaded:
        raise EmptyDataset(f"no metric series in {path}")
    # mine_patterns numbers the patterns in the order of their metrics
    series = [s for metric in cfg.metrics for s in loaded if s.metric_name == metric]
    patterns = mining.mine_patterns(series, cfg.mining_config())
    run.occurrences = [o for p in patterns for o in p.occurrences]
    _write_json(run.out / "patterns.json", mining.patterns_to_json(patterns), cfg)
    _write_jsonl(run.out / "occurrences.jsonl",
                 [mining.occurrence_to_json_line(o) for o in run.occurrences], cfg)
    log.info("mined %d patterns, %d occurrences", len(patterns),
             len(run.occurrences))


def cmd_label(run: Run):
    prs = run.prs
    kmap, non_capa = run.keywords
    golden = []
    for pr in prs:
        labels = classifier.label_by_keywords(pr.text, kmap, non_capa)
        if labels is None:
            continue
        stage1, stage2 = labels
        golden.append({
            "pr_id": pr.pr_id,
            "repo_id": pr.repo_id,
            "stage1": stage1.name.lower(),
            "stage2": int(stage2) if stage2 is not None else None,
        })
    run.golden = golden
    _write_jsonl(run.out / "golden.jsonl",
                 [json.dumps(g, sort_keys=True) for g in golden], run.cfg)
    log.info("labeled %d of %d pull requests", len(golden), len(prs))


def cmd_train(run: Run):
    cfg, prs = run.cfg, run.prs
    golden = {(g["repo_id"], g["pr_id"]): g for g in run.golden}
    X1, y1, X2, y2 = [], [], [], []
    for pr, x in zip(prs, run.features):
        g = golden.get((pr.repo_id, pr.pr_id))
        if g is None:
            continue
        stage1 = classifier.StageOneLabel[g["stage1"].upper()]
        X1.append(x)
        y1.append(int(stage1))
        if stage1 is classifier.StageOneLabel.CAPA:
            X2.append(x)
            y2.append(int(g["stage2"]))
    fconf = classifier.ForestConfig(n_estimators=cfg.n_estimators, seed=cfg.seed)
    models, reports = [], []
    for stage, (X, y) in enumerate([(X1, y1), (X2, y2)], start=1):
        X = np.array(X)
        y = np.array(y)
        tr, te = classifier.split_train_test(X, y, cfg.train_ratio, cfg.seed)
        forest = classifier.train_forest(X[tr], y[tr], fconf)
        models.append(forest)
        pred, _ = forest.predict(X[te])
        reports.append(classifier.report_to_json(classifier.compute_report(
            y[te].tolist(), pred.tolist(), sorted(set(y.tolist())))))
        _write_json(run.out / f"model_stage{stage}.json", forest.to_json(), cfg,
                    compact=True)
        _write_json(run.out / f"report_stage{stage}.json", reports[-1], cfg)
    run.models, run.reports = models, reports
    log.info("trained stage-1 on %d rows, stage-2 on %d rows", len(X1), len(X2))


def cmd_classify(run: Run):
    prs, (stage1, stage2) = run.prs, run.models
    classified = []
    results = classifier.classify_two_stage(stage1, stage2, run.features)
    for pr, result in zip(prs, results):
        classified.append({
            "pr_id": pr.pr_id,
            "repo_id": pr.repo_id,
            "creation_date": timeutil.to_rfc3339(pr.creation_date),
            "capa_class": (None if result is classifier.StageOneLabel.NON_CAPA
                           else int(result)),
        })
    run.classified = classified
    _write_jsonl(run.out / "classified.jsonl",
                 [json.dumps(c, sort_keys=True) for c in classified], run.cfg)
    log.info("classified %d pull requests", len(prs))


def cmd_associate(run: Run):
    run.table = association.build_contingency(run.joins)
    text = f"# seed={run.cfg.seed}\n" + association.contingency_to_csv(run.table)
    _write_text(run.out / "contingency.csv", text)
    log.info("joined %d pull requests across %d pattern types",
             len(run.joins), len(run.table.row_labels))


def cmd_validate(run: Run, contingency_path=None, pairwise_path=None):
    """Chi-squared on the contingency table, pairwise tests, and mapping.

    The table comes from contingency_path and the pairwise rows from
    pairwise_path whenever they are given (e.g. when validating a standalone
    table), and from the run otherwise.  All three documents are computed
    before the first is written.
    """
    cfg, out = run.cfg, run.out
    if contingency_path:
        run.table = _parse(Path(_require_file(contingency_path, "contingency table")),
                           "contingency table", association.contingency_from_csv,
                           MalformedInput)
    if pairwise_path:
        results = _parse(Path(pairwise_path), "pairwise rows", lambda text:
                         association.pairwise_from_json(json.loads(text)),
                         MalformedInput)
    else:
        qualifying = association.filter_relevant(run.table, cfg.min_count)
        results = association.pairwise_tests(run.joins, qualifying)
        log.info("skipped %d action pairs with fewer than 2 occurrence samples",
                 len(association.qualifying_pairs(qualifying)) - len(results))
    try:
        chi2 = asdict(stats.chi2_independence(run.table.counts))
    except EmptyTable as exc:
        chi2 = {"statistic": None, "dof": None, "p_value": None, "note": str(exc)}
    mapping = association.extract_mapping(results, cfg.alpha)
    run.chi2, run.mapping = chi2, association.mapping_to_json(mapping)
    _write_json(out / "chi2.json", run.chi2, cfg)
    _write_json(out / "pairwise.json", association.pairwise_to_json(results), cfg)
    _write_json(out / "mapping.json", run.mapping, cfg)
    log.info("chi2 p=%s; %d pairwise tests; %d mapping tuples",
             chi2["p_value"], len(results), len(mapping.tuples))


def cmd_pipeline(cfg: PipelineConfig, out: Path):
    # every input is checked before the first stage writes, so a bad path
    # or keyword map cannot leave artifacts of two runs side by side
    _require_file(cfg.metrics_path, "metrics")
    _require_file(cfg.prs_path, "pull requests")
    run = Run(cfg, out)
    run.keywords  # parsed now; cmd_label reuses it
    cmd_mine(run)
    cmd_label(run)
    cmd_train(run)
    cmd_classify(run)
    cmd_associate(run)
    cmd_validate(run)
    cmd_report(run)


def cmd_report(run: Run):
    """Render report.md from the run's contingency table, class reports,
    chi-squared result and mapping; one that the run does not hold and that
    is not on disk is listed as missing."""
    lines = ["<!-- seed=%d -->" % run.cfg.seed, "# Pipeline report", ""]
    gaps = []

    def held(attr, *names):
        """run.attr, or None when the run does not hold it and one of names
        is not on disk; those names are gaps."""
        missing = [] if attr in vars(run) else [
            n for n in names if not (run.out / n).exists()]
        gaps.extend(missing)
        return None if missing else getattr(run, attr)

    if (table := held("table", "contingency.csv")) is not None:
        lines += ["## Actions near patterns", "", "```",
                  *association.contingency_to_csv(table).splitlines(), "```", ""]

    for stage, doc in enumerate(held("reports", "report_stage1.json",
                                     "report_stage2.json") or [], start=1):
        lines += [f"## Classification report, stage {stage}", "",
                  "| label | TP | TN | FP | FN | PRE | REC | F1 |",
                  "|---|---|---|---|---|---|---|---|"]
        lines += ["| {label} | {tp} | {tn} | {fp} | {fn} | "
                  "{precision:.2f} | {recall:.2f} | {f1:.2f} |".format(**r)
                  for r in doc["rows"]]
        lines.append("")

    if (chi2 := held("chi2", "chi2.json")) is not None:
        lines += ["## Independence test", ""]
        if chi2["statistic"] is None:
            lines += [f"not computed: {chi2['note']}", ""]
        else:
            lines += [f"Chi-squared statistic {chi2['statistic']:.4f}, "
                      f"dof {chi2['dof']}, p-value {chi2['p_value']:.4g}", "",
                      f"Expected cells below 5: {chi2['low_expected_cells']}", ""]

    if (mapping := held("mapping", "mapping.json")) is not None:
        lines += ["## Recommended actions (alpha = %g)" % mapping["alpha"], ""]
        lines += [f"- Pattern {t['pattern']} -> CAPA {t['capa']}"
                  for t in mapping["tuples"]] or ["- none"]
        lines.append("")

    if gaps:
        lines += ["## Missing artifacts", "", *(f"- {g}" for g in gaps), ""]
    _write_text(run.out / "report.md", "\n".join(lines))


# --- argument parsing --------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="capaminer",
        description="Mine metric patterns, classify pull requests, and "
                    "validate pattern-action associations.")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--out", dest="out_dir", metavar="DIR")
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
    overrides = {k: getattr(args, k) for k in
                 ("seed", "out_dir", "alpha", "window_days", "min_count")
                 if getattr(args, k) is not None}
    try:
        cfg = load_config(args.config, overrides)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with OutputLock(out):
            if args.command == "pipeline":
                cmd_pipeline(cfg, out)
            elif args.command == "validate":
                cmd_validate(Run(cfg, out), args.contingency, args.pairwise)
            else:
                COMMANDS[args.command](Run(cfg, out))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (CapaMinerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
