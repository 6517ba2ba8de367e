"""Batch front-end: wires mining, labeling, training, classification, and
validation into subcommands that emit deterministic file artifacts, the
fixed names of ARTIFACTS under the output directory.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import logging
import os
import pickle
import sys
import threading
import traceback
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import association, classifier, ingestion, mining, stats, timeutil
from .errors import (INDEX, INTEGER, NON_NEGATIVE, NUMBER, PROBABILITY, SEED, TEXT,
                     CapaMinerError, ConfigError, DegenerateData, EmptyDataset,
                     EmptyTable, MalformedInput, at_least, need, need_rows, only, or_null)
from .mining import MINING_CONFIG_FIELDS, MiningConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_CONFIG_ERROR = 2

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
    metrics: tuple = tuple(ingestion.METRIC_COLUMNS)
    min_len: int = 8
    max_len: int = 8
    match_threshold: float | None = None  # None: default_match_threshold(min_len)
    coverage_value: float = 0.5  # fraction of the repositories, in (0, 1]
    # classifier
    n_estimators: int = 100
    train_ratio: float = 0.8

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
# mining fields take the rules of MiningConfig, and seed and n_estimators
# those of train_forest
VALUE_CHECKS = {
    **dict.fromkeys(("metrics_path", "prs_path", "keywords_path", "out_dir"), TEXT),
    "seed": SEED,
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
    "n_estimators": at_least(1),
    "train_ratio": PROBABILITY,
}


def load_config(path=None, overrides=None) -> PipelineConfig:
    """The config at path, if any, with overrides; a bad one is a ConfigError."""
    doc = {} if path is None else _read(
        path, "config", _text(lambda text: need(json.loads(text), {})), ConfigError)
    try:
        only(doc, PipelineConfig.__dataclass_fields__, "config")
        return PipelineConfig(**{**doc, **(overrides or {})})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read(path, what, load, error, _hint=""):
    """load(path), the one way a command reads a file: no path, or no file
    there, is a ConfigError, and a file that load cannot open, decode or
    parse raises error, which names what and the path."""
    if not path:
        raise ConfigError(f"no {what} path configured")
    try:
        return load(path)
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"{what} file not found: {path}{_hint}") from None
    # invalid JSON is a ValueError, JSON nested too deep a RecursionError, a
    # table count past int64 an OverflowError; an AttributeError must not
    # leave Run.__getattr__, as a missing attribute
    except (OSError, IndexError, TypeError, ValueError, OverflowError,
            RecursionError, AttributeError) as exc:
        raise error(f"invalid {what} {path}: {exc}") from None


def _text(parse):
    """The load of _read that parses the file's UTF-8 text, a leading byte-order mark dropped."""
    return lambda path: parse(Path(path).read_text(encoding="utf-8-sig"))


def _json(run, doc: dict, compact=False):
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    return json.dumps({"meta": {"seed": run.cfg.seed}, **doc}, sort_keys=True,
                      **layout) + "\n"


# json.dumps builds an encoder per call; a JSONL artifact renders each row with this one
_ENCODE_ROW = json.JSONEncoder(sort_keys=True).encode


def _jsonl(run, rows):
    return "".join(_ENCODE_ROW(row) + "\n"
                   for row in [{"meta": {"seed": run.cfg.seed}}, *rows])


# {key: (test, requirement)} of the artifact fields that later stages read
_DATE = (lambda v: timeutil.from_rfc3339(v) is not None, "an RFC 3339 date")
_CAPA = (lambda v: type(v) is int and v in range(1, 8), "a CAPA class in 1..7")
OCCURRENCE_FIELDS = {"pattern_id": INDEX, "repo": TEXT, "start_index": INDEX,
                     "end_index": INDEX, "start_time": _DATE, "end_time": _DATE,
                     "distance": NUMBER}
CLASSIFIED_FIELDS = {
    "pr_id": TEXT, "repo_id": TEXT, "creation_date": _DATE,
    "capa_class": or_null(_CAPA)}
# a golden row is a classified row without its creation date
GOLDEN_FIELDS = {key: CLASSIFIED_FIELDS[key] for key in ("pr_id", "repo_id", "capa_class")}
CLASS_REPORT_ROW_FIELDS = {
    "label": INTEGER,
    **{count: INDEX for count in ("tp", "tn", "fp", "fn")},
    **{score: NUMBER for score in ("precision", "recall", "f1")}}
CHI2_FIELDS = {"statistic": NUMBER, "dof": INDEX, "p_value": NUMBER,
               "low_expected_cells": INDEX}
MAPPING_TUPLE_FIELDS = {"pattern": INDEX, "capa": association.ACTION}


def _chi2(text):
    """A chi-squared document: a test result, or the note why there is none."""
    doc = json.loads(text)
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


def _forest(doc, labels):
    """The forest of a model document, whose classes must be labels values."""
    forest = classifier.RandomForest.from_json(doc, len(ingestion.FEATURE_ORDER))
    if not set(forest.classes) <= set(labels):
        raise ValueError(f"classes {forest.classes} are not all "
                         f"{labels.__name__} values")
    return forest


def _model(run, forest):
    return _json(run, forest.to_json(), compact=True)


def _class_report(text):
    return need_rows(json.loads(text), "rows", CLASS_REPORT_ROW_FIELDS)


# {name: (what it is, the stage that computes it, the Run attribute that holds
# it, render(run, value) of its text, parse(text) of its value or None where
# no stage reads it back)}, in stage order, each row with an attribute of its
# own.  The one rule: a value the run did not compute is read from its file.
# The models are compact JSON, as indent would give each entry of their node
# arrays a line and make json use its pure-Python encoder
ARTIFACTS = {
    "patterns.json": ("patterns", "mine", "patterns", _json, None),
    "occurrences.jsonl": ("occurrences", "mine", "occurrences", _jsonl, lambda text:
                          _read_jsonl(text, lambda o: need(o, OCCURRENCE_FIELDS))),
    "golden.jsonl": ("golden standard", "label", "golden", _jsonl,
                     lambda text: _read_jsonl(text, lambda g: need(g, GOLDEN_FIELDS))),
    "model_stage1.json": ("model", "train", "model_stage1", _model, lambda text:
                          _forest(json.loads(text), classifier.StageOneLabel)),
    "model_stage2.json": ("model", "train", "model_stage2", _model, lambda text:
                          _forest(json.loads(text), classifier.CapaLabel)),
    "report_stage1.json": ("class report", "train", "report_stage1", _json,
                           _class_report),
    "report_stage2.json": ("class report", "train", "report_stage2", _json,
                           _class_report),
    "classified.jsonl": ("classified pull requests", "classify", "classified", _jsonl,
                         lambda text: _read_jsonl(text, lambda c: need(
                             c, CLASSIFIED_FIELDS))),
    "contingency.csv": ("contingency table", "associate", "table", lambda run, table:
                        f"# seed={run.cfg.seed}\n" + association.contingency_to_csv(table),
                        association.contingency_from_csv),
    "chi2.json": ("chi-squared result", "validate", "chi2", _json, _chi2),
    "pairwise.json": ("pairwise tests", "validate", "pairwise",
                      lambda run, rows: _json(run, {"tests": rows}), None),
    "mapping.json": ("mapping", "validate", "mapping", _json, lambda text: need_rows(
        need(json.loads(text), {"alpha": NUMBER}), "tuples", MAPPING_TUPLE_FIELDS)),
    "report.md": ("report", "report", "report_md", lambda run, text: text, None),
}


# {Run attribute: the artifact it is read from} of the artifacts a stage reads back
_READ_BACK = {row[2]: name for name, row in ARTIFACTS.items() if row[4] is not None}


def _write(run, stage=None):
    """Write the artifacts of stage, or of every stage, from the run: each
    rendered and written to a temp file in turn, then all renamed into
    place, so a run that fails before the renames leaves the output
    directory as it was."""
    names = [name for name, row in ARTIFACTS.items() if stage in (None, row[1])]
    tmps = [run.out / f".{name}.tmp" for name in names]
    try:
        for name, tmp in zip(names, tmps):
            _, _, attr, render, _ = ARTIFACTS[name]
            tmp.write_text(render(run, getattr(run, attr)), encoding="utf-8")
        for name, tmp in zip(names, tmps):
            os.replace(tmp, run.out / name)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


class OutputLock:
    """Rejects concurrent runs against the same output directory: an
    exclusive flock on its .lock file, which the kernel drops when the
    holder and its forked lanes exit, however they exit, so no lock
    outlives its run and a .lock file left behind blocks nothing."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder unlinks .lock before it unlocks: the file locked here
            # may no longer be the one at the path
            if not os.path.samestat(os.fstat(self.fd), os.stat(self.path)):
                raise BlockingIOError
        except OSError:
            os.close(self.fd)
            raise ConfigError(
                f"output dir is locked by another run: {self.path}") from None
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        os.close(self.fd)


def bundled_data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


# --- subcommand bodies -------------------------------------------------------

class Run:
    """One invocation's inputs and stage results, built on first use.

    A stage stores the values it computes here, and _write renders the
    artifacts from them.  The one rule: a value the run did not compute is
    read from the artifact whose ARTIFACTS row names it, and an input from
    its file.  So `pipeline` parses each input once and reads no artifact
    back, while a single subcommand reads the files it needs.  occurrences,
    golden, classified, report_stage1, report_stage2, chi2 and mapping are
    the dicts written to disk, so the join parses the same RFC 3339 times,
    and the report renders the same values, either way.
    """

    def __init__(self, cfg: PipelineConfig, out: Path):
        self.cfg = cfg
        self.out = out

    @cached_property
    def prs(self):
        prs = _read(self.cfg.prs_path, "pull requests", ingestion.load_prs_jsonl,
                    MalformedInput)
        if not prs:
            raise EmptyDataset(f"no pull requests in {self.cfg.prs_path}")
        return prs

    @cached_property
    def keywords(self):
        """load_keyword_map of keywords_path, or of the bundled map."""
        path = self.cfg.keywords_path
        if not path:
            return classifier.load_keyword_map({})
        return _read(path, "keyword map", _text(
            lambda text: classifier.load_keyword_map(json.loads(text))), ConfigError)

    def __getattr__(self, attr):
        """attr, which the run does not hold, read from its artifact."""
        if attr not in _READ_BACK:
            raise AttributeError(f"'Run' object has no attribute {attr!r}")
        value = self.__dict__[attr] = self.load(_READ_BACK[attr])
        return value

    def load(self, name):
        """The value of the artifact name, checked for every field that its
        consumer reads; a missing artifact, or one that its parse rejects, is
        a ConfigError naming it and, when missing, the stage that writes it."""
        what, stage, _, _, parse = ARTIFACTS[name]
        return _read(self.out / name, what, _text(parse), ConfigError, f" (run {stage})")

    @cached_property
    def joins(self):
        return association.temporal_join(self.occurrences, [
            (c["repo_id"], timeutil.from_rfc3339(c["creation_date"]),
             association.capa_id_from_class(c["capa_class"]))
            for c in self.classified if c["capa_class"] is not None],
            self.cfg.window_days * 86400)


def cmd_mine(run: Run):
    cfg = run.cfg
    loaded = _read(cfg.metrics_path, "metrics", ingestion.load_metrics_csv, MalformedInput)
    if not loaded:
        raise EmptyDataset(f"no metric series in {cfg.metrics_path}")
    # mine_patterns numbers the patterns in the order of their metrics
    series = [s for metric in cfg.metrics for s in loaded if s.metric_name == metric]
    patterns = mining.mine_patterns(series, cfg.mining_config())
    run.patterns = mining.patterns_to_json(patterns)
    run.occurrences = [o for p in patterns for o in p.occurrences]
    log.info("mined %d patterns, %d occurrences", len(patterns),
             len(run.occurrences))


def _capa_class(label):
    """The capa_class of a label of classify_two_stage: None for non-CAPA."""
    return None if label is classifier.StageOneLabel.NON_CAPA else int(label)


def cmd_label(run: Run):
    prs = run.prs
    golden = []
    for repo_id, pr_id, text in zip(prs.repo_ids, prs.pr_ids, prs.texts):
        label = classifier.label_by_keywords(text, *run.keywords)
        if label is not None:
            golden.append({"pr_id": pr_id, "repo_id": repo_id,
                           "capa_class": _capa_class(label)})
    run.golden = golden
    log.info("labeled %d of %d pull requests", len(golden), len(prs))


def cmd_train(run: Run):
    """The stage-1 forest, CAPA or not, and the stage-2 forest, which CAPA,
    each trained on its share of the labeled pull requests and scored on the
    rest.  The two stages share no state, so stage 1 trains beside stage 2
    (see _beside), in a forked lane when a CPU is idle; either way an error
    of stage 1 is the one reported, as in stage order."""
    cfg, prs = run.cfg, run.prs
    golden = {(g["repo_id"], g["pr_id"]): g["capa_class"] for g in run.golden}
    # {row of prs: capa_class} of the labeled pull requests, in file order,
    # then each stage's {row: label}
    labeled = {i: golden[key] for i, key in enumerate(zip(prs.repo_ids, prs.pr_ids))
               if key in golden}
    capa, non_capa = classifier.StageOneLabel.CAPA, classifier.StageOneLabel.NON_CAPA
    stage1 = {i: int(non_capa if c is None else capa) for i, c in labeled.items()}
    stage2 = {i: c for i, c in labeled.items() if c is not None}

    def train(stage, labels):
        """(forest, class report) of stage, trained on labels {row: label}."""
        X, y = prs.values[list(labels)], np.array(list(labels.values()))
        try:
            tr, te = classifier.split_train_test(X, y, cfg.train_ratio, cfg.seed)
        except DegenerateData as exc:
            raise DegenerateData(f"stage {stage}: {exc}") from None
        forest = classifier.train_forest(X[tr], y[tr], cfg.n_estimators, cfg.seed)
        pred, _ = forest.predict(X[te])
        return forest, classifier.compute_report(y[te], pred, sorted(set(labels.values())))

    ((run.model_stage1, run.report_stage1),
     (run.model_stage2, run.report_stage2)) = _beside(
        "stage 1 of the train stage", lambda: train(1, stage1), lambda: train(2, stage2))
    log.info("trained stage-1 on %d rows, stage-2 on %d rows", len(stage1), len(stage2))


def cmd_classify(run: Run):
    prs = run.prs
    results = classifier.classify_two_stage(run.model_stage1, run.model_stage2,
                                            prs.values)
    created = prs.values[:, ingestion.FEATURE_ORDER.index("creation_date")]
    run.classified = [{
        "pr_id": pr_id,
        "repo_id": repo_id,
        "creation_date": timeutil.to_rfc3339(t),
        "capa_class": _capa_class(result),
    } for pr_id, repo_id, t, result in zip(prs.pr_ids, prs.repo_ids,
                                           created.tolist(), results)]
    log.info("classified %d pull requests", len(prs))


def cmd_associate(run: Run):
    run.table = association.build_contingency(run.joins)
    log.info("joined %d pull requests across %d pattern types",
             len(run.joins), len(run.table.row_labels))


def cmd_validate(run: Run, contingency_path=None, pairwise_path=None):
    """Chi-squared on the contingency table, pairwise tests, and mapping.

    The table and the pairwise rows come from the run, or, to validate a
    standalone table, both from files: contingency_path and pairwise_path,
    which main takes together.
    """
    if contingency_path is not None:
        run.table = _read(contingency_path, "contingency table",
                          _text(association.contingency_from_csv), MalformedInput)
        qualifying = association.filter_relevant(run.table, run.cfg.min_count)
        rows = _read(pairwise_path, "pairwise rows", _text(
            lambda text: association.pairwise_from_json(json.loads(text), qualifying)),
            MalformedInput)
    else:
        qualifying = association.filter_relevant(run.table, run.cfg.min_count)
        rows = association.pairwise_tests(run.joins, qualifying)
        log.info("skipped %d action pairs with fewer than 2 occurrence samples",
                 len(association.qualifying_pairs(qualifying)) - len(rows))
    try:
        run.chi2 = asdict(stats.chi2_independence(run.table.counts))
    except EmptyTable as exc:
        run.chi2 = {"statistic": None, "dof": None, "p_value": None, "note": str(exc)}
    run.pairwise, run.mapping = rows, association.extract_mapping(rows, run.cfg.alpha)
    log.info("chi2 p=%s; %d pairwise tests; %d mapping tuples",
             run.chi2["p_value"], len(rows), len(run.mapping["tuples"]))


def cmd_report(run: Run):
    """Render report.md from the run's contingency table, class reports,
    chi-squared result and mapping; one that the run does not hold and that
    is not on disk is listed as missing."""
    lines = ["<!-- seed=%d -->" % run.cfg.seed, "# Pipeline report", ""]
    gaps = []

    def held(attr):
        """run.attr; or, when the run does not hold it and its file is not
        on disk, None, with the file listed as a gap."""
        if attr in vars(run) or (run.out / _READ_BACK[attr]).exists():
            return getattr(run, attr)
        gaps.append(_READ_BACK[attr])
        return None

    if (table := held("table")) is not None:
        lines += ["## Actions near patterns", "", "```",
                  *association.contingency_to_csv(table).splitlines(), "```", ""]

    for stage in (1, 2):
        if (doc := held(f"report_stage{stage}")) is not None:
            lines += [f"## Classification report, stage {stage}", "",
                      "| label | TP | TN | FP | FN | PRE | REC | F1 |",
                      "|---|---|---|---|---|---|---|---|"]
            lines += ["| {label} | {tp} | {tn} | {fp} | {fn} | "
                      "{precision:.2f} | {recall:.2f} | {f1:.2f} |".format(**r)
                      for r in doc["rows"]]
            lines.append("")

    if (chi2 := held("chi2")) is not None:
        lines += ["## Independence test", ""]
        if chi2["statistic"] is None:
            lines += [f"not computed: {chi2['note']}", ""]
        else:
            lines += [f"Chi-squared statistic {chi2['statistic']:.4f}, "
                      f"dof {chi2['dof']}, p-value {chi2['p_value']:.4g}", "",
                      f"Expected cells below 5: {chi2['low_expected_cells']}", ""]

    if (mapping := held("mapping")) is not None:
        lines += ["## Recommended actions (alpha = %g)" % mapping["alpha"], ""]
        lines += [f"- Pattern {t['pattern']} -> CAPA {t['capa']}"
                  for t in mapping["tuples"]] or ["- none"]
        lines.append("")

    if gaps:
        lines += ["## Missing artifacts", "", *(f"- {g}" for g in gaps), ""]
    run.report_md = "\n".join(lines)


# the stages in order, each a subcommand of the same name
STAGES = {"mine": cmd_mine, "label": cmd_label, "train": cmd_train,
          "classify": cmd_classify, "associate": cmd_associate,
          "validate": cmd_validate, "report": cmd_report}


def _stages(run: Run, *names):
    for name in names:  # by name at call time, so that a tracer's wrappers run
        globals()[f"cmd_{name}"](run)


class _ChildTraceback(Exception):
    """The traceback text of an error raised in a forked lane's process."""


# the reply pipes of this process's forked lanes, while they run
_LANES = []


def _cpu_idle():
    """Whether a forked lane would have a CPU to itself: the CPUs this
    process may use outnumber it plus its forked lanes still computing, and
    no Python thread runs but this one.  A lane whose reply pipe is readable
    has finished computing.  Another Python thread may hold a lock at the
    fork that the child would wait on for ever, and this process on the
    child's pipe."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or threading.active_count() > 1:
        return False
    computing = 0
    if _LANES:
        import select  # only here: the module is not loaded otherwise
        ready = select.poll()  # poll, as select.select fails on a descriptor past 1023
        for pipe in _LANES:
            ready.register(pipe, select.POLLIN)
        computing = len(_LANES) - len(ready.poll(0))
    return len(affinity(0)) > 1 + computing


def _beside(name, child, lane):
    """(child(), lane()), with child run in a forked process beside lane
    where _cpu_idle, and otherwise first, then lane, in this process.  The
    forked child sends its value, or the error it raised, back over a pipe
    as a pickle.  Either way an error of child wins over lane's, as in stage
    order, and no child outlives the call while this process's Python code
    runs; a child killed by a signal is a CapaMinerError that begins with
    name, the stage child computes."""
    if not _cpu_idle():
        return child(), lane()
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # from Python 3.12 on, os.fork warns in a process with more than
            # one thread; with no other Python thread, the others are
            # native, as numpy's OpenBLAS pool; the child is safe: it runs
            # only this package's numpy code, and OpenBLAS and logging
            # re-initialise their threads and locks after a fork
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                    r"use of fork\(\)", DeprecationWarning)
            pid = os.fork()
    except OSError:  # at the process limit, or out of memory: no second lane
        os.close(read_end)
        os.close(write_end)
        return child(), lane()
    if pid == 0:
        os.close(read_end)
        _lane_child(child, write_end)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        _LANES.append(pipe)
        try:
            try:
                value = lane()
            except Exception as exc:
                failed = exc
            else:
                failed = None
            reply = pipe.read()
        except BaseException:
            import signal  # only on this path: the module is not loaded otherwise
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _LANES.remove(pipe)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise CapaMinerError(f"{name} was killed by signal {-code}")
    if code > 0:
        raise CapaMinerError(f"{name} exited with code {code} and no result")
    child_value, error, trace = pickle.loads(reply)
    if error is not None:
        raise error from _ChildTraceback(trace)
    if failed is not None:
        raise failed
    return child_value, value


def _lane_child(child, write_end):
    """The forked child's whole life: child(), its reply written to
    write_end, then os._exit, so that nothing of the parent's stack runs
    here: not the output lock's release, not _write, not an atexit handler."""
    code = 1
    try:
        try:
            reply = (child(), None, None)
        except BaseException as exc:  # the parent raises it
            reply = (None, exc, traceback.format_exc())
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def cmd_pipeline(cfg: PipelineConfig, out: Path):
    """Every stage in order, but mine beside label, train and classify (see
    _beside): the miner reads only the metrics and those three only the
    pull requests, so the two lanes first meet at associate.  Beside a
    forked mine, train forks its stage 1 only once mine has finished, as
    only then is a CPU idle (see _cpu_idle)."""
    run = Run(cfg, out)

    def mine():
        _stages(run, "mine")
        return run.patterns, run.occurrences

    (run.patterns, run.occurrences), _ = _beside(
        "the mine stage", mine, lambda: _stages(run, "label", "train", "classify"))
    _stages(run, "associate", "validate", "report")
    del run.prs  # no artifact renders from it: free it for _write
    _write(run)


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
    for name in [*STAGES, "pipeline"]:
        sub.add_parser(name)
    sub.choices["validate"].add_argument(
        "--contingency", metavar="PATH", help="validate a standalone contingency table")
    sub.choices["validate"].add_argument(
        "--pairwise", metavar="PATH", help="precomputed pairwise test rows (JSON)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "validate" and (args.contingency is None) != (args.pairwise is None):
            parser.error("validate takes --contingency and --pairwise together, or neither")
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
            else:
                run = Run(cfg, out)
                if args.command == "validate":
                    cmd_validate(run, args.contingency, args.pairwise)
                else:
                    STAGES[args.command](run)
                _write(run, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (CapaMinerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
