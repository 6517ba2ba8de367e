"""Span recording around the public functions of the capaminer modules.

Tracer.installed() wraps every public function, method and classmethod
defined in the layer modules, and rebinds the wrapper in every capaminer
module that holds the original under some name (for example
`mining.distance_profile`, bound there by `from .tsdist import`).  Nothing
in the program changes; private kernels such as `_best_split` show up only
inside their public parents.

A span is (name, start, end, parent).  A name's inclusive time counts only
its outermost spans; its self time is each span's duration minus the part
of it covered by its child spans.  Counts are taken from the arguments and
results at the same boundaries (COUNTERS).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("cli", "ingestion", "tsdist", "mining", "classifier", "association",
          "stats")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def _len(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _window_pairs(args, kwargs, result):
    """Sum of k_i * k_j over ordered pairs of distinct series, or k^2 for a
    single series, where k is the number of length-m windows."""
    series_set, m = args[0], args[1]
    ks = [len(s) - m + 1 for s in series_set]
    if len(ks) == 1:
        return ks[0] ** 2
    return sum(k * (sum(ks) - k) for k in ks)


def tree_nodes(tree) -> int:
    """Node count of one tree of nested {"leaf", "left", "right"} dicts."""
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        if not node["leaf"]:
            stack += [node["left"], node["right"]]
    return n


# span name -> [(counter name, f(args, kwargs, result) -> number)]
COUNTERS = {
    "ingestion.load_prs_jsonl": [
        ("ingestion.prs_parsed", lambda a, k, r: len(r))],
    "tsdist.znormalized_windows": [
        ("tsdist.windows_normalized", lambda a, k, r: len(r[0]))],
    "mining.consensus_candidate": [
        ("mining.window_pairs_computed", _window_pairs)],
    "mining.mine_patterns": [
        ("mining.patterns_accepted", lambda a, k, r: len(r))],
    "mining.locate_occurrences": [
        ("mining.occurrences", lambda a, k, r: len(r))],
    "classifier.label_by_keywords": [
        ("classifier.labeled", lambda a, k, r: r is not None)],
    "classifier.train_forest": [
        ("classifier.train_rows", lambda a, k, r: len(a[0])),
        ("classifier.tree_nodes", lambda a, k, r: sum(map(tree_nodes, r.trees)))],
    "association.temporal_join": [
        ("association.joins", lambda a, k, r: len(r)),
        ("association.capa_prs", lambda a, k, r: _len(a[1]))],
    "association.pairwise_tests": [
        ("association.tests", lambda a, k, r: len(r))],
    "stats.chi2_independence": [
        ("stats.low_expected_cells", lambda a, k, r: r.low_expected_cells)],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn):
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
            for counter, count in counters:
                self.counts[counter] = (self.counts.get(counter, 0)
                                        + count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layers' public callables for the duration of the block."""
        wrapped = {}  # id(original) -> wrapper
        undo = []     # (owner, attribute, original)
        for layer in LAYERS:
            mod = importlib.import_module(f"capaminer.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        name = f"{layer}.{attr}.{mname}"
                        if inspect.isfunction(member):
                            new = self.wrap(name, member)
                        elif isinstance(member, classmethod):
                            new = classmethod(self.wrap(name, member.__func__))
                        else:
                            continue
                        undo.append((obj, mname, member))
                        setattr(obj, mname, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "capaminer" and not mod_name.startswith("capaminer."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def summarize(spans) -> dict:
    """{name: {"s": inclusive, "self_s": exclusive, "calls": n}}.

    Inclusive time sums only spans with no ancestor of the same name, so a
    function that calls itself is not counted twice.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        duration = span.end - span.start
        row["self_s"] += duration - covered(
            [(spans[c].start, spans[c].end) for c in children[i]])
        if not _has_ancestor_named(spans, i, span.name):
            row["s"] += duration
    return out


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _has_ancestor_named(spans, i, name) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
