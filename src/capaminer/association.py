"""Temporal join of pattern occurrences with classified pull requests, the
pattern-by-action contingency table, relevance filtering, pairwise t-tests,
and extraction of the validated pattern-to-action mapping.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import INDEX, NUMBER, UNIT_INTERVAL, need_rows, or_null
from .stats import two_sample_t_test
from .timeutil import from_rfc3339

N_CAPAS = 7  # association-side action ids 0..6


@dataclass(frozen=True)
class ContingencyTable:
    row_labels: tuple  # pattern-type ids
    col_labels: tuple  # action ids
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=int)
        if c.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(f"counts of shape {c.shape} for {len(self.row_labels)} "
                             f"rows and {len(self.col_labels)} columns")
        if (c < 0).any():
            raise ValueError("counts must be non-negative")
        for labels in (self.row_labels, self.col_labels):
            if len(set(labels)) != len(labels):
                raise ValueError(f"repeated labels in {labels}")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def row_totals(self):
        return self.counts.sum(axis=1)

    @property
    def col_totals(self):
        return self.counts.sum(axis=0)

    @property
    def grand_total(self):
        return int(self.counts.sum())


def capa_id_from_class(class_id: int) -> int:
    """Association action id k corresponds to classifier class k+1."""
    return int(class_id) - 1


def temporal_join(occurrences, capa_prs, window_seconds: float):
    """(occurrence row, action id) of each pull request attributed to an
    occurrence.

    A PR qualifies for an occurrence when its creation time lies in
    [occurrence start, occurrence end + window] and the repo matches.  Among
    qualifying occurrences the one whose start is nearest before the PR wins
    (ties to the lowest pattern id).

    occurrences: occurrences.jsonl rows; capa_prs: iterable of (repo_id,
    creation_time, action id 0..6), one per CAPA-classified PR.
    """
    by_repo = {}  # repo -> [(start, end + window, occurrence row)]
    for occ in occurrences:
        by_repo.setdefault(occ["repo"], []).append(
            (from_rfc3339(occ["start_time"]),
             from_rfc3339(occ["end_time"]) + window_seconds, occ))
    joins = []
    for repo_id, created, capa in capa_prs:
        if not 0 <= capa < N_CAPAS:
            raise ValueError(f"capa id {capa} out of range 0..{N_CAPAS - 1}")
        best = None  # (start gap, pattern_id, occurrence row)
        for start, until, occ in by_repo.get(repo_id, ()):
            if start <= created <= until:
                key = (created - start, occ["pattern_id"])
                if best is None or key < best[:2]:
                    best = (*key, occ)
        if best is not None:
            joins.append((best[2], capa))
    return joins


def build_contingency(joins) -> ContingencyTable:
    """Pattern-type by action count matrix: the joined pattern types in
    ascending order by every action id."""
    rows = tuple(sorted({occ["pattern_id"] for occ, _ in joins}))
    cols = tuple(range(N_CAPAS))
    counts = np.zeros((len(rows), len(cols)), dtype=int)
    ri = {r: i for i, r in enumerate(rows)}
    ci = {c: i for i, c in enumerate(cols)}
    for occ, capa in joins:
        counts[ri[occ["pattern_id"]], ci[capa]] += 1
    return ContingencyTable(rows, cols, counts)


def filter_relevant(table: ContingencyTable, min_count: int) -> dict:
    """Per pattern type, the set of actions seen at least min_count times."""
    out = {}
    for i, pt in enumerate(table.row_labels):
        out[pt] = {c for j, c in enumerate(table.col_labels)
                   if table.counts[i, j] >= min_count}
    return out


def qualifying_pairs(qualifying_sets: dict):
    """Unordered action pairs per pattern with >= 2 qualifying actions."""
    pairs = []
    for pt in sorted(qualifying_sets):
        caps = sorted(qualifying_sets[pt])
        if len(caps) >= 2:
            pairs.extend((pt, i, j) for i, j in itertools.combinations(caps, 2))
    return pairs


def occurrence_fraction_samples(joins):
    """Per (pattern, action): the fraction of each attributed occurrence's
    joined PRs labeled with that action, over occurrences with >= 1 join."""
    per_occ = {}
    for occ, capa in joins:
        key = (occ["pattern_id"], occ["repo"], occ["start_index"])
        per_occ.setdefault(key, []).append(capa)
    samples = {}
    for (pt, *_), capas in sorted(per_occ.items()):
        total = len(capas)
        for c in range(N_CAPAS):
            frac = sum(1 for v in capas if v == c) / total
            samples.setdefault((pt, c), []).append(frac)
    return samples


def pairwise_tests(joins, qualifying_sets):
    """pairwise.json rows: Welch tests between occurrence-level fraction
    samples of each qualifying action pair of each pattern, in
    qualifying_pairs order.  A pair with fewer than 2 samples on either
    side is skipped."""
    samples = occurrence_fraction_samples(joins)
    rows = []
    for pt, ci, cj in qualifying_pairs(qualifying_sets):
        a = samples.get((pt, ci), [])
        b = samples.get((pt, cj), [])
        if len(a) < 2 or len(b) < 2:
            continue
        r = two_sample_t_test(a, b)
        # constant unequal samples give t = +-inf, which JSON cannot hold;
        # p = 0 and the means keep the row's meaning
        t = r.t_stat if math.isfinite(r.t_stat) else None
        rows.append({"pattern": pt, "capa_i": ci, "capa_j": cj,
                     "mean_i": r.mean_a, "mean_j": r.mean_b,
                     "t": t, "dof": r.dof, "p": r.p_value})
    return rows


def extract_mapping(rows, alpha: float) -> dict:
    """The mapping document: each pattern mapped to the action dominating
    every other qualifying action of that pattern, with a higher mean and
    p < alpha on each pairwise row.

    Row order does not matter; at most one action can dominate."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    per_pattern = {}
    for r in rows:
        per_pattern.setdefault(r["pattern"], []).append(r)
    tuples = []
    for pt in sorted(per_pattern):
        tests = per_pattern[pt]
        capas = sorted({r["capa_i"] for r in tests} | {r["capa_j"] for r in tests})
        for q in capas:
            dominated = 0
            for r in tests:
                if q == r["capa_i"] and r["p"] < alpha and r["mean_i"] > r["mean_j"]:
                    dominated += 1
                elif q == r["capa_j"] and r["p"] < alpha and r["mean_j"] > r["mean_i"]:
                    dominated += 1
            if dominated == len(capas) - 1:
                tuples.append({"pattern": pt, "capa": q})
                break
    return {"alpha": alpha, "tuples": tuples}


def contingency_to_csv(table: ContingencyTable) -> str:
    """Paper-style layout: action-id header, one row per pattern, Total
    row and column."""
    buf = io.StringIO()
    header = ["Pattern type"] + [f"CAPA {c}" for c in table.col_labels] + ["Total"]
    buf.write(",".join(header) + "\n")
    for i, pt in enumerate(table.row_labels):
        cells = [f"Pattern {pt}"] + [str(int(v)) for v in table.counts[i]]
        cells.append(str(int(table.row_totals[i])))
        buf.write(",".join(cells) + "\n")
    totals = ["Total"] + [str(int(v)) for v in table.col_totals]
    totals.append(str(table.grand_total))
    buf.write(",".join(totals) + "\n")
    return buf.getvalue()


def contingency_from_csv(text: str) -> ContingencyTable:
    """The table of a text in contingency_to_csv's layout.  A line whose
    cell count differs from the header's, a missing Total column or row, or
    a total that is not the sum of its cells raises ValueError naming the
    1-based line."""
    lines = [(n, ln.split(",")) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip() and not ln.startswith("#")]
    if len(lines) < 2 or lines[0][1][-1].strip() != "Total" \
            or lines[-1][1][0].strip() != "Total":
        raise ValueError("expected a header ending in a Total column, "
                         "pattern rows and a Total row")
    (head, header), *body = lines
    last = body[-1][0]
    # a label such as "CAPA 3" or "Pattern 5" ends in its number
    try:
        cols = tuple(int(h.strip().rpartition(" ")[2]) for h in header[1:-1])
    except ValueError as e:
        raise ValueError(f"line {head}: {e}") from None
    rows, data = [], []
    for n, cells in body:
        if len(cells) != len(header):
            raise ValueError(f"line {n}: {len(cells)} cells, the header has {len(header)}")
        try:
            data.append([int(c) for c in cells[1:]])
            if n != last:
                rows.append(int(cells[0].strip().rpartition(" ")[2]))
        except ValueError as e:
            raise ValueError(f"line {n}: {e}") from None
    counts = np.array(data[:-1], dtype=int).reshape(len(body) - 1, len(header) - 1)
    table = ContingencyTable(tuple(rows), cols, counts[:, :-1])
    for (n, _), total, want in zip(body, counts[:, -1].tolist(),
                                   table.row_totals.tolist()):
        if total != want:
            raise ValueError(f"line {n}: row total {total}, its cells sum to {want}")
    want = [*table.col_totals.tolist(), table.grand_total]
    if data[-1] != want:
        raise ValueError(f"line {last}: Total row {data[-1]}, the columns sum to {want}")
    return table


ACTION = (lambda v: type(v) is int and v in range(N_CAPAS),
          f"an action id in 0..{N_CAPAS - 1}")
# {field: (test, requirement)} of a pairwise.json row, in its order
PAIRWISE_FIELDS = {"pattern": INDEX, "capa_i": ACTION, "capa_j": ACTION,
                   "mean_i": UNIT_INTERVAL, "mean_j": UNIT_INTERVAL,
                   "t": or_null(NUMBER), "dof": or_null(NUMBER), "p": UNIT_INTERVAL}


def pairwise_from_json(doc, qualifying=None) -> list:
    """The rows of a pairwise document, checked by need_rows against
    PAIRWISE_FIELDS and cut to those keys; t and dof, which published tables
    may omit, become None.  A row must compare two different actions, and no
    pair of actions may be compared twice for one pattern.  Given the
    filter_relevant sets of the table the rows test, each row's pattern
    must be one of the table's and both its actions must qualify."""
    tests = [{"t": None, "dof": None, **e} for e in need_rows(doc, "tests", {})["tests"]]
    need_rows({"tests": tests}, "tests", PAIRWISE_FIELDS)
    seen = set()
    for n, e in enumerate(tests):
        pair = (e["pattern"], frozenset((e["capa_i"], e["capa_j"])))
        if len(pair[1]) == 1 or pair in seen:
            raise ValueError(f"tests[{n}]: capa_i and capa_j must be two actions "
                             f"no earlier row compares for pattern {e['pattern']}, "
                             f"got {e['capa_i']} and {e['capa_j']}")
        seen.add(pair)
    for n, e in enumerate(tests if qualifying is not None else []):
        if e["pattern"] not in qualifying:
            raise ValueError(f"tests[{n}]: pattern must be a pattern of the table, "
                             f"got {e['pattern']}")
        if not {e["capa_i"], e["capa_j"]} <= qualifying[e["pattern"]]:
            raise ValueError(f"tests[{n}]: capa_i and capa_j must be actions of "
                             f"pattern {e['pattern']} seen at least min_count times, "
                             f"{sorted(qualifying[e['pattern']])}, got {e['capa_i']} "
                             f"and {e['capa_j']}")
    return [{key: e[key] for key in PAIRWISE_FIELDS} for e in tests]
