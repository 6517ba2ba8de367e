import json
from pathlib import Path

import numpy as np
import pytest

from capaminer.association import (
    ContingencyTable,
    build_contingency,
    capa_id_from_class,
    contingency_from_csv,
    contingency_to_csv,
    extract_mapping,
    filter_relevant,
    occurrence_fraction_samples,
    pairwise_from_json,
    pairwise_tests,
    qualifying_pairs,
    temporal_join,
)
from capaminer.stats import chi2_independence
from capaminer.timeutil import to_rfc3339

DATA = Path(__file__).resolve().parent.parent / "src" / "capaminer" / "data"
DAY = 86400.0
WINDOW = 30 * DAY  # the default window_days


def occ(pattern_id, repo, start_day, end_day):
    """The occurrences.jsonl row of a match from start_day to end_day."""
    return {"pattern_id": pattern_id, "repo": repo,
            "start_index": int(start_day), "end_index": int(end_day),
            "start_time": to_rfc3339(start_day * DAY),
            "end_time": to_rfc3339(end_day * DAY), "distance": 0.5}


class TestTemporalJoin:
    def test_window_is_closed_on_both_ends(self):
        occs = [occ(0, "r", 10, 17)]
        prs = [
            ("r", 10 * DAY, 0),             # at occurrence start
            ("r", (17 + 30) * DAY, 1),      # exactly end + 30 days
            ("r", (17 + 30) * DAY + 1, 2),  # one second past
            ("r", 10 * DAY - 1, 3),         # one second early
        ]
        joins = temporal_join(occs, prs, WINDOW)
        assert joins == [(occs[0], 0), (occs[0], 1)]

    def test_attribution_prefers_nearest_preceding_start(self):
        occs = [occ(0, "r", 10, 17), occ(1, "r", 20, 27)]
        joins = temporal_join(occs, [("r", 21 * DAY, 0)], WINDOW)
        assert joins == [(occs[1], 0)]

    def test_attribution_tie_takes_lowest_pattern_id(self):
        occs = [occ(3, "r", 10, 17), occ(1, "r", 10, 14)]
        joins = temporal_join(occs, [("r", 12 * DAY, 0)], WINDOW)
        assert joins == [(occs[1], 0)]

    def test_repo_must_match(self):
        occs = [occ(0, "r1", 10, 17)]
        assert temporal_join(occs, [("r2", 12 * DAY, 0)], WINDOW) == []

    def test_each_pr_joined_at_most_once(self):
        occs = [occ(0, "r", 5, 9), occ(1, "r", 6, 10), occ(2, "r", 7, 11)]
        joins = temporal_join(occs, [("r", 8 * DAY, 4), ("r", 9 * DAY, 5)], WINDOW)
        # both start before the PRs; the latest start, pattern 2's, wins
        assert joins == [(occs[2], 4), (occs[2], 5)]

    def test_capa_range_checked(self):
        with pytest.raises(ValueError):
            temporal_join([occ(0, "r", 0, 5)], [("r", DAY, 7)], WINDOW)

    def test_class_to_action_id(self):
        assert capa_id_from_class(1) == 0
        assert capa_id_from_class(7) == 6


class TestContingency:
    def test_counts_and_totals(self):
        a, b = occ(0, "r", 1, 8), occ(1, "r", 9, 16)
        joins = [(a, 0), (a, 0), (a, 2), (b, 2)]
        t = build_contingency(joins)
        assert t.row_labels == (0, 1)
        assert t.col_labels == tuple(range(7))
        assert t.counts[0, 0] == 2
        assert t.counts[0, 2] == 1
        assert t.counts[1, 2] == 1
        assert t.grand_total == 4
        np.testing.assert_array_equal(t.row_totals, [3, 1])

    def test_reference_table_round_trip_and_totals(self):
        text = (DATA / "reference_capa_counts.csv").read_text()
        t = contingency_from_csv(text)
        assert t.row_labels == tuple(range(5, 15))
        assert list(t.row_totals) == [20, 6, 13, 12, 21, 20, 31, 43, 23, 28]
        assert list(t.col_totals) == [37, 49, 69, 10, 6, 35, 11]
        assert t.grand_total == 217
        again = contingency_from_csv(contingency_to_csv(t))
        np.testing.assert_array_equal(t.counts, again.counts)
        assert t.row_labels == again.row_labels

    def test_reference_table_chi2(self):
        t = contingency_from_csv((DATA / "reference_capa_counts.csv").read_text())
        r = chi2_independence(t.counts)
        assert r.statistic == pytest.approx(84.208, abs=0.01)
        assert r.dof == 54
        assert 0.005 <= r.p_value <= 0.012

    def test_csv_skips_comment_lines(self):
        t = contingency_from_csv(
            "# seed=7\nPattern type,CAPA 0,CAPA 1,Total\n"
            "Pattern 2,3,4,7\nTotal,3,4,7\n")
        assert t.row_labels == (2,)
        np.testing.assert_array_equal(t.counts, [[3, 4]])

    def test_table_without_joins_round_trips(self):
        t = build_contingency([])
        again = contingency_from_csv(contingency_to_csv(t))
        assert again.row_labels == () and again.counts.shape == (0, 7)

    @pytest.mark.parametrize("rows, cols, counts, why", [
        ((0,), (0, 1), [[5]], "shape"),
        ((0, 1), (0,), [[5], [-1]], "non-negative"),
        ((0, 0), (0,), [[5], [1]], "repeated labels"),
        ((0,), (3, 3), [[5, 1]], "repeated labels"),
    ])
    def test_bad_table_rejected(self, rows, cols, counts, why):
        with pytest.raises(ValueError, match=why):
            ContingencyTable(rows, cols, counts)


class TestFilterRelevant:
    def reference_table(self):
        return contingency_from_csv(
            (DATA / "reference_capa_counts.csv").read_text())

    def test_reference_filter(self):
        sets = filter_relevant(self.reference_table(), min_count=5)
        multi = {pt: s for pt, s in sets.items() if len(s) >= 2}
        assert set(multi) == {5, 9, 10, 11, 12, 13, 14}
        assert multi[11] == {1, 2, 5}
        assert multi[12] == {0, 1, 2, 5}
        pairs = qualifying_pairs(sets)
        assert len(pairs) == 14
        assert (12, 0, 2) in pairs
        assert (6, 0, 1) not in pairs  # pattern 6 has no count >= 5

    def test_min_count_boundary(self):
        t = ContingencyTable((1,), (0, 1), np.array([[5, 4]]))
        assert filter_relevant(t, 5) == {1: {0}}


class TestPairwise:
    def make_joins(self):
        # pattern 0: three occurrences, action 0 dominates action 1
        joins = []
        occurrence_caps = [
            [0, 0, 0, 1],   # fractions 0.75 / 0.25
            [0, 0, 1, 0],   # 0.75 / 0.25
            [0, 0, 0, 0, 1, 1],  # 0.667 / 0.333
        ]
        for k, caps in enumerate(occurrence_caps):
            joins += [(occ(0, "r", k * 10, k * 10 + 7), c) for c in caps]
        return joins

    def test_fraction_samples(self):
        samples = occurrence_fraction_samples(self.make_joins())
        assert samples[(0, 0)] == pytest.approx([0.75, 0.75, 2 / 3])
        assert samples[(0, 1)] == pytest.approx([0.25, 0.25, 1 / 3])
        assert samples[(0, 2)] == [0.0, 0.0, 0.0]

    def test_pairwise_on_samples(self):
        joins = self.make_joins()
        rows = pairwise_tests(joins, {0: {0, 1}})
        assert len(rows) == 1
        r = rows[0]
        assert list(r) == ["pattern", "capa_i", "capa_j", "mean_i", "mean_j",
                           "t", "dof", "p"]
        assert (r["pattern"], r["capa_i"], r["capa_j"]) == (0, 0, 1)
        assert r["mean_i"] > r["mean_j"]
        assert r["p"] < 0.01

    def test_insufficient_occurrences(self):
        joins = [(occ(0, "r", 0, 7), 0), (occ(0, "r", 0, 7), 1)]
        # one occurrence gives one sample per action: the pair is skipped
        assert pairwise_tests(joins, {0: {0, 1}}) == []
        # beside a pattern with enough occurrences, only that pair is skipped
        short = [(occ(1, "r", 0, 7), 0), (occ(1, "r", 0, 7), 1)]
        assert (pairwise_tests(self.make_joins() + short, {0: {0, 1}, 1: {0, 1}})
                == pairwise_tests(self.make_joins(), {0: {0, 1}}))

    def test_json_round_trip(self):
        rows = pairwise_tests(self.make_joins(), {0: {0, 1}})
        assert pairwise_from_json(json.loads(json.dumps({"tests": rows}))) == rows

    def test_constant_unequal_samples_write_null_t(self):
        # two occurrences, each joined by PRs with actions [0, 0, 1]: both
        # samples are constant and unequal, so Welch's t is infinite
        joins = [(occ(0, "r", start, start + 7), c)
                 for start in (0, 20) for c in (0, 0, 1)]
        rows = pairwise_tests(joins, filter_relevant(build_contingency(joins), 2))
        assert [(r["pattern"], r["capa_i"], r["capa_j"], r["t"], r["p"])
                for r in rows] == [(0, 0, 1, None, 0.0)]
        text = json.dumps({"tests": rows}, allow_nan=False)
        back = pairwise_from_json(json.loads(text))
        assert back == rows
        assert extract_mapping(back, 0.15)["tuples"] == [{"pattern": 0, "capa": 0}]

    def test_read_rows_keep_only_their_fields(self):
        # a published row may omit t and dof, and carry keys of its own
        rows = pairwise_from_json({"tests": [
            {"pattern": 1, "capa_i": 0, "capa_j": 2, "mean_i": 0.8,
             "mean_j": 0.2, "p": 0.01, "note": "from the paper"}]})
        assert rows == [{"pattern": 1, "capa_i": 0, "capa_j": 2, "mean_i": 0.8,
                         "mean_j": 0.2, "t": None, "dof": None, "p": 0.01}]


class TestExtractMapping:
    def reference_rows(self):
        doc = json.loads((DATA / "reference_pairwise.json").read_text())
        return pairwise_from_json(doc)

    @staticmethod
    def pairs(mapping):
        return [(t["pattern"], t["capa"]) for t in mapping["tuples"]]

    def test_reference_mapping_alpha_015(self):
        m = extract_mapping(self.reference_rows(), alpha=0.15)
        assert self.pairs(m) == [(5, 0), (11, 1), (12, 0), (13, 0), (14, 1)]

    def test_reference_mapping_alpha_005(self):
        m = extract_mapping(self.reference_rows(), alpha=0.05)
        assert self.pairs(m) == [(11, 1), (12, 0), (14, 1)]

    def test_order_invariant(self):
        rows = self.reference_rows()
        m1 = extract_mapping(rows, 0.15)
        m2 = extract_mapping(list(reversed(rows)), 0.15)
        assert m1 == m2

    def test_dominance_must_cover_every_pair(self):
        # action 0 beats 1 but not 2: no mapping
        rows = pairwise_from_json({"tests": [
            {"pattern": 1, "capa_i": 0, "capa_j": 1,
             "mean_i": 0.8, "mean_j": 0.2, "p": 0.01},
            {"pattern": 1, "capa_i": 0, "capa_j": 2,
             "mean_i": 0.8, "mean_j": 0.5, "p": 0.40},
            {"pattern": 1, "capa_i": 1, "capa_j": 2,
             "mean_i": 0.2, "mean_j": 0.5, "p": 0.05},
        ]})
        assert extract_mapping(rows, 0.15) == {"alpha": 0.15, "tuples": []}

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            extract_mapping([], 0.0)

    def test_mapping_json(self):
        # the mapping is the mapping.json document, less its meta
        doc = extract_mapping(self.reference_rows(), 0.15)
        assert list(doc) == ["alpha", "tuples"] and doc["alpha"] == 0.15
        assert all(list(t) == ["pattern", "capa"] for t in doc["tuples"])
        assert {"pattern": 11, "capa": 1} in doc["tuples"]
