import json
import math

import numpy as np
import pytest

from capaminer.errors import EmptyDataset, MetricMismatch, NoValidWindow
from capaminer.mining import (
    ConsensusPattern,
    MiningConfig,
    RepoCoverage,
    consensus_candidate,
    count_matches,
    greedy_matches,
    mine_patterns,
    occurrence_from_json_line,
    occurrence_to_json_line,
    patterns_from_json,
    patterns_to_json,
)
from capaminer.tsdist import MetricSeries, distance_profile

from conftest import (
    naive_consensus,
    naive_exhaustive_patterns,
    naive_greedy_matches,
    naive_self_consensus,
)


def make_series(rng, repo, n, metric="lines_changed"):
    ts = np.arange(n) * 86400.0
    return MetricSeries(repo, metric, ts, rng.normal(10, 3, n))


def with_plateau(rng, series, m):
    """Copy of series with a constant run of m + 2 points, so three of its
    windows are constant (invalid)."""
    vals = series.values.copy()
    start = int(rng.integers(0, len(vals) - m - 1))
    vals[start : start + m + 2] = vals[start]
    return MetricSeries(series.repo_id, series.metric_name,
                        series.timestamps, vals)


class TestRepoCoverage:
    def test_fraction_resolves_with_ceiling(self):
        cov = RepoCoverage("min", 0.5)
        assert cov.threshold(8) == 4
        assert cov.threshold(7) == 4
        assert cov.threshold(1) == 1

    def test_integer_count_used_directly(self):
        cov = RepoCoverage("min", 3.0)
        assert cov.threshold(100) == 3
        assert cov.accepts(3, 100)
        assert not cov.accepts(2, 100)

    def test_max_literal_is_strictly_below(self):
        cov = RepoCoverage("max_literal", 3.0)
        assert cov.accepts(2, 10)
        assert not cov.accepts(3, 10)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            RepoCoverage("between", 1)
        with pytest.raises(ValueError):
            RepoCoverage("min", 0)


class TestConsensusCandidate:
    def test_matches_exhaustive_oracle(self, rng):
        for trial in range(20):
            k = int(rng.integers(2, 5))
            series = [make_series(rng, f"r{i}", int(rng.integers(12, 30)))
                      for i in range(k)]
            m = int(rng.integers(3, 8))
            cand = consensus_candidate(series, m)
            radius, si, off = naive_consensus(series, m)
            assert cand.source_repo == series[si].repo_id
            assert cand.source_offset == off
            assert cand.radius == pytest.approx(radius, abs=1e-6)

    def test_single_series_uses_exclusion_zone(self, rng):
        for _ in range(10):
            s = make_series(rng, "r0", int(rng.integers(15, 40)))
            m = int(rng.integers(3, 7))
            cand = consensus_candidate([s], m)
            radius, off = naive_self_consensus(s, m)
            assert cand.source_offset == off
            assert cand.radius == pytest.approx(radius, abs=1e-6)

    def test_plateaus_match_oracles(self, rng):
        # constant windows are skipped both as candidates and as targets;
        # only one series gets a plateau, because the plateau's edge windows
        # have the same shape in every series and would tie
        for _ in range(10):
            m = int(rng.integers(3, 7))
            s = make_series(rng, "r0", int(rng.integers(20, 40)))
            s = with_plateau(rng, s, m)
            cand = consensus_candidate([s], m)
            radius, off = naive_self_consensus(s, m)
            assert cand.source_offset == off
            assert cand.radius == pytest.approx(radius, abs=1e-6)

            series = [make_series(rng, f"r{i}", int(rng.integers(m + 12, 30)))
                      for i in range(int(rng.integers(2, 5)))]
            k = int(rng.integers(len(series)))
            series[k] = with_plateau(rng, series[k], m)
            cand = consensus_candidate(series, m)
            radius, si, off = naive_consensus(series, m)
            assert cand.source_repo == series[si].repo_id
            assert cand.source_offset == off
            assert cand.radius == pytest.approx(radius, abs=1e-6)

    def test_affine_copy_has_radius_near_zero(self, rng):
        m = 8
        a = make_series(rng, "r0", 40)
        vals = rng.normal(10, 3, 50)
        vals[21 : 21 + m] = 2.5 * a.values[7 : 7 + m] + 4.0
        b = MetricSeries("r1", "lines_changed", np.arange(50) * 86400.0, vals)
        cand = consensus_candidate([a, b], m)
        assert (cand.source_repo, cand.source_offset) in {("r0", 7), ("r1", 21)}
        assert cand.radius <= 1e-6

    def test_planted_shape_wins(self, rng):
        shape = 50 * np.sin(np.linspace(0, 2 * np.pi, 6))
        series = []
        offsets = [4, 10, 17]
        for i, o in enumerate(offsets):
            vals = rng.normal(10, 1, 30)
            vals[o : o + 6] += shape
            series.append(MetricSeries(f"r{i}", "m", np.arange(30.0), vals))
        cand = consensus_candidate(series, 6)
        si = [s.repo_id for s in series].index(cand.source_repo)
        # the shape is zero at both ends, so a one-step shift matches too
        assert abs(cand.source_offset - offsets[si]) <= 1

    def test_too_short_series_rejected(self, rng):
        with pytest.raises(ValueError):
            consensus_candidate([make_series(rng, "r0", 5)], 6)

    def test_all_constant_raises(self):
        s = MetricSeries("r0", "m", np.arange(6.0), np.full(6, 3.0))
        with pytest.raises(NoValidWindow):
            consensus_candidate([s], 3)


class TestGreedyMatches:
    def test_spec_example(self):
        t = np.array([0.0, 1.0, 0.0, 5.0, 0.0, 1.0, 0.0])
        dp = distance_profile([0.0, 1.0, 0.0], t)
        out = greedy_matches(dp, 0.1)
        assert sorted(off for off, _ in out) == [0, 4]

    def test_matches_naive(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 60))
            m = int(rng.integers(2, 6))
            t = rng.normal(size=n)
            q = rng.normal(size=m)
            dp = distance_profile(q, t)
            tau = float(rng.uniform(0.5, 3.0))
            got = [off for off, _ in greedy_matches(dp, tau)]
            assert got == naive_greedy_matches(dp.distances, m, tau)

    def test_no_overlap(self, rng):
        t = rng.normal(size=80)
        q = rng.normal(size=5)
        dp = distance_profile(q, t)
        offs = sorted(off for off, _ in greedy_matches(dp, 4.0))
        assert all(b - a >= 5 for a, b in zip(offs, offs[1:]))

    def test_count_monotone_in_tau(self, rng):
        t = rng.normal(size=100)
        q = rng.normal(size=4)
        dp = distance_profile(q, t)
        counts = [len(greedy_matches(dp, tau)) for tau in (0.5, 1.0, 2.0, 4.0)]
        assert counts == sorted(counts)


class TestCountMatches:
    def test_offsets_and_times(self):
        s = MetricSeries("r", "m", np.arange(7.0) * 100,
                         [0.0, 1.0, 0.0, 5.0, 0.0, 1.0, 0.0])
        p = ConsensusPattern(3, np.array([0.0, 1.0, 0.0]), "m", "src", 0, 0.0)
        n, occs = count_matches(p, s, 0.1)
        assert n == 2
        assert {o.start_index for o in occs} == {0, 4}
        first = min(occs, key=lambda o: o.start_index)
        assert first.pattern_id == 3
        assert first.end_index == 2
        assert first.start_time == 0.0
        assert first.end_time == 200.0

    def test_series_shorter_than_pattern(self):
        s = MetricSeries("r", "m", [0.0, 1.0], [1.0, 2.0])
        p = ConsensusPattern(0, np.array([0.0, 1.0, 2.0]), "m", "src", 0, 0.0)
        with pytest.raises(ValueError):
            count_matches(p, s, 1.0)


class TestMinePatterns:
    def planted_dataset(self, rng, n_repos=5, planted=4):
        shape = 40 * np.sin(np.linspace(0, 2 * np.pi, 8))
        series = []
        for i in range(n_repos):
            vals = np.abs(rng.normal(20, 4, 60))
            if i < planted:
                for start in (10, 35):
                    vals[start : start + 8] += shape
            series.append(MetricSeries(f"r{i}", "m", np.arange(60.0), vals))
        return series

    def test_recovers_planted_pattern(self, rng):
        dataset = self.planted_dataset(rng)
        tau = 0.25 * 2 * math.sqrt(8)
        cfg = MiningConfig(8, 8, tau, repo_coverage=RepoCoverage("min", 0.5))
        pats = mine_patterns(dataset, cfg)
        assert len(pats) == 1
        occs = pats[0].occurrences
        # every planted repo should match once per planted interval; the
        # matched window may sit shifted but must overlap the plant
        for r in range(4):
            for lo, hi in ((10, 17), (35, 42)):
                hits = [o for o in occs if o.repo_id == f"r{r}"
                        and o.start_index <= hi and o.end_index >= lo]
                assert hits, f"r{r} missed plant at [{lo}, {hi}]"

    def test_sequential_ids_and_determinism(self, rng):
        dataset = self.planted_dataset(rng)
        cfg = MiningConfig(6, 9, 2.0, repo_coverage=RepoCoverage("min", 0.5))
        a = mine_patterns(dataset, cfg)
        b = mine_patterns(dataset, cfg)
        assert [p.pattern_id for p in a] == list(range(len(a)))
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.source_repo == pb.source_repo
            assert pa.source_offset == pb.source_offset
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_occurrences_equal_count_matches(self, rng):
        dataset = self.planted_dataset(rng)
        # too short for lengths 8 and 9, so not every series is eligible
        dataset.insert(2, make_series(rng, "r9", 7, metric="m"))
        cfg = MiningConfig(6, 9, 2.0, repo_coverage=RepoCoverage("min", 0.5))
        pats = mine_patterns(dataset, cfg, first_id=3)
        assert pats
        assert [p.pattern_id for p in pats] == list(range(3, 3 + len(pats)))
        for p in pats:
            expected = [o for s in dataset if len(s) >= len(p)
                        for o in count_matches(p, s, cfg.match_threshold)[1]]
            assert list(p.occurrences) == expected

    def test_exhaustive_superset_of_consensus(self, rng):
        dataset = self.planted_dataset(rng, n_repos=3, planted=3)
        tau = 0.25 * 2 * math.sqrt(8)
        cfg = MiningConfig(8, 8, tau, repo_coverage=RepoCoverage("min", 0.5))
        con = mine_patterns(dataset, cfg)
        con_keys = {(p.source_repo, p.source_offset, len(p)) for p in con}
        assert con_keys
        assert con_keys <= naive_exhaustive_patterns(dataset, cfg)

    def test_coverage_rule_counts_repos_not_series(self, rng):
        # two series of the same repo both matching still cover one repo
        vals = np.array([0.0, 1.0, 0.0, 5.0, 0.0, 1.0, 0.0, 9.0])
        s1 = MetricSeries("r0", "m", np.arange(8.0), vals)
        s2 = MetricSeries("r0", "m", np.arange(8.0), vals + 3)
        other = make_series(rng, "r1", 8, metric="m")
        cfg = MiningConfig(3, 3, 0.1, repo_coverage=RepoCoverage("min", 2.0))
        keys = naive_exhaustive_patterns([s1, s2, other], cfg)
        spikes = [k for k in keys if k[:2] in (("r0", 0), ("r0", 4))]
        assert not spikes  # only r0 is covered, threshold asks for 2 repos
        # every window of s1 matches itself and its copy s2: two series, one repo
        assert not mine_patterns([s1, s2], cfg)
        one = MiningConfig(3, 3, 0.1, repo_coverage=RepoCoverage("min", 1.0))
        assert len(mine_patterns([s1, s2], one)) == 1

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            mine_patterns([], MiningConfig(3, 3, 1.0))

    def test_mixed_metrics_rejected(self, rng):
        a = make_series(rng, "r0", 20, metric="lines_added")
        b = make_series(rng, "r1", 20, metric="lines_deleted")
        with pytest.raises(MetricMismatch):
            mine_patterns([a, b], MiningConfig(3, 3, 1.0))


class TestSerialization:
    def test_patterns_round_trip(self, rng):
        pats = [ConsensusPattern(i, rng.normal(size=6), "m", f"r{i}", i * 2,
                                 float(rng.uniform(0, 2))) for i in range(3)]
        doc = json.loads(json.dumps(patterns_to_json(pats)))
        back = patterns_from_json(doc)
        assert len(back) == 3
        for p, q in zip(pats, back):
            assert (p.pattern_id, p.metric_name, p.source_repo,
                    p.source_offset) == (q.pattern_id, q.metric_name,
                                         q.source_repo, q.source_offset)
            np.testing.assert_allclose(p.values, q.values)
            assert p.radius == pytest.approx(q.radius)

    def test_occurrence_round_trip(self):
        from capaminer.mining import PatternOccurrence

        occ = PatternOccurrence(2, "org/repo1", 5, 12,
                                1_600_000_000.0, 1_600_604_800.0, 1.25)
        back = occurrence_from_json_line(occurrence_to_json_line(occ))
        assert back == occ
