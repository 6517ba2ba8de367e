import json
import math
from dataclasses import replace

import numpy as np
import pytest

from capaminer import mining
from capaminer.errors import EmptyDataset, NoValidWindow
from capaminer.mining import (
    ConsensusPattern,
    MiningConfig,
    consensus_candidate,
    count_matches,
    greedy_matches,
    mine_patterns,
    occurrence_from_json,
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


def planted_shape_series(rng, offsets, n):
    """One noisy series per offset, with a length-6 sine cycle of amplitude
    50 planted at that offset."""
    shape = 50 * np.sin(np.linspace(0, 2 * np.pi, 6))
    series = []
    for i, o in enumerate(offsets):
        vals = rng.normal(10, 1, n)
        vals[o : o + 6] += shape
        series.append(MetricSeries(f"r{i}", "m", np.arange(float(n)), vals))
    return series


SPIKES = np.array([0.0, 1.0, 0.0, 5.0, 0.0, 1.0, 0.0, 9.0])


def spike_dataset(n_covered, n_repos):
    """n_covered repos holding the same spike series, which every length-3
    candidate matches, and the other repos a series too short to match."""
    return [MetricSeries(f"r{i}", "m", np.arange(8.0), SPIKES)
            if i < n_covered else
            MetricSeries(f"r{i}", "m", [0.0, 1.0], [1.0, 2.0])
            for i in range(n_repos)]


def accepted(n_covered, n_repos, fraction):
    cfg = MiningConfig(3, 3, 0.1, min_repo_fraction=fraction)
    return len(mine_patterns(spike_dataset(n_covered, n_repos), cfg))


class TestCoverageRule:
    def test_fraction_resolves_with_ceiling(self):
        assert accepted(4, 8, 0.5) == 1
        assert accepted(3, 8, 0.5) == 0
        assert accepted(4, 7, 0.5) == 1  # ceil(3.5) = 4
        assert accepted(3, 7, 0.5) == 0
        assert accepted(1, 1, 0.5) == 1
        # ceil(0.28 * 25) is 8 in floating point; 7 of 25 repos is 0.28
        assert accepted(7, 25, 0.28) == 1
        assert accepted(7, 25, 0.29) == 0

    def test_integer_is_a_fraction_too(self):
        # 1 means every repository, as 1.0 does
        for fraction in (1, 1.0):
            assert accepted(3, 3, fraction) == 1
            assert accepted(2, 3, fraction) == 0

    def test_rejects_bad_args(self):
        for fraction in (0, -0.5, 1.5, 2, float("nan")):
            with pytest.raises(ValueError):
                MiningConfig(3, 3, 0.1, min_repo_fraction=fraction)
        with pytest.raises(ValueError):
            MiningConfig(1, 3, 0.1)

    @pytest.mark.parametrize("args, field", [
        ((8.5, 9, 1.0), "min_len"),
        ((8, 8, float("nan")), "match_threshold"),
        ((True, 8, 1.0), "min_len"),
        ((8, 7, 1.0), "max_len"),
    ])
    def test_bad_field_is_named(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            MiningConfig(*args)


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
        assert cand.radius <= 1e-9  # the direct norm keeps precision near 0

    def test_near_copy_radius_is_direct_norm(self, rng):
        # a copy perturbed by 1e-6 has a radius near 3e-7, where the dot
        # form is off by about 4e-9
        m = 8
        a = make_series(rng, "r0", 40)
        vals = rng.normal(10, 3, 50)
        vals[21 : 21 + m] = (2.5 * a.values[7 : 7 + m] + 4.0
                             + 1e-6 * rng.normal(size=m))
        b = MetricSeries("r1", "lines_changed", np.arange(50) * 86400.0, vals)
        cand = consensus_candidate([a, b], m)
        radius, si, off = naive_consensus([a, b], m)
        assert (si, off) == (0, 7)
        assert (cand.source_repo, cand.source_offset) == ("r0", 7)
        assert abs(cand.radius - radius) <= 1e-12

    def test_duplicated_series_tie_to_lowest(self, rng):
        # a window and its exact copy have equal radii: the earlier series
        # wins, whichever rows the pruned products held
        for _ in range(4):
            m = int(rng.integers(3, 8))
            a = make_series(rng, "r0", int(rng.integers(m + 10, 30)))
            copy = MetricSeries("r1", a.metric_name, a.timestamps, a.values)
            c = make_series(rng, "r2", int(rng.integers(m + 10, 30)))
            for series in ([a, copy, c], [c, a, copy], [a, c, copy]):
                cand = consensus_candidate(series, m)
                radius, si, off = naive_consensus(series, m)
                assert cand.source_repo == series[si].repo_id
                assert cand.source_offset == off
                assert cand.radius == pytest.approx(radius, abs=1e-9)

    def test_constant_other_series_leaves_no_window(self, rng):
        flat = MetricSeries("rc", "m", np.arange(30.0), np.full(30, 3.0))
        a = make_series(rng, "r0", 30, metric="m")
        b = make_series(rng, "r1", 30, metric="m")
        for series in ([a, flat], [flat, a], [a, b, flat], [a, flat, b]):
            assert naive_consensus(series, 5) is None
            with pytest.raises(NoValidWindow):
                consensus_candidate(series, 5)
        assert mine_patterns([a, b, flat], MiningConfig(5, 5, 10.0)) == []

    def test_abandonment_scores_fewer_rows(self, rng, monkeypatch):
        series = planted_shape_series(rng, [4, 10, 17, 21, 8], n=30)
        m = 6
        rows = []
        nearest = mining._nearest_distance

        def counted(z, other, m, excl=0):
            rows.append(len(z))
            return nearest(z, other, m, excl)

        monkeypatch.setattr(mining, "_nearest_distance", counted)
        cand = consensus_candidate(series, m)
        exhaustive = sum((len(s) - m + 1) * (len(series) - 1) for s in series)
        assert sum(rows) < exhaustive / 2
        radius, si, off = naive_consensus(series, m)
        assert (cand.source_repo, cand.source_offset) == (series[si].repo_id, off)
        assert cand.radius == pytest.approx(radius, abs=1e-9)

    def test_planted_shape_wins(self, rng):
        offsets = [4, 10, 17]
        series = planted_shape_series(rng, offsets, n=30)
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
        out = greedy_matches(dp, 3, 0.1)
        assert sorted(off for off, _ in out) == [0, 4]

    def test_matches_naive(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 60))
            m = int(rng.integers(2, 6))
            t = rng.normal(size=n)
            q = rng.normal(size=m)
            dp = distance_profile(q, t)
            tau = float(rng.uniform(0.5, 3.0))
            got = [off for off, _ in greedy_matches(dp, m, tau)]
            assert got == naive_greedy_matches(dp, m, tau)

    def test_no_overlap(self, rng):
        t = rng.normal(size=80)
        q = rng.normal(size=5)
        dp = distance_profile(q, t)
        offs = sorted(off for off, _ in greedy_matches(dp, 5, 4.0))
        assert all(b - a >= 5 for a, b in zip(offs, offs[1:]))

    def test_count_monotone_in_tau(self, rng):
        t = rng.normal(size=100)
        q = rng.normal(size=4)
        dp = distance_profile(q, t)
        counts = [len(greedy_matches(dp, 4, tau)) for tau in (0.5, 1.0, 2.0, 4.0)]
        assert counts == sorted(counts)


class TestCountMatches:
    def test_offsets_and_times(self):
        s = MetricSeries("r", "m", np.arange(7.0) * 100,
                         [0.0, 1.0, 0.0, 5.0, 0.0, 1.0, 0.0])
        p = ConsensusPattern(3, np.array([0.0, 1.0, 0.0]), "m", "src", 0, 0.0)
        occs = count_matches(p, s, 0.1)
        assert len(occs) == 2
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
        cfg = MiningConfig(8, 8, tau)
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
        cfg = MiningConfig(6, 9, 2.0)
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
        cfg = MiningConfig(6, 9, 2.0)
        pats = mine_patterns(dataset, cfg)
        assert pats
        assert [p.pattern_id for p in pats] == list(range(len(pats)))
        for p in pats:
            expected = [o for s in dataset if len(s) >= len(p)
                        for o in count_matches(p, s, cfg.match_threshold)]
            assert list(p.occurrences) == expected

    def test_exhaustive_superset_of_consensus(self, rng):
        dataset = self.planted_dataset(rng, n_repos=3, planted=3)
        tau = 0.25 * 2 * math.sqrt(8)
        cfg = MiningConfig(8, 8, tau)
        con = mine_patterns(dataset, cfg)
        con_keys = {(p.source_repo, p.source_offset, len(p)) for p in con}
        assert con_keys
        assert con_keys <= naive_exhaustive_patterns(dataset, cfg)

    def test_coverage_rule_counts_repos_not_series(self, rng):
        # two series of the same repo both matching still cover one repo
        s1 = MetricSeries("r0", "m", np.arange(8.0), SPIKES)
        s2 = MetricSeries("r0", "m", np.arange(8.0), SPIKES + 3)
        other = make_series(rng, "r1", 8, metric="m")
        cfg = MiningConfig(3, 3, 0.1, min_repo_fraction=1.0)
        keys = naive_exhaustive_patterns([s1, s2, other], cfg)
        spikes = [k for k in keys if k[:2] in (("r0", 0), ("r0", 4))]
        assert not spikes  # only r0 is covered, the rule asks for both repos
        # every window of s1 matches itself and its copy s2: two series, one
        # repo, out of two repos (r1's series is too short to match)
        short = MetricSeries("r1", "m", [0.0, 1.0], [1.0, 2.0])
        assert not mine_patterns([s1, s2, short], cfg)
        half = MiningConfig(3, 3, 0.1, min_repo_fraction=0.5)
        assert len(mine_patterns([s1, s2, short], half)) == 1

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            mine_patterns([], MiningConfig(3, 3, 1.0))

    def test_mixed_metrics_equal_per_metric_calls(self, rng):
        # metric "b" appears first, in two of the six repositories, so its
        # coverage counts those two and not all six
        m = self.planted_dataset(rng)
        b = [replace(s, metric_name="b", values=s.values[::-1].copy())
             for s in self.planted_dataset(rng, n_repos=2, planted=2)]
        dataset = [b[0], *m[:3], b[1], *m[3:],
                   make_series(rng, "r5", 60, metric="m")]
        cfg = MiningConfig(6, 9, 2.0)
        # oracle: one call per metric, in order of first appearance, with
        # the ids of each offset by the patterns of the metrics before it
        expected = []
        for metric in ("b", "m"):
            for p in mine_patterns([s for s in dataset if s.metric_name == metric], cfg):
                pid = len(expected)
                expected.append(replace(p, pattern_id=pid, occurrences=tuple(
                    replace(o, pattern_id=pid) for o in p.occurrences)))
        got = mine_patterns(dataset, cfg)
        assert {p.metric_name for p in got} == {"b", "m"}
        assert len(got) == len(expected)
        for p, q in zip(got, expected):
            assert (p.pattern_id, p.metric_name, p.source_repo, p.source_offset,
                    p.radius, p.occurrences) == \
                (q.pattern_id, q.metric_name, q.source_repo, q.source_offset,
                 q.radius, q.occurrences)
            np.testing.assert_array_equal(p.values, q.values)


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
        back = occurrence_from_json(json.loads(occurrence_to_json_line(occ)))
        assert back == occ
