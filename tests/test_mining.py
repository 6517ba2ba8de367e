import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capaminer import mining
from capaminer.cli import OCCURRENCE_FIELDS
from capaminer.errors import EmptyDataset, NoValidWindow, need
from capaminer.mining import (
    ConsensusPattern,
    MiningConfig,
    consensus_candidate,
    count_matches,
    greedy_matches,
    mine_patterns,
    patterns_to_json,
)
from capaminer.timeutil import from_rfc3339, to_rfc3339
from capaminer.tsdist import MetricSeries, direct_distances, distance_profile, float32_dot_bound

from conftest import (
    naive_consensus,
    naive_consensus_radii,
    naive_exhaustive_patterns,
    naive_first_minimum,
    naive_greedy_matches,
    naive_self_consensus,
    naive_self_consensus_radii,
    random_and_tiled_windows,
)

ROOT = Path(__file__).resolve().parent.parent


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


NOTHING_TO_COMPARE = "^no non-constant window has a non-constant window to compare with"

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
            with pytest.raises(NoValidWindow, match=NOTHING_TO_COMPARE):
                consensus_candidate(series, 5)
        assert mine_patterns([a, b, flat], MiningConfig(5, 5, 10.0)) == []

    def test_abandonment_scores_fewer_rows(self, rng, monkeypatch):
        series = planted_shape_series(rng, [4, 10, 17, 21, 8], n=30)
        m = 6
        rows = []
        nearest = mining._max_dots

        def counted(q, offsets, other, other_offsets, excl):
            rows.append(len(q))
            return nearest(q, offsets, other, other_offsets, excl)

        monkeypatch.setattr(mining, "_max_dots", counted)
        cand = consensus_candidate(series, m)
        exhaustive = sum((len(s) - m + 1) * (len(series) - 1) for s in series)
        assert sum(rows) < exhaustive / 2
        radius, si, off = naive_consensus(series, m)
        assert (cand.source_repo, cand.source_offset) == (series[si].repo_id, off)
        assert cand.radius == pytest.approx(radius, abs=1e-9)

    def test_radius_bounds_bracket_the_direct_norm(self, rng):
        # _radius of _max_dots, the float32 ranking, with -+ float32_dot_bound
        # brackets the nearest direct distance, 0 for the tiled windows' copies
        for m in range(2, 65):
            windows = list(random_and_tiled_windows(rng, m, m + 40))
            for q, other in [(a, b) for a in windows for b in windows]:
                top = mining._max_dots(q.astype(np.float32), np.arange(len(q)),
                                       other.astype(np.float32), np.arange(len(other)), 0)
                nearest = [np.min(direct_distances(row, (other, np.ones(len(other), bool))))
                           for row in q]
                delta = float32_dot_bound(m)
                assert np.all(mining._radius(top, m, delta) <= nearest)
                assert np.all(nearest <= mining._radius(top, m, -delta))

    def test_ties_resolve_alike_at_one_and_two_blas_threads(self):
        # identical planted windows have equal radii, 0, in every series and
        # twice in each: the lowest (series, offset) wins, and the series are
        # long enough that every product runs in several blocks
        script = """if True:
            import json
            import numpy as np
            from capaminer.mining import MiningConfig, consensus_candidate, mine_patterns
            from capaminer.tsdist import MetricSeries

            rng = np.random.default_rng(5)
            base = rng.normal(10, 3, 15)
            series = []
            for i in range(6):
                vals = rng.normal(10, 3, 500)
                for at in (40 + 7 * i, 300 - 11 * i):
                    vals[at : at + 15] = base
                series.append(MetricSeries(f"r{i}", "m", np.arange(500.0), vals))
            cands = [consensus_candidate(s, m) for m in (8, 11) for s in (series, series[2:3])]
            pats = mine_patterns(series, MiningConfig(8, 12, 0.5))
            print(json.dumps([[c.source_repo, c.source_offset, c.radius.hex()] for c in cands]
                             + [[p.pattern_id, p.source_repo, p.source_offset, p.radius.hex(),
                                 len(p.occurrences)] for p in pats]))
        """
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
            child = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, check=True)
            outs.append(json.loads(child.stdout))
        assert outs[0] == outs[1]
        zero = (0.0).hex()
        assert outs[0][:4] == [["r0", 40, zero], ["r2", 54, zero]] * 2
        assert outs[0][4:] == [[m - 8, "r0", 40, zero, 12] for m in range(8, 13)]

    @given(st.data())
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    def test_seed_never_wins(self, data):
        # any window as the seed: the same winner, bit for bit, as with none
        series, m = data.draw(series_sets())
        si = data.draw(st.integers(0, len(series) - 1))
        seed = (si, data.draw(st.integers(0, len(series[si]) - m)))
        try:
            plain = consensus_candidate(series, m)
        except NoValidWindow:
            with pytest.raises(NoValidWindow):
                consensus_candidate(series, m, None, seed)
            return
        seeded = consensus_candidate(series, m, None, seed)
        assert (seeded.pattern_id, seeded.source_repo, seeded.source_offset,
                seeded.radius.hex()) == \
            (plain.pattern_id, plain.source_repo, plain.source_offset, plain.radius.hex())

    def test_seed_outside_the_windows_rejected(self, rng):
        series = [make_series(rng, "r0", 20), make_series(rng, "r1", 12)]
        for seed in ((1, 8), (1, -1), (2, 0), (-1, 0)):
            with pytest.raises(ValueError, match="is not a length-5 window of the series"):
                consensus_candidate(series, 5, None, seed)

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
        with pytest.raises(NoValidWindow, match=NOTHING_TO_COMPARE):
            consensus_candidate([s], 3)
        # not constant, but every other window lies within the ceil(4/2)
        # offsets of the trivial-match zone
        s = MetricSeries("r", "m", np.arange(5.0), [1.0, 4.0, 2.0, 8.0, 3.0])
        assert naive_self_consensus(s, 4) is None
        with pytest.raises(NoValidWindow, match=NOTHING_TO_COMPARE):
            consensus_candidate([s], 4)


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
        assert {o["start_index"] for o in occs} == {0, 4}
        first = min(occs, key=lambda o: o["start_index"])
        assert (first["pattern_id"], first["repo"], first["end_index"]) == (3, "r", 2)
        assert (first["start_time"], first["end_time"]) == \
            ("1970-01-01T00:00:00Z", "1970-01-01T00:03:20Z")

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
                hits = [o for o in occs if o["repo"] == f"r{r}"
                        and o["start_index"] <= hi and o["end_index"] >= lo]
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

    def test_lengths_stop_at_the_longest_series(self, rng, monkeypatch):
        dataset = [make_series(rng, f"r{i}", n, metric="m")
                   for i, n in enumerate((9, 12, 11, 12))]
        lengths = []

        def recorded(series, m, *args):
            lengths.append(m)
            return consensus_candidate(series, m, *args)

        monkeypatch.setattr(mining, "consensus_candidate", recorded)
        longest = mine_patterns(dataset, MiningConfig(8, 12, 3.0))
        past = mine_patterns(dataset, MiningConfig(8, 12 + 50, 3.0))
        assert lengths and max(lengths) == 12
        assert [(p.pattern_id, p.source_repo, p.source_offset, p.radius, len(p),
                 p.occurrences) for p in past] == \
            [(p.pattern_id, p.source_repo, p.source_offset, p.radius, len(p),
              p.occurrences) for p in longest]

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
                    {**o, "pattern_id": pid} for o in p.occurrences)))
        got = mine_patterns(dataset, cfg)
        assert {p.metric_name for p in got} == {"b", "m"}
        assert len(got) == len(expected)
        for p, q in zip(got, expected):
            assert (p.pattern_id, p.metric_name, p.source_repo, p.source_offset,
                    p.radius, p.occurrences) == \
                (q.pattern_id, q.metric_name, q.source_repo, q.source_offset,
                 q.radius, q.occurrences)
            np.testing.assert_array_equal(p.values, q.values)


@st.composite
def series_sets(draw):
    """(series, m) for the kernel oracles: m in 3..7 and 1 to 4 series of
    length m + 4 to 24, each of continuous, integer or one-decimal values,
    a constant, or adjacent floats at 1.0, maybe with a plateau of m + 2
    points, and maybe with a window that is an exact or a power-of-two
    affine copy of a window of itself or an earlier one.  Adjacent floats
    are constant within EPS_VAR at 1.0; at larger offsets the oracles'
    one-pass centring could not resolve them (see test_tsdist)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 7))
    series = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(m + 4, 24))
        kind = draw(st.sampled_from(4 * ["continuous"] + 3 * ["integer", "decimal"]
                                    + ["constant", "adjacent"]))
        if kind == "continuous":
            vals = rng.normal(10, 3, n)
        elif kind == "integer":
            vals = rng.integers(0, draw(st.integers(2, 5)), size=n).astype(float)
        elif kind == "decimal":
            vals = np.round(rng.normal(0, 2, n), 1)
        elif kind == "constant":
            vals = np.full(n, 3.0)
        else:
            vals = 1.0 + 2.0 ** -52 * rng.integers(0, 4, size=n)
        if draw(st.booleans()):
            start = draw(st.integers(0, n - m - 2))
            vals[start : start + m + 2] = vals[start]
        if draw(st.booleans()):
            src = vals if not series or draw(st.booleans()) else \
                draw(st.sampled_from(series)).values
            a = 2.0 ** draw(st.integers(-3, 3)) if draw(st.booleans()) else 1.0
            b = draw(st.integers(-8, 8)) if a != 1.0 else 0.0
            j = draw(st.integers(0, len(src) - m))
            at = draw(st.integers(0, n - m))
            vals[at : at + m] = a * src[j : j + m] + b
        series.append(MetricSeries(f"r{i}", "m", np.arange(float(n)), vals))
    return series, m


class TestKernelOracles:
    """consensus_candidate and mine_patterns on generated series against
    the exhaustive naive oracles."""

    @given(series_sets())
    @settings(derandomize=True, deadline=None, database=None, max_examples=250)
    def test_consensus_candidate(self, drawn):
        series, m = drawn
        if len(series) == 1:
            radii = [(r, 0, off) for r, off in naive_self_consensus_radii(series[0], m)]
        else:
            radii = naive_consensus_radii(series, m)
        if not radii:
            with pytest.raises(NoValidWindow):
                consensus_candidate(series, m)
            return
        cand = consensus_candidate(series, m)
        # naive_consensus, or naive_self_consensus, of the radii
        radius, si, off = naive_first_minimum(radii)
        assert abs(cand.radius - radius) <= 1e-9
        # the lowest (series, offset) wins a tie, but a tie within rounding
        # may go either way
        ranked = sorted(r for r, *_ in radii)
        if len(ranked) == 1 or ranked[1] - radius > 1e-9:
            assert (cand.source_repo, cand.source_offset) == (series[si].repo_id, off)

    @given(series_sets(), st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.integers(0, 2), st.floats(0.05, 1.0), st.sampled_from([0.25, 0.5, 1.0]))
    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    def test_mine_patterns_accepts_exhaustive_windows(self, drawn, repos, extra, share,
                                                      fraction):
        # coverage counts repositories, and two series may share one
        series, m = drawn
        series = [replace(s, repo_id=f"r{r}") for s, r in zip(series, repos)]
        cfg = MiningConfig(m, m + extra, share * 2 * math.sqrt(m), fraction)
        accepted = {(p.source_repo, p.source_offset, len(p))
                    for p in mine_patterns(series, cfg)}
        assert accepted <= naive_exhaustive_patterns(series, cfg)


class TestSerialization:
    def test_patterns_document(self, rng):
        pats = [ConsensusPattern(i, rng.normal(size=6), "m", f"r{i}", i * 2,
                                 float(rng.uniform(0, 2))) for i in range(3)]
        doc = json.loads(json.dumps(patterns_to_json(pats)))
        assert [(e["pattern_id"], e["metric"], e["length"], e["source"], e["radius"])
                for e in doc["patterns"]] == \
            [(p.pattern_id, "m", 6, {"repo": p.source_repo, "offset": p.source_offset},
              p.radius) for p in pats]
        for p, e in zip(pats, doc["patterns"]):
            assert e["values"] == p.values.tolist()

    def test_count_matches_rows_are_occurrence_lines(self, rng):
        # each row is the occurrences.jsonl line that cmd_mine writes, with
        # the series timestamps in RFC 3339
        s = make_series(rng, "org/repo1", 40)
        s = MetricSeries(s.repo_id, s.metric_name, s.timestamps + 0.25, s.values)
        p = ConsensusPattern(2, s.values[5:13], "lines_changed", "org/repo1", 5, 0.0)
        occs = count_matches(p, s, 4.0)
        assert occs
        for o in occs:
            assert set(o) == set(OCCURRENCE_FIELDS)
            need(o, OCCURRENCE_FIELDS)
            assert o["start_time"] == to_rfc3339(s.timestamps[o["start_index"]])
            assert o["end_time"] == to_rfc3339(s.timestamps[o["end_index"]])
            assert from_rfc3339(o["end_time"]) == s.timestamps[o["end_index"]]
            assert json.loads(json.dumps(o)) == o
