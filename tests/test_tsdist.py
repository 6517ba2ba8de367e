import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capaminer.errors import ZeroVariance
from capaminer.tsdist import (
    EPS_VAR,
    MetricSeries,
    distance_profile,
    float32_dot_bound,
    znorm_distance,
    znormalize,
    znormalized_windows,
)

from conftest import naive_distance_profile, naive_znormalize, random_and_tiled_windows


class TestZnormalize:
    def test_three_points(self):
        out = znormalize([1, 2, 3])
        np.testing.assert_allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_constant_raises(self):
        with pytest.raises(ZeroVariance):
            znormalize([5, 5, 5])

    def test_two_point_symmetry(self):
        np.testing.assert_allclose(znormalize([0, 1]), [-1.0, 1.0])

    def test_output_moments(self, rng):
        x = rng.normal(3, 7, 50)
        z = znormalize(x)
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError):
            znormalize([1.0])


def exact_znorm_distance(q, w):
    """The distance of the z-normalized float64 inputs q and w, computed
    in decimal at 60 digits."""
    def z(x):
        x = [decimal.Decimal(float(v)) for v in x]
        mean = sum(x) / len(x)
        d = [v - mean for v in x]
        std = (sum(v * v for v in d) / len(d)).sqrt()
        return [v / std for v in d]

    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(sum((a - b) ** 2 for a, b in zip(z(q), z(w))).sqrt())


class TestZnormDistance:
    def test_affine_copy_is_zero(self):
        assert znorm_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0, abs=1e-9)

    def test_anticorrelated(self):
        assert znorm_distance([1, 2, 3], [3, 2, 1]) == pytest.approx(
            math.sqrt(12), abs=1e-9)

    def test_identity(self, rng):
        q = rng.normal(size=10)
        assert znorm_distance(q, q) == pytest.approx(0, abs=1e-9)

    def test_pearson_identity(self, rng):
        q = rng.normal(size=20)
        w = rng.normal(size=20)
        rho = np.corrcoef(q, w)[0, 1]
        expected = math.sqrt(2 * 20 * (1 - rho))
        assert znorm_distance(q, w) == pytest.approx(expected, abs=1e-9)

    def test_constant_window_raises(self):
        with pytest.raises(ZeroVariance):
            znorm_distance([1, 1, 1], [1, 2, 3])

    # vals and b on a 2**-10 grid, a a power of two: every a*q + b is exact
    # in float64, so the inputs are affine copies and their distance is 0
    @given(st.lists(st.integers(-100 * 2**10, 100 * 2**10).map(lambda k: k / 2**10),
                    min_size=4, max_size=30),
           st.integers(-3, 3).map(lambda e: 2.0**e),
           st.integers(-50 * 2**10, 50 * 2**10).map(lambda k: k / 2**10))
    @settings(max_examples=200, deadline=None)
    def test_affine_invariance(self, vals, a, b):
        q = np.asarray(vals)
        if q.std() < 1e-6:
            return
        assert znorm_distance(a * q + b, q) == pytest.approx(0, abs=1e-9)

    def test_rounded_affine_copy_keeps_its_distance(self):
        # 0.1*q + 32 rounds in float64, so the inputs are no longer affine
        # copies: their exact distance is about 1.0084e-9, which the kernel
        # meets within 4.3e-17
        q = np.array([0, 0, 0, 6.103515625e-05, 1.192092896e-07])
        w = 0.1 * q + 32
        assert znorm_distance(w, q) == pytest.approx(exact_znorm_distance(w, q),
                                                     rel=0, abs=1e-15)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, seed, m):
        r = np.random.default_rng(seed)
        q = r.normal(size=m)
        w = r.normal(size=m)
        d1 = znorm_distance(q, w)
        d2 = znorm_distance(w, q)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert 0 <= d1 <= 2 * math.sqrt(m) + 1e-9


class TestZnormalizedWindows:
    def test_matches_direct(self, rng):
        t = rng.normal(5, 3, 200)
        for m in (2, 7, 50):
            z, valid = znormalized_windows(t, m)
            assert valid.all()
            for i in range(len(z)):
                w = t[i : i + m]
                np.testing.assert_allclose(z[i], (w - w.mean()) / w.std(),
                                           rtol=0, atol=1e-9)

    @pytest.mark.parametrize("call, args, limit", [
        (znormalize, ([1e200, -1e200, 3.0],), "1.94e[+]153"),
        (znorm_distance, ([1.0, 2.0, 0.5], [1e200, -1e200, 3.0]), "1.94e[+]153"),
        (distance_profile, ([1.0, 2.0, 0.5], [1e200, -1e200, 3.0, 4.0]), "1.94e[+]153"),
        (znormalized_windows, ([2.4e153, -2.4e153, 0.0, 1.0], 2), "2.37e[+]153"),
    ], ids=["znormalize", "znorm_distance", "distance_profile", "znormalized_windows"])
    def test_rejects_values_whose_squared_deviations_overflow(self, call, args, limit):
        # MetricSeries' rule at the window length: past it, the squared
        # deviations overflowed and the windows came out as zeros, a false
        # perfect match
        with pytest.raises(ValueError, match=f"^values must not exceed {limit} in magnitude"):
            call(*args)

    @pytest.mark.parametrize("values, m", [
        ([1.6e153, -1.6e153, 0.0, 1.0], 4),  # limit about 1.68e153
        ([2.3e153, -2.3e153, 0.0, 1.0], 2),  # limit about 2.37e153, whatever len(t)
    ])
    def test_values_within_the_limit_normalize_without_overflow(self, values, m):
        with np.errstate(all="raise"):
            z, valid = znormalized_windows(values, m)
        assert valid.all() and np.isfinite(z).all()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_values_that_are_not_finite(self, bad):
        for call in (lambda: znormalize([1.0, bad, 3.0]),
                     lambda: distance_profile([1.0, 2.0], [1.0, 2.0, bad, 4.0])):
            with pytest.raises(ValueError, match="^values must be finite$"):
                call()


class TestDistanceProfile:
    def test_alternating(self):
        dp = distance_profile([1, 2], [1, 2, 1, 2])
        np.testing.assert_allclose(dp, [0, 2.828427, 0], atol=1e-6)
        assert not np.isnan(dp).any()

    def test_full_length_query(self, rng):
        t = rng.normal(size=16)
        dp = distance_profile(t, t)
        assert len(dp) == 1
        assert dp[0] == pytest.approx(0, abs=1e-9)

    def test_matches_naive_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 120))
            m = int(rng.integers(2, n // 2 + 2))
            t = rng.normal(size=n)
            q = rng.normal(size=m)
            dp = distance_profile(q, t)
            naive = naive_distance_profile(q, t)
            np.testing.assert_allclose(dp, naive, atol=1e-9)

    def test_constant_windows_flagged(self):
        t = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
        dp = distance_profile([0.0, 1.0, 2.0], t)
        assert np.isnan(dp[0])
        assert np.isfinite(dp[3])

    def test_accepts_metric_series(self):
        s = MetricSeries("r", "lines_added", [0, 1, 2, 3], [1, 2, 1, 2])
        dp = distance_profile([1, 2], s)
        assert len(dp) == 3


class TestFloat32DotBound:
    def test_bounds_the_float32_dot_error(self, rng):
        # against the exact dot of the float64 z-windows, in rationals
        for m in range(2, 65):
            for z in random_and_tiled_windows(rng, m, m + 12):
                z = z[:8]
                z32 = z.astype(np.float32)
                dots = z32 @ z32.T
                rows = [[Fraction(float(v)) for v in row] for row in z]
                bound = Fraction(float32_dot_bound(m))
                for i, a in enumerate(rows):
                    for j, b in enumerate(rows):
                        exact = sum(x * y for x, y in zip(a, b))
                        assert abs(Fraction(float(dots[i, j])) - exact) <= bound, (m, i, j)

    def test_is_about_m_times_m_plus_2_units(self):
        # m (2u + gamma_m) at u = 2**-24, with the float64 allowance far below
        for m in (2, 8, 64, 1024):
            u = 2.0**-24
            assert m * (m + 2) * u <= float32_dot_bound(m) <= 1.001 * m * (m + 2) * u


class TestMetricSeries:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            MetricSeries("r", "lines_added", [0, 1], [1.0])

    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(ValueError):
            MetricSeries("r", "lines_added", [2, 1], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MetricSeries("r", "lines_added", [0, 1], [1.0, float("nan")])

    def test_rejects_values_whose_squared_deviations_overflow(self):
        # 4 points: the limit is sqrt(max / 4) / 4, about 1.68e153
        MetricSeries("r", "lines_added", np.arange(4), [1.6e153, -1.6e153, 0.0, 1.0])
        with pytest.raises(ValueError, match="^values must not exceed 1.68e[+]153 in "
                           "magnitude, for their squared deviations to stay finite, "
                           "got 1.7e[+]153$"):
            MetricSeries("r", "lines_added", np.arange(4), [1.7e153, -1.7e153, 0.0, 1.0])


@st.composite
def affine_copies(draw, min_size=2, max_size=40):
    """(x, base, a): x an exact copy a * base + offset of base, small
    multiples of 1/8 or small integers, that the naive oracles compute well.
    x is a series with plateaus, one offset by 1e9 or 1e12, one of adjacent
    floats (constant within EPS_VAR at 1.0, not at 2**20), or a constant."""
    n = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(["plateau", "offset", "adjacent", "constant"]))
    base = np.array(draw(st.lists(st.integers(-800, 800), min_size=n, max_size=n))) / 8
    a, offset = 1.0, 0.0
    if kind == "plateau":
        i = draw(st.integers(0, n - 1))
        base[i:i + draw(st.integers(1, n - i))] = base[i]
    elif kind == "offset":
        offset = draw(st.sampled_from([1e9, -1e9, 1e12, -1e12]))
    elif kind == "adjacent":
        base = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float)
        offset = draw(st.sampled_from([1.0, 2.0**20]))
        a = float(np.spacing(offset))
    else:
        base[:] = base[0]
        offset = draw(st.sampled_from([0.0, 0.1, 1e12]))
    return a * base + offset, base, a


class TestNaiveOracles:
    """znormalize and distance_profile on generated affine copies against
    the naive definitions applied to the well-conditioned originals."""

    @given(affine_copies())
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_znormalize(self, copy):
        x, base, a = copy
        if a * base.std() < EPS_VAR:
            with pytest.raises(ZeroVariance):
                znormalize(x)
        else:
            np.testing.assert_allclose(znormalize(x), naive_znormalize(base),
                                       rtol=0, atol=1e-9)

    @given(affine_copies(max_size=12), affine_copies(min_size=12, max_size=60))
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_distance_profile(self, query, series):
        (q, qbase, qa), (t, tbase, ta) = query, series
        if qa * qbase.std() < EPS_VAR:
            with pytest.raises(ZeroVariance):
                distance_profile(q, t)
            return
        expected = naive_distance_profile(qbase, tbase)
        stds = np.lib.stride_tricks.sliding_window_view(tbase, len(q)).std(axis=1)
        expected[ta * stds < EPS_VAR] = np.nan
        np.testing.assert_allclose(distance_profile(q, t), expected, rtol=0, atol=1e-9)
