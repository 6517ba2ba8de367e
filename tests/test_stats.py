import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats as scipy_stats

from capaminer.errors import EmptyTable
from capaminer.stats import (
    betainc,
    chi2_independence,
    chi2_sf,
    gammainc_lower,
    gammainc_upper,
    student_t_sf_two_tailed,
    two_sample_t_test,
)


class TestIncompleteGamma:
    def test_boundaries(self):
        for a in (0.5, 1.0, 3.7, 27.0):
            assert gammainc_upper(a, 0.0) == 1.0
            assert gammainc_lower(a, 0.0) == 0.0
            assert gammainc_upper(a, 1e6) == pytest.approx(0, abs=1e-12)

    def test_against_scipy(self, rng):
        for _ in range(1000):
            a = float(rng.uniform(0.1, 60))
            x = float(rng.uniform(0, 120))
            assert gammainc_lower(a, x) == pytest.approx(
                sp.gammainc(a, x), abs=1e-12)
            assert gammainc_upper(a, x) == pytest.approx(
                sp.gammaincc(a, x), abs=1e-12)

    def test_monotone_decreasing_upper(self, rng):
        for a in (0.7, 2.0, 15.0):
            xs = np.sort(rng.uniform(0, 50, 100))
            qs = [gammainc_upper(a, x) for x in xs]
            assert all(q1 >= q2 - 1e-12 for q1, q2 in zip(qs, qs[1:]))

    def test_complement_identity(self, rng):
        for _ in range(200):
            a = float(rng.uniform(0.1, 40))
            x = float(rng.uniform(0, 80))
            assert gammainc_lower(a, x) + gammainc_upper(a, x) == pytest.approx(
                1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1e4, 1e5])
    @pytest.mark.parametrize("ratio", [0.999, 1.0, 1.001])
    def test_series_sums_to_convergence(self, a, ratio):
        # near x = a the series needs about 8.5 sqrt(a) terms, past any
        # fixed cap of a few hundred
        x = a * ratio
        assert gammainc_upper(a, x) == pytest.approx(sp.gammaincc(a, x), abs=1e-9)
        assert gammainc_lower(a, x) == pytest.approx(sp.gammainc(a, x), abs=1e-9)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_against_scipy(self, rng):
        for _ in range(1000):
            a = float(rng.uniform(0.1, 40))
            b = float(rng.uniform(0.1, 40))
            x = float(rng.uniform(0, 1))
            assert betainc(a, b, x) == pytest.approx(
                sp.betainc(a, b, x), abs=1e-12)

    def test_reflection_identity(self, rng):
        for _ in range(1000):
            a = float(rng.uniform(0.1, 30))
            b = float(rng.uniform(0.1, 30))
            x = float(rng.uniform(0, 1))
            assert betainc(a, b, x) + betainc(b, a, 1 - x) == pytest.approx(
                1.0, abs=1e-12)


# Exact results the artifacts' bytes rest on (p-values in chi2.json and
# pairwise.json).  Both sides of the series / continued-fraction switch of
# the incomplete gamma (x < a + 1), and Student-t arguments whose bits move
# if the beta fraction checks convergence after each of its two steps per
# level instead of after the second.
PINNED_BITS = [
    ("chi2_sf", (3.0, 5), "0.6999858358786275"),
    ("chi2_sf", (0.5, 1), "0.4795001221869536"),
    ("chi2_sf", (20.0, 6), "0.002769395715511579"),
    ("chi2_sf", (40.0, 12), "7.190884052842887e-05"),
    ("gammainc_lower", (2.5, 1.0), "0.1508549639153903"),
    ("gammainc_lower", (0.3, 0.1), "0.5459128495917966"),
    ("gammainc_lower", (2.5, 6.0), "0.9652122194937582"),
    ("gammainc_lower", (10.0, 30.0), "0.9999928782491372"),
    ("student_t_sf_two_tailed", (1.0, 10.0), "0.3408931323020593"),
    ("student_t_sf_two_tailed", (2.2, 23.1), "0.03807473221676092"),
    ("student_t_sf_two_tailed", (0.44, 2.6), "0.693896406745615"),
    ("student_t_sf_two_tailed", (-1.9, 122.3), "0.059787609952294936"),
    ("student_t_sf_two_tailed", (4.0, 43.1), "0.0002444543319223507"),
]


@pytest.mark.parametrize("fn, args, expected", PINNED_BITS)
def test_pinned_bits(fn, args, expected):
    funcs = {f.__name__: f for f in
             (chi2_sf, gammainc_lower, student_t_sf_two_tailed)}
    assert repr(funcs[fn](*args)) == expected


class TestChi2Independence:
    def test_proportional_rows_give_zero(self):
        table = [[10, 20, 30], [20, 40, 60]]
        r = chi2_independence(table)
        assert r.statistic == pytest.approx(0, abs=1e-12)
        assert r.p_value == pytest.approx(1.0, abs=1e-12)

    def test_2x2_closed_form(self):
        r = chi2_independence([[10, 20], [20, 10]])
        assert r.statistic == pytest.approx(6.666667, abs=1e-6)
        assert r.dof == 1
        assert r.p_value == pytest.approx(0.009823, abs=1e-6)

    def test_matches_scipy_on_random_tables(self, rng):
        for _ in range(50):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            table = rng.integers(1, 40, size=shape)
            r = chi2_independence(table)
            stat, p, dof, _ = scipy_stats.chi2_contingency(table, correction=False)
            assert r.statistic == pytest.approx(stat, rel=1e-9)
            assert r.dof == dof
            assert r.p_value == pytest.approx(p, abs=1e-8)

    def test_direct_double_loop_oracle(self, rng):
        table = rng.integers(1, 30, size=(4, 5)).astype(float)
        r = chi2_independence(table)
        total = table.sum()
        stat = 0.0
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                e = table[i].sum() * table[:, j].sum() / total
                stat += (table[i, j] - e) ** 2 / e
        assert r.statistic == pytest.approx(stat, rel=1e-9)

    def test_zero_rows_dropped(self):
        r = chi2_independence([[5, 5], [0, 0], [5, 6]])
        assert r.dropped_rows == (1,)
        assert r.dof == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyTable):
            chi2_independence([[0, 0], [0, 0]])
        with pytest.raises(EmptyTable):
            chi2_independence([[1, 2]])

    def test_chi2_sf_matches_scipy(self, rng):
        for _ in range(200):
            x = float(rng.uniform(0, 200))
            dof = int(rng.integers(1, 80))
            assert chi2_sf(x, dof) == pytest.approx(
                scipy_stats.chi2.sf(x, dof), abs=1e-10)


class TestTwoSampleTTest:
    def test_identical_samples(self):
        r = two_sample_t_test([1, 2, 3], [1, 2, 3])
        assert r.t_stat == 0.0
        assert r.p_value == pytest.approx(1.0)

    def test_reference_example(self):
        r = two_sample_t_test([1, 2, 3], [2, 3, 4])
        assert r.t_stat == pytest.approx(-1.224745, abs=1e-6)
        assert r.dof == pytest.approx(4.0, abs=1e-9)
        assert r.p_value == pytest.approx(0.288, abs=1e-3)

    def test_swap_negates_t(self, rng):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.5, 2, 9)
        r1 = two_sample_t_test(a, b)
        r2 = two_sample_t_test(b, a)
        assert r1.t_stat == pytest.approx(-r2.t_stat, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)

    def test_welch_matches_scipy(self, rng):
        for _ in range(100):
            a = rng.normal(0, 1, int(rng.integers(3, 30)))
            b = rng.normal(0.3, 1.7, int(rng.integers(3, 30)))
            r = two_sample_t_test(a, b)
            t, p = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert r.t_stat == pytest.approx(t, rel=1e-9)
            assert r.p_value == pytest.approx(p, abs=1e-10)

    def test_constant_equal_means(self):
        r = two_sample_t_test([2, 2, 2], [2.0, 2.0])
        assert r.t_stat == 0.0
        assert r.p_value == 1.0

    def test_constant_unequal_means(self):
        r = two_sample_t_test([1, 1], [2, 2])
        assert r.p_value == 0.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            two_sample_t_test([1], [1, 2])

    @given(st.integers(0, 2**32 - 1))
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    def test_student_tail_matches_scipy(self, seed):
        r = np.random.default_rng(seed)
        t = float(r.normal(0, 3))
        dof = float(r.uniform(1, 100))
        assert student_t_sf_two_tailed(t, dof) == pytest.approx(
            2 * scipy_stats.t.sf(abs(t), dof), abs=1e-10)


# shape parameters from 1e-2 to 1e5, log-uniform, and arguments within
# 12 standard deviations of each distribution's mean, where the tails are
# neither 0 nor 1
LOG_SHAPE = st.floats(-2, 5)
Z = st.floats(-12, 12)


class TestSpecialFunctionOracle:
    """The special functions against scipy over the whole shape range."""

    @given(LOG_SHAPE, Z)
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    def test_gammainc_upper(self, log_a, z):
        a = 10 ** log_a
        x = max(0.0, a + math.sqrt(a) * z)
        assert gammainc_upper(a, x) == pytest.approx(sp.gammaincc(a, x), abs=1e-9)

    @given(LOG_SHAPE, LOG_SHAPE, Z)
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    def test_betainc(self, log_a, log_b, z):
        a, b = 10 ** log_a, 10 ** log_b
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        x = min(1.0, max(0.0, a / (a + b) + sd * z))
        assert betainc(a, b, x) == pytest.approx(sp.betainc(a, b, x), abs=1e-9)

    @given(LOG_SHAPE, Z)
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    def test_chi2_sf(self, log_half_dof, z):
        dof = 2 * 10 ** log_half_dof
        x = max(0.0, dof + math.sqrt(2 * dof) * z)
        assert chi2_sf(x, dof) == pytest.approx(scipy_stats.chi2.sf(x, dof), abs=1e-9)

    @given(LOG_SHAPE, st.floats(-40, 40))
    # at tiny t, dof / (dof + t * t) is within an ulp of 1, so 1 - x must
    # come from t itself
    @example(log_dof=2.0, t=1.192092896e-07)
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    def test_student_t_sf_two_tailed(self, log_dof, t):
        dof = 10 ** log_dof
        assert student_t_sf_two_tailed(t, dof) == pytest.approx(
            2 * scipy_stats.t.sf(abs(t), dof), abs=1e-9)
