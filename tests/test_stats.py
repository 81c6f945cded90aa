"""Tests for the variance-equality test and its special functions.

scipy serves as the independent oracle for distribution functions; the
statistic itself is cross-checked against a naive two-pass recomputation.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from usnrt import stats
from usnrt.stats import (
    DegenerateVarianceError,
    levene_statistic,
    levene_statistics_at_cuts,
    levene_test,
    normal_inverse_cdf,
    regularized_incomplete_beta,
    student_t_cdf,
)


def naive_levene_statistic(left, right):
    """Two-pass recomputation with plain Python arithmetic."""
    left = [float(v) for v in left]
    right = [float(v) for v in right]
    n_l, n_r = len(left), len(right)
    z_groups = []
    for group in (left, right):
        mean = sum(group) / len(group)
        z_groups.append([abs(v - mean) for v in group])
    z_l, z_r = z_groups
    zbar_l = sum(z_l) / n_l
    zbar_r = sum(z_r) / n_r
    w2_l = sum((z - zbar_l) ** 2 for z in z_l) / (n_l - 1)
    w2_r = sum((z - zbar_r) ** 2 for z in z_r) / (n_r - 1)
    pooled = ((n_l - 1) * w2_l + (n_r - 1) * w2_r) / (n_l + n_r - 2)
    if pooled == 0.0:
        return None
    return (zbar_l - zbar_r) / math.sqrt(pooled * (1.0 / n_l + 1.0 / n_r))


class TestLevene:
    def test_identical_groups(self):
        result = levene_test([1, 2, 3, 4], [1, 2, 3, 4])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_hand_example(self):
        # z means 1 and 2, group deviation variances 1/3 and 4/3, pooled 5/6.
        result = levene_test([0, 1, 2, 3], [0, 2, 4, 6])
        assert result.degrees_of_freedom == 6
        assert result.statistic == pytest.approx(-math.sqrt(12.0 / 5.0), rel=1e-12)

    def test_hand_example_p_value_against_oracle(self):
        result = levene_test([0, 1, 2, 3], [0, 2, 4, 6])
        expected = 2.0 * scipy.stats.t.sf(abs(result.statistic), 6)
        assert result.p_value == pytest.approx(expected, abs=1e-8)

    def test_tiny_p_value_against_scipy(self):
        """A p-value far below 1e-16 keeps its precision: the tail is not
        taken as 1 - F(|T|), which would cancel to 0."""
        rng = np.random.default_rng(53)
        a = rng.normal(scale=0.5, size=2000)
        b = rng.normal(scale=1.0, size=2000)
        result = levene_test(a, b)
        expected = scipy.stats.levene(a, b, center="mean").pvalue
        assert 1e-160 < expected < 1e-156
        assert result.p_value == pytest.approx(expected, rel=1e-10)

    def test_group_swap_negates_statistic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=17)
        b = rng.normal(scale=2.0, size=29)
        fwd = levene_test(a, b)
        rev = levene_test(b, a)
        assert rev.statistic == pytest.approx(-fwd.statistic, rel=1e-12)
        assert rev.p_value == pytest.approx(fwd.p_value, rel=1e-12)
        assert rev.degrees_of_freedom == fwd.degrees_of_freedom

    def test_small_groups_rejected(self):
        with pytest.raises(ValueError):
            levene_test([1.0], [1.0, 2.0, 3.0])

    def test_degenerate_pooled_variance(self):
        # Size-2 groups always have constant deviations, so the pooled
        # deviation variance is zero.
        with pytest.raises(DegenerateVarianceError):
            levene_test([0.0, 1.0], [5.0, 9.0])

    def test_statistic_matches_naive_recomputation(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_l = int(rng.integers(3, 80))
            n_r = int(rng.integers(3, 80))
            a = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=n_l)
            b = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=n_r)
            expected = naive_levene_statistic(a, b)
            result = levene_test(a, b)
            assert result.statistic == pytest.approx(expected, rel=1e-10)

    @given(
        scale=st.floats(
            min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
        ),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, scale, sign, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        b = rng.normal(scale=1.7, size=15)
        base = levene_test(a, b)
        scaled = levene_test(sign * scale * a, sign * scale * b)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9, abs=1e-300)

    @given(
        shift=st.floats(
            min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
        ),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_group_shift_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=14)
        b = rng.normal(scale=2.2, size=11)
        base = levene_test(a, b)
        shifted = levene_test(a + shift, b)
        assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9, abs=1e-12)


def exact_abs_statistics(residuals, sizes):
    """|levene_statistic| of each cut, NaN where it degenerates."""
    out = []
    for left_n in sizes:
        try:
            out.append(abs(levene_statistic(residuals[:left_n], residuals[left_n:])))
        except DegenerateVarianceError:
            out.append(math.nan)
    return np.array(out)


class TestLeveneStatisticsAtCuts:
    @pytest.mark.parametrize("kind", ["random", "tied", "offset", "two-point"])
    def test_matches_levene_statistic_cut_by_cut(self, kind):
        rng = np.random.default_rng(5)
        n = 700
        residuals = {
            "random": rng.standard_normal(n) * np.where(np.arange(n) < 300, 1.0, 2.5),
            "tied": rng.integers(-3, 4, n).astype(float),
            "offset": 1e4 + 1e-3 * rng.standard_normal(n),
            "two-point": np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0) + 1e-4 * rng.standard_normal(n),
        }[kind]
        sizes = np.arange(2, n - 1)  # every cut: several dominance tables
        # T does not depend on a shift. The reference is taken on centred
        # residuals because on the offset ones levene_statistic's own group
        # means round, which moves its value by up to about 1e-7.
        expected = exact_abs_statistics(residuals - residuals.mean(), sizes)
        screened = levene_statistics_at_cuts(residuals, sizes)
        np.testing.assert_allclose(screened, expected, rtol=1e-9, atol=0.0)
        raw = exact_abs_statistics(residuals, sizes)
        np.testing.assert_allclose(screened, raw, rtol=1e-6, atol=0.0)

    def test_degenerate_cuts_are_nan(self):
        # Alternating -1, 1: both sides of an even cut have |e - m| = 1 everywhere.
        residuals = np.tile([-1.0, 1.0], 20)
        sizes = np.arange(2, 39)
        screened = levene_statistics_at_cuts(residuals, sizes)
        expected = exact_abs_statistics(residuals, sizes)
        assert np.array_equal(np.isnan(screened), sizes % 2 == 0)
        np.testing.assert_allclose(screened, expected, rtol=1e-9)

    def test_no_cuts(self):
        assert levene_statistics_at_cuts([1.0, 2.0, 4.0], np.array([], dtype=int)).shape == (0,)

    @pytest.mark.parametrize(
        "residuals, sizes",
        [
            ([1.0, 2.0, 4.0, 8.0, 3.0], [1]),
            ([1.0, 2.0, 4.0, 8.0, 3.0], [4]),
            ([1.0, 2.0, 4.0, 8.0, 3.0, 5.0], [3, 2]),
            ([1.0, 2.0, 4.0, 8.0, 3.0], [2.5]),
            ([1.0, 2.0, math.inf, 8.0, 3.0], [2]),
        ],
        ids=["left-too-small", "right-too-small", "not-ascending", "not-integer", "not-finite"],
    )
    def test_rejects_bad_input(self, residuals, sizes):
        with pytest.raises(ValueError):
            levene_statistics_at_cuts(residuals, sizes)


def brute_sums_above(e, sizes, thresholds):
    """Per cut, the sum and count of e[:L][e[:L] > m]."""
    picked = [e[:size][e[:size] > m] for size, m in zip(sizes, thresholds)]
    return np.array([p.sum() for p in picked]), np.array([p.size for p in picked])


def residual_sample(kind, n, rng):
    """n residuals: "normal", "tied" small integers, "quantized" (about 90%
    exact zeros, the rest +-1) or "rounded" to one decimal."""
    return {
        "normal": lambda: rng.standard_normal(n),
        "tied": lambda: rng.integers(-3, 4, n).astype(float),
        "quantized": lambda: np.round(0.3 * rng.standard_normal(n)),
        "rounded": lambda: np.round(rng.standard_normal(n), 1),
    }[kind]()


class TestSumsAbove:
    def assert_matches_brute_force(self, e, sizes, thresholds):
        sums, counts = stats._sums_above(e, sizes, thresholds)
        expected_sums, expected_counts = brute_sums_above(e, sizes, thresholds)
        assert np.array_equal(counts, expected_counts)
        assert np.all(np.abs(sums - expected_sums) <= 1e-12 * np.abs(e).sum())

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["normal", "tied", "quantized", "rounded"]),
        n=st.integers(min_value=2, max_value=1500),
        cut_share=st.floats(min_value=0.0, max_value=1.0),
        thresholds_from=st.sampled_from(["entries", "prefix means", "uniform"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_brute_force(self, kind, n, cut_share, thresholds_from, seed):
        """Thresholds taken from the entries test the strict comparison;
        up to 1,500 cuts span up to 12 blocks of _CUTS_PER_TABLE."""
        rng = np.random.default_rng(seed)
        e = residual_sample(kind, n, rng)
        sizes = np.flatnonzero(rng.uniform(size=n) < cut_share) + 1
        if not sizes.size:
            sizes = np.array([n])
        thresholds = {
            "entries": lambda: e[rng.integers(0, n, sizes.size)],
            "prefix means": lambda: np.cumsum(e)[sizes - 1] / sizes,
            "uniform": lambda: rng.uniform(e.min() - 0.5, e.max() + 0.5, sizes.size),
        }[thresholds_from]()
        self.assert_matches_brute_force(e, sizes, thresholds)

    @pytest.mark.parametrize("kind", ["tied", "quantized"])
    def test_both_band_paths_across_blocks(self, kind, monkeypatch):
        """Tied entries as thresholds fill each block's band with far more
        rows than it has cuts, so the dominance table runs; distinct
        residuals against their prefix means keep the band narrow, so the
        direct comparison runs. Each case spans 5 blocks of cuts."""
        tables = []
        table = stats._dominance_table
        monkeypatch.setattr(stats, "_dominance_table", lambda *args: tables.append(args) or table(*args))
        rng = np.random.default_rng(11)
        n = 4000
        e = residual_sample(kind, n, rng)
        sizes = np.arange(2, n - 1, 6)
        assert sizes.size > 4 * stats._CUTS_PER_TABLE
        self.assert_matches_brute_force(e, sizes, e[rng.integers(0, n, sizes.size)])
        assert len(tables) == -(-sizes.size // stats._CUTS_PER_TABLE)

        tables.clear()
        e = rng.standard_normal(n)
        self.assert_matches_brute_force(e, sizes, np.cumsum(e)[sizes - 1] / sizes)
        assert not tables


class TestStudentTCdf:
    def test_zero_is_half(self):
        for df in (1, 2, 5, 30, 1000):
            assert student_t_cdf(0.0, df) == 0.5

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: F(1) = 1/2 + atan(1)/pi = 3/4.
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-10)

    def test_upper_limit(self):
        assert student_t_cdf(1e8, 5) == pytest.approx(1.0, abs=1e-10)

    def test_against_scipy_grid(self):
        for df in (1, 2, 3, 6, 10, 50, 200, 1998, 20000):
            for t in (-30.0, -5.0, -1.2, -0.1, 0.3, 1.0, 2.5, 8.0, 40.0):
                mine = student_t_cdf(t, df)
                ref = scipy.stats.t.cdf(t, df)
                assert mine == pytest.approx(ref, abs=1e-10), (t, df)

    def test_nondecreasing_in_t(self):
        for df in (1, 4, 17, 1998):
            grid = np.linspace(-25, 25, 1501)
            values = [student_t_cdf(t, df) for t in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_symmetry(self):
        for df in (2, 9, 100):
            for t in (0.4, 1.9, 7.3):
                assert student_t_cdf(-t, df) == pytest.approx(
                    1.0 - student_t_cdf(t, df), abs=1e-12
                )

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)


class TestIncompleteBeta:
    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a = float(rng.uniform(0.1, 500.0))
            b = float(rng.uniform(0.1, 500.0))
            x = float(rng.uniform(0.0, 1.0))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                scipy.stats.beta.cdf(x, a, b), abs=1e-11
            )

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


class TestNormalInverseCdf:
    def test_median(self):
        assert normal_inverse_cdf(0.5) == 0.0

    def test_95th_percentile(self):
        assert normal_inverse_cdf(0.95) == pytest.approx(1.644853626, abs=1e-8)

    def test_against_scipy_grid(self):
        for tau in np.linspace(1e-6, 1 - 1e-6, 997):
            assert normal_inverse_cdf(float(tau)) == pytest.approx(
                scipy.stats.norm.ppf(tau), abs=1e-9
            )

    @given(tau=st.floats(min_value=1e-6, max_value=0.5, exclude_max=True))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, tau):
        # Range bounded where 1 - tau is representable tightly enough; the
        # quantile's derivative amplifies the rounding of 1 - tau in the
        # extreme tails.
        assert normal_inverse_cdf(tau) + normal_inverse_cdf(1.0 - tau) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_strictly_increasing(self):
        grid = np.linspace(0.0005, 0.9995, 2000)
        values = [normal_inverse_cdf(float(t)) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_inverse_cdf(bad)
