"""Calibration metric tests: closed forms, strictness conventions, a direct
counting oracle, and invariance properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usnrt.data import PreprocessState, SynthSpec, generate_synthetic
from usnrt.metrics import (
    QUANTILE_LEVELS,
    TAIL_LEVELS,
    _validate,
    calibration_curve,
    compute_report,
    ece,
    predicted_quantile,
    sharpness,
    tce,
)
from usnrt.nn_core import Activation, Mlp
from usnrt.stats import normal_inverse_cdf
from usnrt.tree import InternalNode, LeafNode, UsnrtConfig, UsnrtModel, leaf_report, predict_arrays


def preds_of(mu, sigma):
    return np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)


def truth_predictions(synth):
    return preds_of(synth.f_true, synth.sigma_true)


class TestPredictedQuantile:
    def test_median(self):
        assert predicted_quantile(0.0, 1.0, 0.5) == 0.0

    def test_shifted_scaled(self):
        value = predicted_quantile(2.0, 3.0, 0.95)
        assert value == pytest.approx(2.0 + 3.0 * 1.644853626, abs=1e-8)

    def test_monotone_in_tau(self):
        taus = np.linspace(0.01, 0.99, 99)
        values = [predicted_quantile(0.3, 0.7, t) for t in taus]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            _validate([0.0], [0.0])
        with pytest.raises(ValueError, match="positive"):
            _validate([np.nan], [0.0])


class TestClosedForms:
    def test_ece_all_outside_is_50(self):
        # A label above every quantile: observed frequencies are all 0.
        preds = preds_of([0.0], [1.0])
        assert ece(*preds, [1e9]) == pytest.approx(50.0, abs=1e-12)
        # And below every quantile: observed frequencies are all 1.
        assert ece(*preds, [-1e9]) == pytest.approx(50.0, abs=1e-12)

    def test_tce_inside_everywhere_is_25(self):
        preds = preds_of([0.0] * 3, [1.0] * 3)
        assert tce(*preds, [0.0, 0.0, 0.0]) == pytest.approx(25.0, abs=1e-12)

    def test_tce_outside_everywhere_is_75(self):
        preds = preds_of([0.0] * 3, [1.0] * 3)
        assert tce(*preds, [100.0, -100.0, 100.0]) == pytest.approx(75.0, abs=1e-12)

    def test_sharpness_values(self):
        assert sharpness([1.0] * 4) == pytest.approx(100.0, abs=1e-12)
        assert sharpness([0.5] * 4) == pytest.approx(50.0, abs=1e-12)
        assert sharpness([0.2, 0.4]) == pytest.approx(30.0, abs=1e-12)

    def test_curve_all_inside(self):
        # Always-covered intervals: error at expected p is 100 * (1 - p),
        # i.e. 200 * tau.
        preds = preds_of([0.0] * 2, [1.0] * 2)
        curve = calibration_curve(*preds, [0.0, 0.0])
        assert [expected for expected, _ in curve] == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        )
        for expected, error in curve:
            tau = (1.0 - expected) / 2.0
            assert error == pytest.approx(200.0 * tau, abs=1e-10)

    def test_perfect_coverage_curve_is_zero(self):
        # One point per tail position to hit each expected coverage exactly.
        rng = np.random.default_rng(0)
        n = 10_000
        z = rng.standard_normal(n)
        preds = preds_of(np.zeros(n), np.ones(n))
        curve = calibration_curve(*preds, z)
        for expected, error in curve:
            assert error < 2.5  # sampling noise only

    def test_tce_equals_mean_of_matching_curve_levels(self):
        rng = np.random.default_rng(1)
        n = 500
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.2, 2.0, size=n)
        y = rng.normal(size=n)
        preds = preds_of(mu, sigma)
        curve = dict(calibration_curve(*preds, y))
        matching = [curve[p] for p in (0.6, 0.7, 0.8, 0.9)]
        assert tce(*preds, y) == pytest.approx(float(np.mean(matching)), abs=1e-12)


class TestStrictness:
    def test_tie_counts_as_not_below(self):
        # y equal to the tau=0.6 quantile: the strict comparison leaves that
        # level's indicator at 0, so observed frequencies are 1 exactly for
        # tau > 0.6.
        pred = preds_of([1.0], [2.0])
        y_tie = 1.0 + 2.0 * normal_inverse_cdf(0.6)
        taus = np.array(QUANTILE_LEVELS)
        expected = 100.0 * np.mean(np.abs((taus > 0.6).astype(float) - taus))
        assert ece(*pred, [y_tie]) == pytest.approx(expected, abs=1e-12)
        # Nudging y just below the quantile flips exactly that indicator.
        nudged_expected = 100.0 * np.mean(np.abs((taus >= 0.6).astype(float) - taus))
        assert ece(*pred, [y_tie - 1e-9]) == pytest.approx(nudged_expected, abs=1e-12)

    def test_interval_endpoint_counts_as_outside(self):
        pred = preds_of([0.0], [1.0])
        lower = predicted_quantile(*pred, 0.05)[0]
        inside = tce(*pred, [lower + 1e-9])
        on_edge = tce(*pred, [lower])
        assert inside != on_edge


class TestOracle:
    def test_direct_counting_small_n(self):
        rng = np.random.default_rng(7)
        n = 50
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.1, 3.0, size=n)
        y = rng.normal(size=n)
        preds = preds_of(mu, sigma)

        z = {tau: normal_inverse_cdf(tau) for tau in QUANTILE_LEVELS}
        gaps = []
        for tau in QUANTILE_LEVELS:
            below = sum(1 for i in range(n) if y[i] < mu[i] + sigma[i] * z[tau])
            gaps.append(abs(below / n - tau))
        assert ece(*preds, y) == pytest.approx(100.0 * np.mean(gaps), abs=1e-12)

        tail_gaps = []
        for tau in TAIL_LEVELS:
            z_lo = normal_inverse_cdf(tau)
            z_hi = normal_inverse_cdf(1.0 - tau)
            covered = sum(
                1
                for i in range(n)
                if mu[i] + sigma[i] * z_lo < y[i] < mu[i] + sigma[i] * z_hi
            )
            tail_gaps.append(abs(covered / n - (1.0 - 2.0 * tau)))
        assert tce(*preds, y) == pytest.approx(100.0 * np.mean(tail_gaps), abs=1e-12)

        assert sharpness(preds[1]) == pytest.approx(100.0 * sigma.mean(), abs=1e-12)


def broadcast_ece(mu, sigma, y):
    """ECE by one (rows x 99) broadcast over every level at once: the
    reference that ece matches bit for bit."""
    z = np.vectorize(normal_inverse_cdf, otypes=[float])(QUANTILE_LEVELS)
    quantiles = mu[:, None] + sigma[:, None] * z
    observed = (y[:, None] < quantiles).mean(axis=0)
    return 100.0 * float(np.mean(np.abs(observed - np.array(QUANTILE_LEVELS))))


def interval_error(mu, sigma, y, tau):
    """100 * |coverage of (q_tau, q_{1-tau}) - (1 - 2 tau)|, one level at a time."""
    inside = (predicted_quantile(mu, sigma, tau) < y) & (y < predicted_quantile(mu, sigma, 1.0 - tau))
    return 100.0 * abs(float(np.mean(inside)) - (1.0 - 2.0 * tau))


def per_level_reference(mu, sigma, y):
    """(ECE, TCE, curve) by the literal level-by-level formulas: the
    reference that the level-table scores match bit for bit."""
    with np.errstate(over="ignore"):
        tail = float(np.mean([interval_error(mu, sigma, y, tau) for tau in TAIL_LEVELS]))
        curve = [((100 - 2 * k) / 100.0, interval_error(mu, sigma, y, k / 100.0)) for k in range(45, 0, -5)]
        return broadcast_ece(mu, sigma, y), tail, curve


def assert_matches_reference(mu, sigma, y):
    want = per_level_reference(mu, sigma, y)
    assert (ece(mu, sigma, y), tce(mu, sigma, y), calibration_curve(mu, sigma, y)) == want
    # Sharpness, the mean of sigma, may overflow; the scores above may not warn.
    with np.errstate(over="ignore"):
        report = compute_report(mu, sigma, y)
        assert report.sharpness == sharpness(sigma)
    assert (report.ece, report.tce, report.curve) == want
    assert report.n_test == y.size


class TestBroadcastReference:
    @pytest.mark.parametrize("n, seed", [(2, 0), (50, 1), (5_000, 2), (20_000, 3)])
    def test_random_inputs(self, n, seed):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.05, 4.0, size=n)
        y = rng.normal(scale=2.0, size=n)
        assert ece(mu, sigma, y) == broadcast_ece(mu, sigma, y)

    @pytest.mark.parametrize("y", [-3.0, -0.2, 0.0, 0.7, 5.0])
    def test_one_row(self, y):
        mu, sigma, y = np.array([0.3]), np.array([1.7]), np.array([y])
        assert ece(mu, sigma, y) == broadcast_ece(mu, sigma, y)

    @pytest.mark.parametrize("tau", [0.01, 0.37, 0.5, 0.99])
    def test_label_on_a_level_quantile(self, tau):
        # Each row's label is its own tau-quantile, computed as ece computes
        # it, so the strict comparison leaves that level's indicator at 0.
        rng = np.random.default_rng(4)
        mu = rng.normal(size=30)
        sigma = rng.uniform(0.1, 3.0, size=30)
        y = mu + sigma * normal_inverse_cdf(tau)
        assert np.all(y == predicted_quantile(mu, sigma, tau))
        assert ece(mu, sigma, y) == broadcast_ece(mu, sigma, y)


# Z_GRID[k - 1] is PhiInv(k / 100), the standard quantile of level k.
Z_GRID = np.array([normal_inverse_cdf(tau) for tau in QUANTILE_LEVELS])
# One row, the last row of a block, one row past it, and two blocks and one row.
ROW_COUNTS = st.sampled_from([1, 4_096, 4_097, 8_193])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# Levels k that bound the TCE and curve intervals, tails and upper partners.
TAIL_AND_CURVE_LEVELS = [k for j in range(5, 50, 5) for k in (j, 100 - j)]


def labels_on_levels(rng, n):
    """Every label is its row's quantile at a random level, computed as the
    metrics compute it; a quarter sit on tail or curve levels."""
    mu = rng.normal(scale=10.0, size=n)
    sigma = np.exp(rng.uniform(-7.0, 7.0, size=n))
    tails = rng.choice(TAIL_AND_CURVE_LEVELS, n)
    levels = np.where(rng.random(n) < 0.25, tails, rng.integers(1, 100, n))
    return mu, sigma, mu + sigma * Z_GRID[levels - 1]


def equal_quantiles(rng, n):
    """sigma so small against |mu| that all 99 quantiles of most rows round
    to one value, with labels on it or a few spacings away."""
    mu = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(3.0, 8.0, size=n)
    sigma = np.abs(mu) * 10.0 ** rng.uniform(-22.0, -15.0, size=n)
    return mu, sigma, mu + np.spacing(mu) * rng.integers(-2, 3, size=n)


def overflowing_quantiles(rng, n):
    """sigma * z beyond the largest float for most rows, so quantiles are
    +-inf, and labels spread over the whole float range."""
    mu = rng.uniform(-8e307, 8e307, size=n) * rng.choice([1.0, 2.0], n)
    sigma = np.where(rng.random(n) < 0.8, rng.uniform(1e307, 1.7e308, size=n), 5e-324)
    y = rng.choice([-1.7e308, -1e308, 0.0, 1e308, 1.7e308], n) * rng.uniform(0.5, 1.0, size=n)
    return mu, sigma, y


class TestLevelSearchMatchesPerLevelLoop:
    def test_grid_invariants(self):
        # The search relies on strictly increasing standard quantiles, and on
        # every tail and curve level and its upper partner lying on the grid.
        assert np.all(np.diff(Z_GRID) > 0.0)
        assert TAIL_LEVELS == tuple(k / 100.0 for k in (5, 10, 15, 20))
        for k in range(5, 50, 5):
            assert k / 100.0 in QUANTILE_LEVELS
            assert 1.0 - k / 100.0 in QUANTILE_LEVELS
            assert predicted_quantile(0.0, 1.0, 1.0 - k / 100.0) == Z_GRID[99 - k]

    @given(n=ROW_COUNTS, seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_random_inputs(self, n, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(rng.normal(size=n), rng.uniform(0.05, 4.0, size=n), rng.normal(scale=2.0, size=n))

    @given(n=ROW_COUNTS, seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_labels_on_level_quantiles(self, n, seed):
        assert_matches_reference(*labels_on_levels(np.random.default_rng(seed), n))

    @given(n=ROW_COUNTS, seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_all_quantiles_equal(self, n, seed):
        mu, sigma, y = equal_quantiles(np.random.default_rng(seed), n)
        assert_matches_reference(mu, sigma, y)

    @given(n=ROW_COUNTS, seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_overflowing_quantiles(self, n, seed):
        assert_matches_reference(*overflowing_quantiles(np.random.default_rng(seed), n))

    def test_strategies_reach_their_edge_cases(self):
        rng = np.random.default_rng(0)
        mu, sigma, y = labels_on_levels(rng, 1_000)
        on_level = (mu[:, None] + sigma[:, None] * Z_GRID == y[:, None]).any(axis=1)
        assert on_level.all()
        mu, sigma, y = equal_quantiles(rng, 1_000)
        lowest, highest = mu + sigma * Z_GRID[0], mu + sigma * Z_GRID[-1]
        assert np.mean(lowest == highest) > 0.5 and np.mean(y == lowest) > 0.1
        mu, sigma, y = overflowing_quantiles(rng, 1_000)
        with np.errstate(over="ignore"):
            assert np.mean(np.isinf(mu + sigma * Z_GRID[-1])) > 0.2


def _leaf(region_id, seed):
    mean_net = Mlp([2, 3, 1], seed=seed)
    sigma_net = Mlp([2, 3, 1], output_activation=Activation.SOFTPLUS, seed=seed + 1)
    return LeafNode(region_id, mean_net, sigma_net, train_count=10, residual_std=1.0)


@pytest.fixture(scope="module")
def three_leaf_model():
    synth = generate_synthetic(SynthSpec(n=200, d=2, seed=3))
    right = InternalNode(1, -0.3, 0.002, left=_leaf(2, 20), right=_leaf(3, 30))
    root = InternalNode(0, 0.1, 0.001, left=_leaf(1, 10), right=right)
    return UsnrtModel(root=root, config=UsnrtConfig(), preprocess=PreprocessState.fit(synth.dataset))


class TestLeafReport:
    @given(n=ROW_COUNTS, seed=SEEDS, on_levels=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_leaf_scores_match_per_level_loop(self, three_leaf_model, n, seed, on_levels):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2.0, 2.0, (n, 2))
        mu, sigma = predict_arrays(three_leaf_model, X)
        if on_levels:
            y = mu + sigma * Z_GRID[rng.choice(TAIL_AND_CURVE_LEVELS, n) - 1]
        else:
            y = mu + sigma * rng.normal(size=n)
        report = leaf_report(three_leaf_model, X, y)
        left = X[:, 0] <= 0.1
        sides = [left, ~left & (X[:, 1] <= -0.3), ~left & (X[:, 1] > -0.3)]
        for i, rows in enumerate(sides):
            assert report["count"][i] == rows.sum()
            if not rows.any():
                assert report["tce"][i] is None
                continue
            leaf = mu[rows], sigma[rows], y[rows]
            assert report["tce"][i] == per_level_reference(*leaf)[1]
            lower, upper = predicted_quantile(*leaf[:2], 0.05), predicted_quantile(*leaf[:2], 0.95)
            assert report["coverage_90"][i] == float(np.mean((lower < leaf[2]) & (leaf[2] < upper)))


class TestInvariance:
    @given(
        scale=st.floats(min_value=1e-2, max_value=1e2),
        shift=st.floats(min_value=-100.0, max_value=100.0),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_ece_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        n = 60
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.2, 2.0, size=n)
        y = rng.normal(size=n)
        base = ece(*preds_of(mu, sigma), y)
        moved = ece(*preds_of(scale * mu + shift, scale * sigma), scale * y + shift)
        assert moved == pytest.approx(base, abs=1e-9)

    @given(
        scale=st.floats(min_value=1e-2, max_value=1e2),
        shift=st.floats(min_value=-100.0, max_value=100.0),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_tce_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        n = 60
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.2, 2.0, size=n)
        y = rng.normal(size=n)
        base = tce(*preds_of(mu, sigma), y)
        moved = tce(*preds_of(scale * mu + shift, scale * sigma), scale * y + shift)
        assert moved == pytest.approx(base, abs=1e-9)


class TestConsistency:
    def test_true_distribution_is_calibrated(self):
        synth = generate_synthetic(
            SynthSpec(
                n=100_000, d=2, mean_low="sine", mean_high="linear",
                sigma_low=0.3, sigma_high=1.2, seed=21,
            )
        )
        preds = truth_predictions(synth)
        y = synth.dataset.labels
        assert ece(*preds, y) < 0.5
        assert tce(*preds, y) < 0.5

    def test_report_fields(self):
        rng = np.random.default_rng(3)
        n = 40
        preds = preds_of(rng.normal(size=n), rng.uniform(0.5, 1.5, size=n))
        y = rng.normal(size=n)
        report = compute_report(*preds, y)
        assert report.n_test == n
        assert report.ece == ece(*preds, y)
        assert report.tce == tce(*preds, y)
        assert report.sharpness == sharpness(preds[1])
        assert len(report.curve) == 9
        assert 0.0 <= report.ece <= 100.0
        assert 0.0 <= report.tce <= 100.0
        assert report.sharpness >= 0.0

    def test_report_memory_is_linear_in_rows(self):
        # One level at a time: no (rows x 99) matrix is ever held.
        n = 100_000
        rng = np.random.default_rng(5)
        mu, sigma, y = rng.normal(size=n), rng.uniform(0.5, 1.5, size=n), rng.normal(size=n)
        tracemalloc.start()
        try:
            compute_report(mu, sigma, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            ece([], [], [])
        with pytest.raises(ValueError):
            sharpness([])

    @pytest.mark.parametrize("metric", [ece, tce, calibration_curve, compute_report])
    def test_every_metric_validates(self, metric):
        with pytest.raises(ValueError, match="positive"):
            metric([0.0, 0.0], [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="one length"):
            metric([0.0, 0.0], [1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="one length"):
            metric([0.0], [1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="one length"):
            metric([[0.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="empty"):
            metric([], [], [])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                metric([0.0, bad], [1.0, 1.0], [0.0, 0.0])
            with pytest.raises(ValueError, match="finite"):
                metric([0.0, 0.0], [1.0, 1.0], [bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            metric([0.0, 0.0], [1.0, np.inf], [0.0, 0.0])

    def test_sharpness_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            sharpness([1.0, np.nan])

    def test_sharpness_rejects_infinite_sigma(self):
        with pytest.raises(ValueError, match="finite"):
            sharpness([1.0, np.inf])
