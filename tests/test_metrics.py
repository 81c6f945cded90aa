"""Calibration metric tests: closed forms, strictness conventions, a direct
counting oracle, and invariance properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usnrt.data import SynthSpec, generate_synthetic
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
from usnrt.stats import normal_inverse_cdf


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
    reference that ece, which goes level by level, matches bit for bit."""
    z = np.vectorize(normal_inverse_cdf, otypes=[float])(QUANTILE_LEVELS)
    quantiles = mu[:, None] + sigma[:, None] * z
    observed = (y[:, None] < quantiles).mean(axis=0)
    return 100.0 * float(np.mean(np.abs(observed - np.array(QUANTILE_LEVELS))))


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

    def test_sharpness_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="positive"):
            sharpness([1.0, np.nan])
