"""Calibration and sharpness metrics for Gaussian mean/std predictions.

Every metric takes the prediction arrays (mu, sigma) and, where it scores
coverage, the label vector y: one entry per test row, sigma > 0.
Quantiles come from the Gaussian assumption: q_tau = mu + sigma * PhiInv(tau).
All indicator comparisons are strict, so an observation equal to a quantile
counts as "not below" and one sitting exactly on an interval endpoint counts
as outside. Metrics are computed on whatever scale the inputs are on; ECE
and TCE are invariant under joint positive-affine rescaling of (y, mu,
sigma), sharpness is not (callers evaluating models normalise first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import normal_inverse_cdf

__all__ = [
    "MetricsReport",
    "QUANTILE_LEVELS",
    "TAIL_LEVELS",
    "calibration_curve",
    "compute_report",
    "coverage",
    "ece",
    "predicted_quantile",
    "sharpness",
    "tce",
]

# Quantile grid for ECE: tau in {0.01, ..., 0.99}.
QUANTILE_LEVELS = tuple(k / 100.0 for k in range(1, 100))
# Tail levels for TCE: central intervals with expected coverage 90..60%.
TAIL_LEVELS = (0.05, 0.10, 0.15, 0.20)
# Tail levels behind the probability-wise curve (expected coverage 0.9..0.1).
_CURVE_TAIL_GRID = tuple(k for k in range(5, 50, 5))


@dataclass
class MetricsReport:
    """ECE / TCE / sharpness plus the probability-wise calibration curve."""

    ece: float
    tce: float
    sharpness: float
    curve: list[tuple[float, float]]
    n_test: int

    def to_dict(self) -> dict:
        return {
            "ece": self.ece,
            "tce": self.tce,
            "sharpness": self.sharpness,
            "curve": [[expected, error] for expected, error in self.curve],
            "n_test": self.n_test,
        }


def predicted_quantile(mu, sigma, tau):
    """Gaussian tau-quantile mu + sigma * PhiInv(tau) for one level tau in
    (0, 1). mu and sigma (scalars or arrays) are not validated."""
    return mu + sigma * normal_inverse_cdf(tau)


def coverage(mu, sigma, y, tau: float = 0.05) -> float:
    """Share of y strictly inside (q_tau, q_{1-tau}), the central 1 - 2 tau
    interval (90% at the default tau). Inputs are not validated."""
    lower = predicted_quantile(mu, sigma, tau)
    upper = predicted_quantile(mu, sigma, 1.0 - tau)
    return float(np.mean((lower < y) & (y < upper)))


def _validate(sigma, *vectors):
    """sigma and the vectors beside it (mu, y) as float arrays of one nonzero
    length. Every sigma must be > 0, which NaN fails."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        raise ValueError("prediction set is empty")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if sigma.ndim != 1 or any(v.shape != sigma.shape for v in vectors):
        raise ValueError("mu, sigma and y must be vectors of one length")
    if not np.all(sigma > 0.0):
        raise ValueError("sigma must be positive")
    return (sigma, *vectors)


def _interval_error(mu, sigma, y, tau: float) -> float:
    """100 * |coverage of (q_tau, q_{1-tau}) - (1 - 2 tau)|."""
    return 100.0 * abs(coverage(mu, sigma, y, tau) - (1.0 - 2.0 * tau))


def ece(mu, sigma, y) -> float:
    """Expected calibration error over the 99-level quantile grid.

    For each tau the observed frequency of y < q_tau is compared with tau;
    the result is 100 times the mean absolute gap.
    """
    sigma, mu, y = _validate(sigma, mu, y)
    observed = [np.mean(y < predicted_quantile(mu, sigma, tau)) for tau in QUANTILE_LEVELS]
    return 100.0 * float(np.mean(np.abs(np.array(observed) - np.array(QUANTILE_LEVELS))))


def tce(mu, sigma, y) -> float:
    """Tail-interval calibration error: mean coverage gap of the central
    90/80/70/60% intervals."""
    sigma, mu, y = _validate(sigma, mu, y)
    return float(np.mean([_interval_error(mu, sigma, y, tau) for tau in TAIL_LEVELS]))


def sharpness(sigma) -> float:
    """100 times the mean predicted standard deviation (smaller is sharper)."""
    (sigma,) = _validate(sigma)
    return 100.0 * float(np.mean(sigma))


def calibration_curve(mu, sigma, y) -> list[tuple[float, float]]:
    """Per-level interval calibration errors for expected coverages 0.1..0.9.

    Returns (expected_probability, error) pairs in ascending expected
    probability. The four entries at 0.6..0.9 average to the TCE.
    """
    sigma, mu, y = _validate(sigma, mu, y)
    return [
        ((100 - 2 * k) / 100.0, _interval_error(mu, sigma, y, k / 100.0))
        for k in reversed(_CURVE_TAIL_GRID)
    ]


def compute_report(mu, sigma, y) -> MetricsReport:
    """All four metrics, each from its public function, which validates."""
    return MetricsReport(
        ece=ece(mu, sigma, y),
        tce=tce(mu, sigma, y),
        sharpness=sharpness(sigma),
        curve=calibration_curve(mu, sigma, y),
        n_test=len(y),
    )
