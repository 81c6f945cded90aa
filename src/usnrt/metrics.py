"""Calibration and sharpness metrics for Gaussian mean/std predictions.

Quantiles come from the Gaussian assumption: q_tau = mu + sigma * PhiInv(tau).
All indicator comparisons are strict, so an observation equal to a quantile
counts as "not below" and one sitting exactly on an interval endpoint counts
as outside. Metrics are computed on whatever scale the inputs are on; ECE
and TCE are invariant under joint positive-affine rescaling of (y, mu,
sigma), sharpness is not (callers evaluating models normalise first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stats import normal_inverse_cdf

__all__ = [
    "GaussianPrediction",
    "MetricsReport",
    "QUANTILE_LEVELS",
    "TAIL_LEVELS",
    "calibration_curve",
    "compute_report",
    "ece",
    "gaussian_predictions",
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


@dataclass(frozen=True)
class GaussianPrediction:
    """A (mean, standard deviation) pair in label units."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


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


def gaussian_predictions(mu, sigma) -> list[GaussianPrediction]:
    """One GaussianPrediction per row of the (mu, sigma) arrays."""
    return [GaussianPrediction(float(m), float(s)) for m, s in zip(mu, sigma)]


def predicted_quantile(pred: GaussianPrediction, tau: float) -> float:
    """Predicted conditional tau-quantile under the Gaussian assumption."""
    return pred.mu + pred.sigma * normal_inverse_cdf(tau)


def _as_arrays(preds: Sequence[GaussianPrediction]):
    mu = np.fromiter((p.mu for p in preds), dtype=float, count=len(preds))
    sigma = np.fromiter((p.sigma for p in preds), dtype=float, count=len(preds))
    return mu, sigma


def _validate(preds, y) -> np.ndarray:
    if len(preds) == 0:
        raise ValueError("prediction set is empty")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != len(preds):
        raise ValueError("y must be a vector matching the predictions")
    return y


def ece(preds: Sequence[GaussianPrediction], y) -> float:
    """Expected calibration error over the 99-level quantile grid.

    For each tau the observed frequency of y < q_tau is compared with tau;
    the result is 100 times the mean absolute gap.
    """
    y = _validate(preds, y)
    mu, sigma = _as_arrays(preds)
    z = np.array([normal_inverse_cdf(t) for t in QUANTILE_LEVELS])
    quantiles = mu[:, None] + sigma[:, None] * z[None, :]
    observed = (y[:, None] < quantiles).mean(axis=0)
    return 100.0 * float(np.mean(np.abs(observed - np.array(QUANTILE_LEVELS))))


def _interval_error(mu, sigma, y, tau: float) -> float:
    """100 * |coverage of (q_tau, q_{1-tau}) - (1 - 2 tau)|, strict bounds."""
    lower = mu + sigma * normal_inverse_cdf(tau)
    upper = mu + sigma * normal_inverse_cdf(1.0 - tau)
    coverage = float(np.mean((lower < y) & (y < upper)))
    return 100.0 * abs(coverage - (1.0 - 2.0 * tau))


def tce(preds: Sequence[GaussianPrediction], y) -> float:
    """Tail-interval calibration error: mean coverage gap of the central
    90/80/70/60% intervals."""
    y = _validate(preds, y)
    mu, sigma = _as_arrays(preds)
    return float(np.mean([_interval_error(mu, sigma, y, tau) for tau in TAIL_LEVELS]))


def sharpness(preds: Sequence[GaussianPrediction]) -> float:
    """100 times the mean predicted standard deviation (smaller is sharper)."""
    if len(preds) == 0:
        raise ValueError("prediction set is empty")
    _, sigma = _as_arrays(preds)
    return 100.0 * float(np.mean(sigma))


def calibration_curve(preds: Sequence[GaussianPrediction], y) -> list[tuple[float, float]]:
    """Per-level interval calibration errors for expected coverages 0.1..0.9.

    Returns (expected_probability, error) pairs in ascending expected
    probability. The four entries at 0.6..0.9 average to the TCE.
    """
    y = _validate(preds, y)
    mu, sigma = _as_arrays(preds)
    curve = []
    for k in reversed(_CURVE_TAIL_GRID):
        expected = (100 - 2 * k) / 100.0
        curve.append((expected, _interval_error(mu, sigma, y, k / 100.0)))
    return curve


def compute_report(preds: Sequence[GaussianPrediction], y) -> MetricsReport:
    """All four metrics in one pass-friendly container."""
    y = _validate(preds, y)
    return MetricsReport(
        ece=ece(preds, y),
        tce=tce(preds, y),
        sharpness=sharpness(preds),
        curve=calibration_curve(preds, y),
        n_test=int(y.shape[0]),
    )
