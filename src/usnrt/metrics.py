"""Calibration and sharpness metrics for Gaussian mean/std predictions.

Every metric takes the prediction arrays (mu, sigma) and, where it scores
coverage, the label vector y: one finite entry per test row, sigma > 0.
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

from .nn_core import row_blocks
from .stats import normal_inverse_cdf

__all__ = [
    "MetricsReport",
    "QUANTILE_LEVELS",
    "TAIL_LEVELS",
    "calibration_curve",
    "compute_report",
    "coverage",
    "ece",
    "mean_sigma",
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
# PhiInv of each QUANTILE_LEVELS level, strictly increasing, between -inf
# and +inf: level j in 1..99 at index j. As sigma > 0, mu + sigma * -inf and
# mu + sigma * inf lie below and above every label. Every tail and curve
# level k / 100 and its 1.0 - k / 100 are levels of the grid.
_Z = np.array([-np.inf, *(normal_inverse_cdf(tau) for tau in QUANTILE_LEVELS), np.inf])
# The number of values a level count takes, 0..99.
_GRID = len(QUANTILE_LEVELS) + 1
# A row's first guess at its level counts: the levels below the start of
# the bin that holds its standardised label t = (y - mu) / sigma, in a
# uniform grid of _GUESS_BINS bins over [-2.5, 2.5] (the levels lie within
# +-2.33; t outside falls in an end bin). Each bin is narrower than the gap
# between two levels, so the guess is the count in exact arithmetic or one
# below it; rounding and ties can move the count further, and _count_levels
# makes every count exact.
_GUESS_BINS = 4096
_GUESS_SCALE = _GUESS_BINS / 5.0
_GUESS = np.searchsorted(_Z, np.linspace(-2.5, 2.5, _GUESS_BINS + 1)[:-1]) - 1


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
    """sigma and the vectors beside it (mu, y) as finite float arrays of one
    nonzero length. Every sigma must be > 0, which NaN fails."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        raise ValueError("prediction set is empty")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if sigma.ndim != 1 or any(v.shape != sigma.shape for v in vectors):
        raise ValueError("mu, sigma and y must be vectors of one length")
    if not np.all(sigma > 0.0):
        raise ValueError("sigma must be positive")
    if not all(np.all(np.isfinite(v)) for v in (sigma, *vectors)):
        raise ValueError("mu, sigma and y must be finite")
    return (sigma, *vectors)


def _count_levels(mu, sigma, y, guess, holds):
    """Per row, the number of levels j in 1..99 whose quantile q_j, computed
    as predicted_quantile computes it, satisfies holds(q_j, y), given that it
    holds on a prefix of the levels. guess (changed in place) starts each
    count; a count moves one level wherever the comparisons at its boundary
    disagree with it, until no count moves."""
    count, rows = guess, np.arange(y.size)
    while rows.size:
        at, m, s, v = count[rows], mu[rows], sigma[rows], y[rows]
        up = holds(m + s * _Z[at + 1], v)
        down = ~holds(m + s * _Z[at], v)
        count[rows] = at + up - down
        rows = rows[up | down]
    return count


def _level_table(mu, sigma, y) -> np.ndarray:
    """The 100 x 100 count table of (a, c): a the levels whose quantile q_j
    lies strictly below y, c those whose q_j <= y. Since sigma > 0 and
    rounding is monotone, q_j does not decrease in j, so y < q_j exactly when
    j > c, and y lies strictly inside (q_j, q_{100-j}) exactly when j <= a
    and c < 100 - j. Rows are counted one nn_core.row_blocks block at a
    time."""
    table = np.zeros(_GRID * _GRID, dtype=np.int64)
    # (y - mu) / sigma and sigma * z may overflow to +-inf, which orders as
    # any other bound would.
    with np.errstate(over="ignore"):
        for rows in row_blocks(y.size):
            m, s, v = mu[rows], sigma[rows], y[rows]
            t = (v - m) / s
            guess = _GUESS[np.clip(t * _GUESS_SCALE + _GUESS_BINS / 2, 0, _GUESS_BINS - 1).astype(np.intp)]
            below = _count_levels(m, s, v, guess.copy(), np.less)
            at_or_below = _count_levels(m, s, v, guess, np.less_equal)
            table += np.bincount(below * _GRID + at_or_below, minlength=_GRID * _GRID)
    return table.reshape(_GRID, _GRID)


def _ece(table: np.ndarray, n: int) -> float:
    # Rows with y < q_k, for k = 1..99: those whose c is below k.
    observed = np.cumsum(table.sum(axis=0))[:-1] / n
    return 100.0 * float(np.mean(np.abs(observed - np.array(QUANTILE_LEVELS))))


def _interval_error(table: np.ndarray, n: int, k: int) -> float:
    """100 * |coverage of (q_tau, q_{1-tau}) - (1 - 2 tau)| at tau = k / 100."""
    inside = int(table[k:, : _GRID - k].sum())
    return 100.0 * abs(inside / n - (1.0 - 2.0 * (k / 100.0)))


def _tce(table: np.ndarray, n: int) -> float:
    return float(np.mean([_interval_error(table, n, round(100 * tau)) for tau in TAIL_LEVELS]))


def _curve(table: np.ndarray, n: int) -> list[tuple[float, float]]:
    return [((100 - 2 * k) / 100.0, _interval_error(table, n, k)) for k in reversed(_CURVE_TAIL_GRID)]


def ece(mu, sigma, y) -> float:
    """Expected calibration error over the 99-level quantile grid.

    For each tau the observed frequency of y < q_tau is compared with tau;
    the result is 100 times the mean absolute gap.
    """
    sigma, mu, y = _validate(sigma, mu, y)
    return _ece(_level_table(mu, sigma, y), y.size)


def tce(mu, sigma, y) -> float:
    """Tail-interval calibration error: mean coverage gap of the central
    90/80/70/60% intervals."""
    sigma, mu, y = _validate(sigma, mu, y)
    return _tce(_level_table(mu, sigma, y), y.size)


def mean_sigma(sigma) -> float:
    """The mean of a finite, positive vector sigma, finite however close its
    entries come to the float maximum: np.mean(sigma) while that sum stays
    finite, else the mean of sigma over its largest entry, times that entry."""
    with np.errstate(over="ignore"):
        mean = np.mean(sigma)
    if not np.isfinite(mean):
        top = np.max(sigma)
        mean = top * np.mean(sigma / top)
    return float(mean)


def _sharpness(sigma: np.ndarray) -> float:
    mean = mean_sigma(sigma)
    if not np.isfinite(100.0 * mean):
        raise ValueError(f"sharpness exceeds the float range: mean sigma is {mean!r}")
    return 100.0 * mean


def sharpness(sigma) -> float:
    """100 times the mean predicted standard deviation (smaller is sharper).
    A ValueError where that exceeds the float range."""
    (sigma,) = _validate(sigma)
    return _sharpness(sigma)


def calibration_curve(mu, sigma, y) -> list[tuple[float, float]]:
    """Per-level interval calibration errors for expected coverages 0.1..0.9.

    Returns (expected_probability, error) pairs in ascending expected
    probability. The four entries at 0.6..0.9 average to the TCE.
    """
    sigma, mu, y = _validate(sigma, mu, y)
    return _curve(_level_table(mu, sigma, y), y.size)


def compute_report(mu, sigma, y) -> MetricsReport:
    """All four metrics, from one validation and one level table."""
    sigma, mu, y = _validate(sigma, mu, y)
    table = _level_table(mu, sigma, y)
    return MetricsReport(
        ece=_ece(table, y.size),
        tce=_tce(table, y.size),
        sharpness=_sharpness(sigma),
        curve=_curve(table, y.size),
        n_test=y.size,
    )
