"""Two-sample variance-equality testing and the special functions behind it.

All operations are pure functions; the incomplete beta continued fraction
keeps this module free of heavyweight dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "DegenerateVarianceError",
    "LeveneResult",
    "levene_statistic",
    "levene_statistics_at_cuts",
    "levene_test",
    "normal_inverse_cdf",
    "regularized_incomplete_beta",
    "student_t_cdf",
]

_BETA_CF_TOL = 1e-12
_BETA_CF_MAX_ITER = 300
_CF_TINY = 1e-300
_STANDARD_NORMAL = NormalDist()


class DegenerateVarianceError(ValueError):
    """Pooled deviation variance is exactly zero; the test is undefined."""


@dataclass(frozen=True)
class LeveneResult:
    """Outcome of the two-sample spread-equality test."""

    statistic: float
    degrees_of_freedom: int
    p_value: float


def levene_statistic(e_left, e_right) -> float:
    """Statistic of the two-sample test for equal variance.

    Each group is reduced to absolute deviations from its own mean, and the
    statistic is the pooled-variance t statistic comparing the two deviation
    samples:

        T = (zbar_L - zbar_R) / (w_pool * sqrt(1/n_L + 1/n_R))

    with sample variances on the n-1 convention and n_L + n_R - 2 degrees of
    freedom.

    Raises ValueError if a group has fewer than 2 elements and
    DegenerateVarianceError if the pooled deviation variance is zero (callers
    searching over split candidates should skip such candidates).
    """
    left = np.asarray(e_left, dtype=float)
    right = np.asarray(e_right, dtype=float)
    if left.ndim != 1 or right.ndim != 1:
        raise ValueError("residual groups must be one-dimensional")
    n_l, n_r = left.size, right.size
    if n_l < 2 or n_r < 2:
        raise ValueError("each residual group needs at least 2 elements")
    if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
        raise ValueError("residuals must be finite")

    z_left = np.abs(left - left.mean())
    z_right = np.abs(right - right.mean())
    w2_left = float(z_left.var(ddof=1))
    w2_right = float(z_right.var(ddof=1))
    pooled = ((n_l - 1) * w2_left + (n_r - 1) * w2_right) / (n_l + n_r - 2)
    if pooled <= 0.0:
        raise DegenerateVarianceError(
            "zero pooled deviation variance (both groups have constant spread)"
        )
    return (float(z_left.mean()) - float(z_right.mean())) / math.sqrt(
        pooled * (1.0 / n_l + 1.0 / n_r)
    )


def levene_statistics_at_cuts(ordered_residuals, left_sizes) -> np.ndarray:
    """|levene_statistic| of every cut of one residual sequence, in one pass.

    Cut c puts ordered_residuals[:left_sizes[c]] on the left and the rest on
    the right; left_sizes must be ascending, each leaving at least 2
    residuals per side. The residuals are centred once (T does not depend
    on a shift), and each side's mean m and squared deviations come from
    prefix sums. Its absolute deviations sum to 2 * (S - N * m), with S and
    N the sum and count of its residuals above m (the deviations sum to
    zero); _sums_above gives those for all cuts at once. The right side is
    the left side of the reversed sequence.

    The moment formulas lose the last digits where the deviations |e - m|
    are nearly constant, so callers that need exact values re-score their
    finalists with levene_statistic. The entry is NaN where the computed
    pooled deviation variance is not positive; such a cut may be degenerate.
    """
    e = np.asarray(ordered_residuals, dtype=float)
    sizes = np.asarray(left_sizes)
    if e.ndim != 1 or sizes.ndim != 1 or sizes.dtype.kind not in "iu":
        raise ValueError("residuals and left sizes must be one-dimensional, sizes integers")
    n = e.size
    if sizes.size and (sizes[0] < 2 or sizes[-1] > n - 2 or np.any(np.diff(sizes) <= 0)):
        raise ValueError("left sizes must ascend within [2, n - 2]")
    if not np.all(np.isfinite(e)):
        raise ValueError("residuals must be finite")
    if not sizes.size:
        return np.empty(0)
    e = e - e.mean()
    n_l = sizes.astype(float)
    n_r = n - n_l
    ss_l, sad_l = _side_moments(e, sizes)
    ss_r, sad_r = (part[::-1] for part in _side_moments(e[::-1], n - sizes[::-1]))
    pooled = (ss_l - sad_l * sad_l / n_l + ss_r - sad_r * sad_r / n_r) / (n - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        abs_t = np.abs(sad_l / n_l - sad_r / n_r) / np.sqrt(pooled * (1.0 / n_l + 1.0 / n_r))
    return np.where(pooled > 0.0, abs_t, np.nan)


def _side_moments(e: np.ndarray, sizes: np.ndarray):
    """Sum of squared and of absolute deviations from the mean of e[:L],
    for each L in the ascending sizes."""
    mean = _prefix_sums(e, sizes) / sizes
    squares = _prefix_sums(e * e, sizes) - sizes * mean * mean
    above_sum, above_count = _sums_above(e, sizes, mean)
    return squares, 2.0 * (above_sum - above_count * mean)


def _prefix_sums(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """x[:L].sum() for each L in the ascending sizes: one sum per segment
    between consecutive sizes, then a cumsum over the segments."""
    starts = np.concatenate(([0], sizes[:-1]))
    return np.add.reduceat(x[: sizes[-1]], starts, dtype=np.result_type(x, np.intp)).cumsum()


# A dominance table is (cuts + 1) x cuts, so blocking the cuts bounds it
# whatever the stride. Each block also re-reads its residuals. In medians of
# 11 interleaved serial scans, scan-wide-d16's root took 27.9, 19.9, 17.4,
# 18.1 and 17.9 ms at 32, 64, 128, 256 and 512 cuts, and its children and
# fit-hetero-d8's root within 4% from 128 cuts up. Larger blocks won
# only where cuts are dense (stride 1 on 2,000 rows: 6.0 ms at 256 cuts
# against 7.0) and lost where the table runs (on 90%-zero residuals 33.5
# and 51.6 ms at 256 and 512 cuts against 21.1).
_CUTS_PER_TABLE = 128
# A block compares its band directly while the band holds at most this many
# rows per cut: its two bool (cuts x rows) arrays then take no more memory
# than the table. At 128 cuts the direct comparison cost less than the table
# up to about 6 rows per cut.
_DIRECT_ROWS_PER_CUT = 4


def _sums_above(e: np.ndarray, sizes: np.ndarray, thresholds: np.ndarray):
    """Sum and count of the entries of e[:sizes[c]] above thresholds[c], for
    every c, with no loop over single cuts.

    Per block of cuts, an entry above the block's highest threshold counts
    for every cut that holds it, so one prefix sum gives those; an entry at
    or below the lowest counts for none. Only the band of entries between
    the two is compared with each cut's threshold: directly while it holds
    at most _DIRECT_ROWS_PER_CUT entries per cut, else through
    _dominance_table.
    """
    sums = np.empty(sizes.size)
    counts = np.empty(sizes.size)
    for start in range(0, sizes.size, _CUTS_PER_TABLE):
        block = slice(start, start + _CUTS_PER_TABLE)
        cut_sizes, cut_thresholds = sizes[block], thresholds[block]
        head = e[: cut_sizes[-1]]
        above = head > cut_thresholds.max()
        sums[block] = _prefix_sums(np.where(above, head, 0.0), cut_sizes)
        counts[block] = _prefix_sums(above, cut_sizes)
        band = np.flatnonzero((head > cut_thresholds.min()) & ~above)
        values = head[band]
        if band.size <= _DIRECT_ROWS_PER_CUT * cut_sizes.size:
            inside = band < cut_sizes[:, None]
            inside &= values > cut_thresholds[:, None]
            band_sums, band_counts = np.einsum("cj,j->c", inside, values), np.count_nonzero(inside, axis=1)
        else:
            band_sums, band_counts = _dominance_table(values, band, cut_sizes, cut_thresholds)
        sums[block] += band_sums
        counts[block] += band_counts
    return sums, counts


def _dominance_table(values, positions, cut_sizes, cut_thresholds):
    """Sum and count of the values at positions below cut_sizes[c] and above
    cut_thresholds[c], for every c of one block.

    One bincount tallies each value by its row (how many thresholds are at
    or above it) and its segment (how many cuts leave it on the right).
    After prefix cumsums over rows and over segments, cell
    (threshold_row[c], c) holds the sum over the values left of cut c and
    above its threshold.
    """
    q = cut_sizes.size
    by_value = np.argsort(cut_thresholds, kind="stable")
    rows = q - np.searchsorted(cut_thresholds[by_value], values, side="left")
    segment = np.searchsorted(cut_sizes, positions, side="right")
    cell = rows * q + segment
    threshold_row = np.empty(q, dtype=int)
    threshold_row[by_value] = np.arange(q - 1, -1, -1)  # rows 0..threshold_row[c] lie above it
    out = []
    for weights in (values, None):
        table = np.bincount(cell, weights=weights, minlength=(q + 1) * q).reshape(q + 1, q)
        table.cumsum(axis=0, out=table)
        table.cumsum(axis=1, out=table)
        out.append(table[threshold_row, np.arange(q)])
    return out


def levene_test(e_left, e_right) -> LeveneResult:
    """levene_statistic with its two-sided p-value: either direction of
    variance inequality counts as evidence against equality. The p-value is
    twice the lower tail at -|T|, not 2 * (1 - F(|T|)), which would cancel
    to 0 below about 1e-16."""
    statistic = levene_statistic(e_left, e_right)
    df = len(e_left) + len(e_right) - 2
    p_value = 2.0 * student_t_cdf(-abs(statistic), df)
    return LeveneResult(statistic=statistic, degrees_of_freedom=df, p_value=min(p_value, 1.0))


def student_t_cdf(t: float, df: int) -> float:
    """Student-t distribution function via the regularized incomplete beta.

    For t >= 0, F(t) = 1 - I_x(df/2, 1/2) / 2 with x = df / (df + t^2); the
    t < 0 branch follows by symmetry. Absolute accuracy is well below 1e-10
    over the df range used here.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    t = float(t)
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t > 0.0 else tail


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Evaluated with a Lentz-style continued fraction, switching to the
    symmetric form when x is past (a+1)/(a+b+2) so the fraction converges.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + numerator / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + numerator / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_CF_TOL:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def normal_inverse_cdf(tau: float) -> float:
    """Standard normal quantile function, from the standard library's
    statistics.NormalDist (Wichura's AS241 algorithm, accurate to about
    1e-16 relative)."""
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly between 0 and 1")
    return _STANDARD_NORMAL.inv_cdf(tau)
