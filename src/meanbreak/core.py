"""CUSUM-based LM test for a change in the mean of a heteroskedastic series.

The test statistic is the supremum of the absolute normalized cumulative sum
of deviations from the full-sample mean.  Under no change in the mean the
statistic converges to the supremum of the absolute Brownian bridge, whose
distribution lives in :mod:`meanbreak.dist`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from meanbreak import dist

__all__ = [
    "DegenerateSeriesError",
    "InsufficientDataError",
    "NullEstimates",
    "CusumPath",
    "TestOutcome",
    "compute_returns",
    "absolute_transform",
    "null_estimates",
    "cusum_path",
    "lm_test",
]


class InsufficientDataError(ValueError):
    """Raised when a series is too short for estimation or testing."""


class DegenerateSeriesError(ValueError):
    """Raised when the series is constant and the statistic is undefined."""


def as_series(values, min_length: int = 1) -> np.ndarray:
    """Validate and coerce ``values`` into a 1-D float64 array.

    Rejects non-finite entries and series shorter than ``min_length``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_length:
        raise InsufficientDataError(
            f"series has {arr.size} observations, need at least {min_length}"
        )
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"series contains a non-finite value at index {bad}")
    return arr


@dataclass(frozen=True)
class NullEstimates:
    """Maximum likelihood estimates under a constant-mean Gaussian model."""

    mu_hat: float
    sigma2_hat: float  # MLE variance, divisor n


@dataclass(frozen=True)
class CusumPath:
    """Normalized CUSUM path on the grid k/n, k = 0..n."""

    points: np.ndarray  # length n + 1, endpoints exactly zero
    scale: float  # the sigma_hat used for normalization


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    p_value: float
    break_index: int  # smallest k attaining the max, 1 <= k <= n - 1
    reject: bool
    alpha: float
    mu_hat: float  # as in NullEstimates, from the same kernel pass
    sigma2_hat: float


def compute_returns(prices) -> np.ndarray:
    """Log returns r_t = log P_t - log P_{t-1} of a strictly positive series."""
    arr = as_series(prices, min_length=2)
    if np.any(arr <= 0.0):
        bad = int(np.flatnonzero(arr <= 0.0)[0])
        raise ValueError(f"nonpositive price {arr[bad]} at index {bad}")
    return np.diff(np.log(arr))


def absolute_transform(series) -> np.ndarray:
    """Elementwise absolute value, e.g. absolute returns y_t = |r_t|."""
    return np.abs(as_series(series))


def _centred_rows(y: np.ndarray, out: np.ndarray | None = None):
    """Check, scale and centre each row of a (rows x n) float64 array.

    Each row is scaled by the power of two that brings max|y| into
    [0.5, 1): the scaling is exact, so results on normal-range data are
    unchanged, and the sum of squares cannot overflow, nor underflow unless
    a row varies by less than about 1e-150 of its largest value.  Returns
    the centred rows (written to ``out`` if given), their scaled means, the
    exponents that scale the estimates back, and the constant-row flags.
    """
    hi, lo = y.max(axis=1), y.min(axis=1)
    largest = np.maximum(hi, -lo)  # nan or inf if not finite
    if not np.isfinite(largest).all():
        bad = np.argwhere(~np.isfinite(y))[0][1]
        raise ValueError(f"series contains a non-finite value at index {bad}")
    exponent = np.frexp(largest)[1]
    d = np.ldexp(y, -exponent[:, None], out=out)
    # Extremes, not the variance: the mean of a constant row can leave
    # rounding residue, so such a row is centred on its first value instead.
    degenerate = hi == lo
    mu = np.where(degenerate, d[:, 0], d.mean(axis=1))
    d -= mu[:, None]
    return d, mu, exponent, degenerate


def _estimates(series):
    """Check, scale and centre one series of at least two observations
    (:func:`_centred_rows`).  Returns the centred row (None if the series is
    constant), its scaled sigma_hat and the exponent that scales it back,
    mu_hat, and sigma2_hat (divisor n; inf where it exceeds the float range).
    """
    y = as_series(series, min_length=2)[None, :]
    d, mu, exponent, degenerate = _centred_rows(y)
    mu_hat = float(np.ldexp(mu, exponent)[0])
    if degenerate[0]:
        return None, None, exponent, mu_hat, 0.0
    sigma2 = np.vecdot(d, d) / y.shape[1]
    with np.errstate(over="ignore"):
        sigma2_hat = float(np.ldexp(sigma2, 2 * exponent)[0])
    return d, np.sqrt(sigma2), exponent, mu_hat, sigma2_hat


def _bridge(d: np.ndarray, grid: np.ndarray, scratch=None) -> np.ndarray:
    """Overwrite each row of centred values with S_k - (k/n) S_n on ``grid``
    = k/n, k = 1..n (the last entry zero by construction), and return each
    row's largest |.|.  Division by a positive number is monotone under
    rounding, so the scaled largest is the scaled path's largest exactly."""
    np.cumsum(d, axis=1, out=d)
    d -= np.multiply(grid, d[:, -1:], out=scratch)
    return np.maximum(d.max(axis=1), -d.min(axis=1))


def _cusum(series):
    """Normalized CUSUM statistic of one series of at least two observations.

    Returns the statistic sup |B(k/n)|, the first k attaining it, mu_hat,
    sigma2_hat and sigma_hat of :func:`_estimates`, and the path.  A
    constant series raises :class:`DegenerateSeriesError`.
    """
    d, sigma, exponent, mu_hat, sigma2_hat = _estimates(series)
    if d is None:
        raise DegenerateSeriesError(
            "series is constant (zero variance); the test statistic is undefined"
        )
    n = d.shape[1]
    largest = _bridge(d, np.arange(1, n + 1) / n)[0]
    scale = math.sqrt(n) * sigma[0]
    points = np.zeros(n + 1)
    np.divide(d[0], scale, out=points[1:])
    k = int(np.abs(points).argmax())  # first occurrence
    return (float(largest / scale), k, mu_hat, sigma2_hat,
            float(np.ldexp(sigma, exponent)[0]), points)


def _cusum_sup(y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The :func:`_cusum` statistic of each row of a (rows x n) float64
    array, nan on constant rows, computed in ``y``, which it overwrites.
    ``grid`` is k/n for k = 1..n; a caller with many blocks of one n builds
    it once.

    Both kernels share :func:`_bridge` and differ only in sigma_hat's sum of
    squares.  Here it is numpy's pairwise sum, not ``np.vecdot``: vecdot
    calls BLAS ``ddot``, which above about 10,000 values wakes OpenBLAS
    helper threads that keep spinning after the call, oversubscribing the
    worker processes, and whose bits depend on the thread count.  The two
    sums differ by a few ulps, the statistics by at most 4 ulps in the
    tests.  ``_cusum`` keeps vecdot because the ``cli_test`` benchmark
    golden pins its bits; a change that regenerates that golden can move it
    to this sum.
    """
    n = y.shape[1]
    d = _centred_rows(y, out=y)[0]
    scratch = np.square(d)
    sigma = np.sqrt(scratch.sum(axis=1) / n)
    largest = _bridge(d, grid, scratch)
    with np.errstate(invalid="ignore"):  # a constant row is all zeros: 0 / 0
        return largest / (math.sqrt(n) * sigma)


def null_estimates(series) -> NullEstimates:
    """Sample mean and MLE variance (divisor n) of the series.

    The variance is ``inf`` when it exceeds the float range (spreads above
    about 1e154) and underflows to 0 for spreads below about 1e-162; the
    mean, the CUSUM path and the test stay defined at any scale.
    """
    mu_hat, sigma2_hat = _estimates(series)[3:]
    return NullEstimates(mu_hat=mu_hat, sigma2_hat=sigma2_hat)


def cusum_path(series) -> CusumPath:
    """Normalized CUSUM path B(k/n) = sum_{t<=k}(y_t - mean) / (sqrt(n) * sd)."""
    sigma_hat, points = _cusum(series)[4:]
    return CusumPath(points=points, scale=sigma_hat)


def lm_test(series, alpha: float = 0.05) -> TestOutcome:
    """Test for a change in the mean at significance level ``alpha``.

    Returns the sup-statistic, its asymptotic p-value, the smallest grid
    index attaining the maximum, the rejection decision, and the null
    estimates.  A constant series raises :class:`DegenerateSeriesError`.
    The result does not depend on the scale of the series, down to 1e-300
    and up to 1e300.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    statistic, break_index, mu_hat, sigma2_hat = _cusum(series)[:4]
    p = dist.p_value(statistic)
    return TestOutcome(
        statistic=statistic,
        p_value=p,
        break_index=break_index,
        reject=p < alpha,
        alpha=alpha,
        mu_hat=mu_hat,
        sigma2_hat=sigma2_hat,
    )
