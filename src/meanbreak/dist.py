"""Distribution of the supremum of the absolute Brownian bridge.

CDF F(z) = 1 + 2 * sum_{k>=1} (-1)^k exp(-2 k^2 z^2), the null limit law of
the sup-CUSUM statistic.  The series converges extremely fast for z away
from 0 (two terms give seven-digit accuracy at the usual critical values);
for small z the equivalent theta-transformed series is used instead, where
the plain form would need hundreds of terms.
"""

from __future__ import annotations

import math

__all__ = ["bridge_sup_cdf", "p_value", "bridge_sup_quantile"]

# The alternating series stops once the next term is below this, and after
# at most this many terms.
_TRUNCATION_TOLERANCE = 1e-15
_MAX_TERMS = 100
# Below this z every theta term exp(-pi^2 / (8 z^2)) underflows to 0 (the
# exponent is beyond -771), so the CDF is exactly 0.0; the series itself
# would divide by zero once 8 z^2 underflows, near z = 1e-162.
_CDF_ZERO_BELOW = 0.04


def bridge_sup_cdf(z: float) -> float:
    """P(sup |bridge| <= z).  Zero for z < 0.04; clamped to [0, 1]; a nan z
    raises ``ValueError``."""
    z = float(z)
    if math.isnan(z):
        raise ValueError("z must be a number, got nan")
    return _cdf(z)


def _cdf(z: float) -> float:
    if z < _CDF_ZERO_BELOW:
        return 0.0
    if z < 0.5:
        # The alternating series needs ~4/z terms at small z, so switch to
        # the dual theta representation, which converges in a term or two
        # there and keeps the CDF monotone all the way down to 0.
        factor = math.sqrt(2.0 * math.pi) / z
        total = 0.0
        for k in range(1, _MAX_TERMS + 1):
            term = factor * math.exp(
                -((2 * k - 1) ** 2) * math.pi**2 / (8.0 * z * z)
            )
            total += term
            if term < _TRUNCATION_TOLERANCE:
                break
        return min(max(total, 0.0), 1.0)
    total = 1.0
    for k in range(1, _MAX_TERMS + 1):
        total += 2.0 * (-1.0) ** k * math.exp(-2.0 * k * k * z * z)
        nxt = k + 1
        if 2.0 * math.exp(-2.0 * nxt * nxt * z * z) < _TRUNCATION_TOLERANCE:
            break
    return min(max(total, 0.0), 1.0)


def p_value(statistic: float) -> float:
    """Asymptotic p-value 1 - F(statistic) of a nonnegative sup-statistic."""
    statistic = float(statistic)
    if not statistic >= 0.0:  # nan too
        raise ValueError(f"statistic must be nonnegative, got {statistic}")
    return min(max(1.0 - _cdf(statistic), 0.0), 1.0)


def bridge_sup_quantile(p: float) -> float:
    """Inverse CDF by bracketing and bisection on the monotone CDF."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    lo, hi = 0.0, 1.0
    while _cdf(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)
