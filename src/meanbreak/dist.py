"""Distribution of the supremum of the absolute Brownian bridge.

CDF F(z) = 1 + 2 * sum_{k>=1} (-1)^k exp(-2 k^2 z^2), the null limit law of
the sup-CUSUM statistic.  The series converges extremely fast for z away
from 0 (two terms give seven-digit accuracy at the usual critical values).
Below z = 0.5 the plain form would need up to hundreds of terms, so F is
the first term of the equivalent theta-transformed series there, whose
second term is below half an ulp of it.
"""

from __future__ import annotations

import math
import sys
from math import exp

__all__ = ["bridge_sup_cdf", "p_value", "bridge_sup_quantile"]

# The alternating walk's stops are where its terms fall below this.
_TRUNCATION_TOLERANCE = 1e-15
# Below this z the theta term exp(-pi^2 / (8 z^2)) underflows to 0 (the
# exponent is beyond -771), so the CDF is exactly 0.0; the term itself would
# divide by zero once 8 z^2 underflows, near z = 1e-162.
_CDF_ZERO_BELOW = 0.04
# From here on the p-value is the tail's first term (see p_value).
_TAIL_FROM = 2.3


def _stop(following: float) -> float:
    """The least z at which the term 2 exp(following z^2), rounded as the
    walk rounds it, is below the tolerance: the analytic root, moved onto
    the boundary by ``nextafter`` steps."""
    z = math.sqrt(math.log(0.5 * _TRUNCATION_TOLERANCE) / following)
    while 2.0 * exp(following * z * z) < _TRUNCATION_TOLERANCE:
        z = math.nextafter(z, 0.0)
    while not 2.0 * exp(following * z * z) < _TRUNCATION_TOLERANCE:
        z = math.nextafter(z, math.inf)
    return z


# Per-term factors, computed once.  _ALTERNATING holds, per term k: 2 (-1)^k,
# which multiplies exactly, -2 k^2 and 4 k^2, exact too, so c * z * z rounds
# as the exponent written out in full, and the stop: from there on term k + 1
# is below the tolerance, so the walk ends with term k.  The table ends at
# term 8, the last that z >= 0.5 reaches (its stop is 0.466).  _THETA is the
# first theta term's pi^2.
_ALTERNATING = [(2.0 if k % 2 == 0 else -2.0, -2.0 * k * k, 4.0 * k * k,
                 _stop(-2.0 * (k + 1) ** 2)) for k in range(1, 9)]
_THETA = math.pi**2
# Below this p (the smallest normal float) F resolves few bits of p.
_SMALLEST_NORMAL = sys.float_info.min


def bridge_sup_cdf(z: float) -> float:
    """P(sup |bridge| <= z).  Zero for z < 0.04; a nan z raises
    ``ValueError``."""
    z = float(z)
    if math.isnan(z):
        raise ValueError("z must be a number, got nan")
    return _cdf(z)


def _cdf(z: float, density: bool = False):
    """F(z), or (F(z), F'(z)) with ``density``: F' is the term-by-term
    derivative of F's series, from the same ``exp`` terms.  F's additions
    are the same with or without the density, so F has the same bits in
    both."""
    if z < _CDF_ZERO_BELOW:
        return (0.0, 0.0) if density else 0.0
    if z < 0.5:
        # The alternating series needs ~4/z terms at small z, so use the
        # dual theta series sqrt(2 pi) / z sum_k exp(-(2k - 1)^2 pi^2 / (8 z^2)).
        # Its first term is exact in floats here: the second is at most
        # exp(-pi^2 / z^2) < exp(-4 pi^2) of it, under half an ulp of F, and
        # its derivative is under half an ulp of F' (0.82 of one at the float
        # below 0.5), so adding either, both positive, rounds back.
        exponent = _THETA / (8.0 * z * z)
        term = math.sqrt(2.0 * math.pi) / z * exp(-exponent)
        # d/dz (c / z) exp(-a / z^2) = (c / z) exp(-a / z^2) (2 a / z^2 - 1) / z
        return (term, term * (2.0 * exponent - 1.0) / z) if density else term
    total, slope = 1.0, 0.0
    for twice, exponent, derivative, stop in _ALTERNATING:
        signed = twice * exp(exponent * z * z)
        total += signed
        if density:
            # d/dz 2 exp(-2 k^2 z^2) = -4 k^2 z * 2 exp(-2 k^2 z^2)
            slope -= derivative * z * signed
        if z >= stop:
            break
    return (total, slope) if density else total


def p_value(statistic: float) -> float:
    """Asymptotic p-value 1 - F(statistic) of a nonnegative sup-statistic.

    From z = 2.3 on, where 1 - F would cancel, it is the tail's first term
    2 exp(-2 z^2), the only term the walk of F adds there: the second is
    below 1.7e-14 of it.  Relative error: below 6e-14 from there to the
    smallest normal p (z = 18.8), and below 3.4e-12 under 2.3."""
    statistic = float(statistic)
    if not statistic >= 0.0:  # nan too
        raise ValueError(f"statistic must be nonnegative, got {statistic}")
    if statistic >= _TAIL_FROM:
        return 2.0 * exp(-2.0 * statistic * statistic)
    return 1.0 - _cdf(statistic)


def bridge_sup_quantile(p: float) -> float:
    """Inverse CDF by Newton steps kept inside a bisection bracket (rtsafe).

    F(z) >= 1 - 2 exp(-2 z^2), the series cut after its first term, so the
    root lies in [0, hi] with hi = sqrt(ln(2 / (1 - p)) / 2), and the bracket
    costs no walk of the series.  The start is a tail inverse.  Above
    p = 0.5 it inverts the series' first two terms, 1 - 2u + 2u^4 = p with
    u = exp(-2 z^2), by two fixed-point steps u = q + u^4 from
    q = (1 - p) / 2.  Below it, it inverts the first theta term,
    sqrt(2 pi) / z exp(-pi^2 / (8 z^2)) = p, which with w = pi^2 / (8 z^2)
    reads w - ln(w) / 2 = ln(16 / pi) / 2 - ln p, by two Newton steps in w;
    below p = F(0.5) = 0.036 that term is F, and the start is the root but
    for rounding.
    Either start lies in (0, hi]; above about p = 1 - 1e-5, where q^4 is
    lost next to q, it is hi, which is then the root to within rounding.

    A step that would leave the bracket, or that does not halve the step
    before the last one, is replaced by bisection: in the convex lower tail,
    where F ~ exp(-pi^2 / (8 z^2)), plain Newton crawls.  Stops at a zero
    residual or a step below 1e-14.  At a subnormal p, F resolves so few bits
    that the steps stop halving and would bisect the bracket down to 1e-14,
    so there it also stops once |F(z) - p| stops falling, at the z of the
    least |F(z) - p| seen.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    q = 0.5 * (1.0 - p)
    lo, hi = 0.0, math.sqrt(-math.log(q) / 2.0)  # F(lo) < p <= F(hi)
    if p > 0.5:
        z = math.sqrt(-math.log(q + (q + q**4) ** 4) / 2.0)
    else:
        c = 0.5 * math.log(16.0 / math.pi) - math.log(p)
        w = c + 0.5 * math.log(c)
        for _ in range(2):
            w -= (w - 0.5 * math.log(w) - c) / (1.0 - 0.5 / w)
        z = math.pi / math.sqrt(8.0 * w)
    step = before = hi - lo
    least, best = math.inf, z  # |F(z) - p| and its z, kept at a subnormal p
    for _ in range(200):
        cdf, slope = _cdf(z, density=True)
        residual = cdf - p
        if residual == 0.0:
            return z
        if p < _SMALLEST_NORMAL:
            if abs(residual) >= least:
                return best
            least, best = abs(residual), z
        if residual < 0.0:
            lo = z
        else:
            hi = z
        newton = residual / slope if slope > 0.0 else math.inf
        # z is an end of the bracket now, and a last step can round back to
        # it, so the bracket test includes its ends.
        if lo <= z - newton <= hi and abs(newton) <= 0.5 * abs(before):
            before, step = step, newton
            z -= step
        else:
            before, step = step, 0.5 * (hi - lo)
            z = lo + step
        if abs(step) < 1e-14:
            break
    return z
