"""Distribution of the supremum of the absolute Brownian bridge.

CDF F(z) = 1 + 2 * sum_{k>=1} (-1)^k exp(-2 k^2 z^2), the null limit law of
the sup-CUSUM statistic.  The series converges extremely fast for z away
from 0 (two terms give seven-digit accuracy at the usual critical values);
for small z the equivalent theta-transformed series is used instead, where
the plain form would need hundreds of terms.
"""

from __future__ import annotations

import math
import sys
from math import exp

__all__ = ["bridge_sup_cdf", "p_value", "bridge_sup_quantile"]

# The alternating series stops once the next term is below this, and after
# at most this many terms.
_TRUNCATION_TOLERANCE = 1e-15
_MAX_TERMS = 100
# Below this z every theta term exp(-pi^2 / (8 z^2)) underflows to 0 (the
# exponent is beyond -771), so the CDF is exactly 0.0; the series itself
# would divide by zero once 8 z^2 underflows, near z = 1e-162.
_CDF_ZERO_BELOW = 0.04
# Per-term factors of the exponents, computed once.  -2 k^2 and 4 k^2 are
# exact, and (2k - 1)^2 pi^2 rounds once, as in the exponent written out in
# full, so c * z * z and c / (8 z^2) round as the written-out exponents.
# _ALTERNATING holds, per term k: the sign (-1)^k as a float, which
# multiplies exactly, 4 k^2, and -2 (k + 1)^2 for the next term, whose exp
# is first the stopping check.
_ALTERNATING = [(-1.0 if k % 2 else 1.0, 4.0 * k * k, -2.0 * (k + 1) ** 2)
                for k in range(1, _MAX_TERMS + 1)]
_THETA = [(2 * k - 1) ** 2 * math.pi**2 for k in range(1, _MAX_TERMS + 1)]
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
    """F(z), or (F(z), F'(z)) with ``density``: each series is walked once,
    and F' is its term-by-term derivative from the same ``exp`` terms.  The
    plain and the density walks are separate loops with the same additions,
    so F has the same bits in both, and no term of either pays a branch."""
    if z < _CDF_ZERO_BELOW:
        return (0.0, 0.0) if density else 0.0
    if z < 0.5:
        # The alternating series needs ~4/z terms at small z, so switch to
        # the dual theta representation, which converges in a term or two
        # there and keeps the CDF monotone all the way down to 0.
        factor = math.sqrt(2.0 * math.pi) / z
        scale = 8.0 * z * z
        total = 0.0
        if not density:
            for coefficient in _THETA:
                term = factor * exp(-(coefficient / scale))
                total += term
                if term < _TRUNCATION_TOLERANCE:
                    break
            return total
        slope = 0.0
        for coefficient in _THETA:
            exponent = coefficient / scale
            term = factor * exp(-exponent)
            total += term
            # d/dz (c / z) exp(-a / z^2) = (c / z) exp(-a / z^2) (2 a / z^2 - 1) / z
            slope += term * (2.0 * exponent - 1.0) / z
            if term < _TRUNCATION_TOLERANCE:
                break
        return total, slope
    # Each term's exp serves first as the stopping check of the term before.
    total = 1.0
    term = 2.0 * exp(-2.0 * z * z)
    if not density:
        for sign, _, following in _ALTERNATING:
            total += sign * term
            term = 2.0 * exp(following * z * z)
            if term < _TRUNCATION_TOLERANCE:
                break
        return total
    slope = 0.0
    for sign, derivative, following in _ALTERNATING:
        signed = sign * term
        total += signed
        # d/dz 2 exp(-2 k^2 z^2) = -4 k^2 z * 2 exp(-2 k^2 z^2)
        slope -= derivative * z * signed
        term = 2.0 * exp(following * z * z)
        if term < _TRUNCATION_TOLERANCE:
            break
    return total, slope


def p_value(statistic: float) -> float:
    """Asymptotic p-value 1 - F(statistic) of a nonnegative sup-statistic."""
    statistic = float(statistic)
    if not statistic >= 0.0:  # nan too
        raise ValueError(f"statistic must be nonnegative, got {statistic}")
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
    reads w - ln(w) / 2 = ln(16 / pi) / 2 - ln p, by two Newton steps in w.
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
