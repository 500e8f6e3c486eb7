"""Numeric referees for the closed-form integrals: the graded Gauss-Legendre
rule of ``asymptotics.drift_quadrature`` over any interval, on a vectorised
integrand, and scipy's adaptive quadrature, which only the tests import;
and decimal referees for relative errors, of the limit law's tail and the
transitions' moments."""

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
from scipy.integrate import quad

from meanbreak import asymptotics

GAMMAS = (1e-15, 1e-8, 1e-3, 0.5, 1.0, 20.0, 100.0, 1e3, 1e4, 3e4, 1e5, 1e6)
# From gamma = 3e4 on, quad misses one side of a steep logistic layer.
QUAD_MAX_GAMMA = 1e4


def layer_width(shape) -> float:
    """Width of the transition layer in its own coordinate."""
    return 1.0 / shape.gamma if shape.family == "logistic" else 1.0 / math.sqrt(shape.gamma)


def gauss(fn, a: float, b: float) -> float:
    """int_a^b fn (vectorised) by the 20-node Gauss-Legendre rule of
    ``asymptotics``, on the node array."""
    half = 0.5 * (b - a)
    nodes = np.asarray(asymptotics._NODES)
    return half * float(asymptotics._WEIGHTS @ fn(0.5 * (a + b) + half * nodes))


def graded(fn, lo: float, hi: float, centre: float, width: float) -> float:
    """int_lo^hi fn (vectorised) on 20-node Gauss-Legendre panels with edges
    at centre and centre +- 2^k width."""
    edges = asymptotics._graded_edges(centre, width, lo, hi)
    return sum(gauss(fn, a, b) for a, b in zip(edges, edges[1:]))


def adaptive(fn, lo: float, hi: float, centre: float) -> float:
    """int_lo^hi fn (scalar) by QUADPACK, split at centre."""
    points = [centre] if lo < centre < hi else None
    return quad(fn, lo, hi, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


# Referees in decimal arithmetic, for relative errors: at this many digits
# they keep about 40 after the cancellations that the float forms avoid.
DIGITS = 60
PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592307816")


def decimal_tail(z: float) -> Decimal:
    """1 - F(z) = 2 sum_{k>=1} (-1)^(k+1) exp(-2 k^2 z^2) of the sup-|bridge|
    law, summed until the terms fall below 1e-(DIGITS + 5) of the sum."""
    with localcontext() as context:
        context.prec = DIGITS
        z2, total, k = Decimal(z) ** 2, Decimal(0), 1
        while True:
            term = (-2 * k * k * z2).exp()
            if term < Decimal(10) ** -(DIGITS + 5) * total:
                return 2 * total
            total += term if k % 2 else -term
            k += 1


def decimal_cdf(z: float) -> Decimal:
    """F(z) of the sup-|bridge| law by its theta series, sqrt(2 pi) / z
    sum_{k>=1} exp(-(2k - 1)^2 pi^2 / (8 z^2)), summed until the terms fall
    below 1e-(DIGITS + 5) of the sum.  It converges at every z > 0, in
    fewer than 30 terms up to z = 5."""
    with localcontext() as context:
        context.prec = DIGITS
        scale, total, k = PI * PI / (8 * Decimal(z) ** 2), Decimal(0), 1
        while True:
            term = (-(2 * k - 1) ** 2 * scale).exp()
            if term < Decimal(10) ** -(DIGITS + 5) * total:
                return (2 * PI).sqrt() / Decimal(z) * total
            total += term
            k += 1


def decimal_erf(x: Decimal) -> Decimal:
    """erf x = 2 / sqrt(pi) sum_n (-1)^n x^(2n+1) / (n! (2n+1)), by its Taylor
    series.  Its terms grow to about exp(x^2) before they fall, so the sum
    carries x^2 / 2 more digits than the caller's context: for |x| up to
    about 10."""
    with localcontext() as context:
        context.prec += int(x * x / 2) + 5
        term, total, n = x, x, 0  # term: (-1)^n x^(2n+1) / n!
        while abs(term) > Decimal(10) ** -(DIGITS + 10) * abs(total) or n < 2:
            n += 1
            term *= -x * x / n
            total += term / (2 * n + 1)
        erf = 2 * total / PI.sqrt()
    return +erf


def decimal_exponential_moments(tau1: float, gamma: float, a: float, b: float):
    """(int_a^b F, int_a^b F^2) of the exponential transition F = 1 -
    exp(-gamma (x - tau1)^2), from the erf forms, whose cancellation the
    decimal digits absorb."""
    with localcontext() as context:
        context.prec = DIGITS
        g, lo, hi = Decimal(gamma), Decimal(a) - Decimal(tau1), Decimal(b) - Decimal(tau1)

        def gauss_integral(c):  # int_lo^hi exp(-c u^2) du
            root = c.sqrt()
            return PI.sqrt() / (2 * root) * (decimal_erf(root * hi) - decimal_erf(root * lo))

        width = Decimal(b) - Decimal(a)
        return width - gauss_integral(g), width - 2 * gauss_integral(g) + gauss_integral(2 * g)


def decimal_logistic_moments(tau1: float, gamma: float, a: float, b: float):
    """(int_a^b F, int_a^b F^2) of the logistic transition F = 1 / (1 +
    exp(-z)), z = gamma (x - tau1): int F is the softplus difference over
    gamma, and int F^2 = int F - (F(b) - F(a)) / gamma.  The exponent range
    is widened, so w = e^(-|z|) does not underflow at any slope.  Where z <
    0 and w = e^z is below 1e-10, softplus(z) = log1p(w) and softplus(z) -
    F(z) = log1p(w) - w / (1 + w), which cancels down to w^2 / 2, are summed
    as their series, sum_k (-1)^(k+1) w^k / k and sum_{k>=2} (-1)^k (k - 1)
    w^k / k."""
    with localcontext() as context:
        context.prec, context.Emax, context.Emin = DIGITS, MAX_EMAX, MIN_EMIN
        g = Decimal(gamma)

        def ends(x):  # (softplus(z), softplus(z) - F(z)) at z = gamma (x - tau1)
            z = g * (Decimal(x) - Decimal(tau1))
            w = (-abs(z)).exp()
            if z < 0 and w < Decimal("1e-10"):
                soft = square = Decimal(0)
                for k in range(1, DIGITS // 10 + 3):  # to w^8: w^7 < 1e-70
                    term = (-1) ** (k + 1) * w**k / k
                    soft += term
                    square -= (k - 1) * term
                return soft, square
            soft = max(z, Decimal(0)) + (1 + w).ln()
            return soft, soft - (1 if z >= 0 else w) / (1 + w)

        (soft_a, square_a), (soft_b, square_b) = ends(a), ends(b)
        return (soft_b - soft_a) / g, (square_b - square_a) / g


def _decimal_drift(moments, tau1: float, gamma: float, tau: float) -> Decimal:
    """T(tau) = int_0^tau F - tau int_0^1 F from a decimal ``moments``
    referee, the difference taken in DIGITS digits."""
    whole = moments(tau1, gamma, 0.0, 1.0)[0]
    part = moments(tau1, gamma, 0.0, tau)[0]
    with localcontext() as context:
        context.prec = DIGITS
        return part - Decimal(tau) * whole


def decimal_logistic_drift(tau1: float, gamma: float, tau: float) -> Decimal:
    """T(tau) of the logistic transition: below gamma = 1 its two terms, each
    about tau / 2, cancel to about gamma tau (tau - 1) / 8."""
    return _decimal_drift(decimal_logistic_moments, tau1, gamma, tau)


def decimal_exponential_drift(tau1: float, gamma: float, tau: float) -> Decimal:
    """T(tau) of the exponential transition, from the erf forms of
    ``decimal_exponential_moments``."""
    return _decimal_drift(decimal_exponential_moments, tau1, gamma, tau)
