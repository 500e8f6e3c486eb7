"""Numeric referees for the closed-form integrals: the graded Gauss-Legendre
rule of ``asymptotics.drift_quadrature`` over any interval, on a vectorised
integrand, and scipy's adaptive quadrature, which only the tests import."""

import math

import numpy as np
from scipy.integrate import quad

from meanbreak import asymptotics

GAMMAS = (0.5, 1.0, 20.0, 100.0, 1e3, 1e4, 3e4, 1e5, 1e6)
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
