"""Limit quantities behind the test: drift shape under smooth alternatives,
limiting variances of the null variance estimator under both alternatives,
and the normalized partial-sum process used for FCLT diagnostics.

The drift function is T(tau) = int_0^tau F - tau * int_0^1 F for a transition
F.  The drift and the limiting variances are closed forms, from the
antiderivatives of F and F^2 in ``signals``.  ``drift_quadrature`` integrates
T numerically, on a graded Gauss-Legendre rule, as an independent check of
the closed forms.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from meanbreak import signals
from meanbreak.signals import TransitionSpec, partial_variance_limit

__all__ = [
    "drift_quadrature",
    "drift_closed_logistic",
    "drift_closed_exponential",
    "LimitVariance",
    "limit_variance_abrupt",
    "limit_variance_smooth",
    "partial_variance_limit",
    "wn_path",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_NODES = _NODES.tolist()  # Python floats: see _gauss


def _gauss(spec: TransitionSpec, a: float, b: float) -> float:
    """int_a^b F by the 20-node Gauss-Legendre rule, for F the transition of
    ``spec``.  The nodes and F at them are Python floats, in the operation
    order of ``transition`` on the node array, which gives its bits without
    numpy's per-call cost on 20 values.  The exponential keeps numpy's
    ``expm1`` (libm's differs in the last bits on some machines), and the
    weights' dot stays numpy's, whose sum rounds unlike a Python one."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    neg_gamma, tau1 = -spec.gamma, spec.tau1
    if spec.family == "logistic":
        try:
            values = [1.0 / (1.0 + math.exp(neg_gamma * (mid + half * u - tau1)))
                      for u in _NODES]
        except OverflowError:
            values = [1.0 / (1.0 + signals._exp_or_inf(neg_gamma * (mid + half * u - tau1)))
                      for u in _NODES]
    else:  # squared as d * d, as numpy squares an array
        values = -np.expm1([neg_gamma * ((d := mid + half * u - tau1) * d) for u in _NODES])
    return half * float(_WEIGHTS @ np.asarray(values))


def _graded_edges(centre: float, width: float, lo: float, hi: float) -> list[float]:
    """Panel edges on [lo, hi] at ``centre`` and centre +- 2^k width: panels
    double in length away from a layer of the given width, so that each
    holds the integrand to about the same relative accuracy."""
    edges = {lo, hi}
    if lo < centre < hi:
        edges.add(centre)
    step = width
    while centre - step > lo or centre + step < hi:
        edges.update(e for e in (centre - step, centre + step) if lo < e < hi)
        step *= 2.0
    return sorted(edges)


@functools.lru_cache(maxsize=256)
def _panels(spec: TransitionSpec):
    """Panel edges on [0, 1] around the transition layer, whose width is
    1/gamma (logistic) or 1/sqrt(gamma) (exponential), and int_0^edge F at
    each edge, once per spec: a drift grid then integrates one partial
    panel per tau.  The spec is frozen, and equal specs give the same bits."""
    width = 1.0 / spec.gamma if spec.family == "logistic" else 1.0 / math.sqrt(spec.gamma)
    edges = _graded_edges(spec.tau1, width, 0.0, 1.0)
    panels = (_gauss(spec, a, b) for a, b in zip(edges, edges[1:]))
    return tuple(edges), tuple(itertools.accumulate(panels, initial=0.0))


def drift_quadrature(spec: TransitionSpec, tau: float) -> float:
    """T(tau) by a graded Gauss-Legendre rule (see ``_panels``): the numeric
    check of the closed forms, which shares no antiderivative with them."""
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    edges, cumulative = _panels(spec)
    i = bisect.bisect_right(edges, tau) - 1
    partial = _gauss(spec, edges[i], tau)
    return cumulative[i] + partial - tau * cumulative[-1]


def _check_drift(tau1: float, gamma: float, tau: float) -> None:
    """The domain checks of ``TransitionSpec`` and ``drift_quadrature``."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not 0.0 < tau1 < 1.0:
        raise ValueError(f"tau1 must lie in (0, 1), got {tau1}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")


def _closed_drift(moments, tau1: float, gamma: float, tau: float) -> float:
    """T(tau) from the transition's ``moments``, after the domain checks."""
    _check_drift(tau1, gamma, tau)
    return moments(tau1, gamma, 0.0, tau)[0] - tau * moments(tau1, gamma, 0.0, 1.0)[0]


def drift_closed_logistic(tau1: float, gamma: float, tau: float) -> float:
    """Closed-form T(tau) for the logistic transition.

    Uses int_0^tau F = (softplus(gamma (tau - tau1)) - softplus(-gamma tau1))
    / gamma, in a form that cannot overflow at any slope.  Below gamma = 1,
    where F is near 1/2 and those integrals of about tau / 2 would cancel to
    T ~ gamma tau (tau - 1) / 8, it integrates F - 1/2 = tanh(z / 2) / 2
    instead, z = gamma (x - tau1): T = (L(z_tau) - L(z_0) - tau (L(z_1) -
    L(z_0))) / gamma with L(z) = log cosh(z / 2) = log1p(2 sinh(z / 4)^2).
    """
    if not gamma < 1.0:
        return _closed_drift(signals._logistic_moments, tau1, gamma, tau)
    _check_drift(tau1, gamma, tau)
    at_0, at_tau, at_1 = (math.log1p(2.0 * math.sinh(0.25 * gamma * (x - tau1)) ** 2)
                          for x in (0.0, tau, 1.0))
    return (at_tau - at_0 - tau * (at_1 - at_0)) / gamma


def drift_closed_exponential(tau1: float, gamma: float, tau: float) -> float:
    """Closed-form T(tau) for the exponential transition.

    Uses int_0^tau F = tau - sqrt(pi / (4 gamma)) * (erf(sqrt(gamma) (tau -
    tau1)) + erf(sqrt(gamma) tau1)).
    """
    return _closed_drift(signals._exponential_moments, tau1, gamma, tau)


@dataclass(frozen=True)
class LimitVariance:
    """Limit of the null variance estimator under an alternative: the ergodic
    variance plus a nonnegative mean-shift contribution."""

    sigma_star2: float
    sigma_bar2: float
    shift_term: float


def _check_sigma_bar2(sigma_bar2: float) -> None:
    if not 0.0 < sigma_bar2 < math.inf:
        raise ValueError(f"sigma_bar2 must be finite and positive, got {sigma_bar2}")


def _check_means(mu1: float, mu2: float) -> None:
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        if not math.isfinite(mu):
            raise ValueError(f"{name} must be finite, got {mu}")


def limit_variance_abrupt(
    tau1: float, mu1: float, mu2: float, sigma_bar2: float
) -> LimitVariance:
    """sigma*^2 = sigma_bar^2 + tau1 (1 - tau1) (mu1 - mu2)^2 for an abrupt
    mean break at sample fraction tau1."""
    if not 0.0 < tau1 < 1.0:
        raise ValueError(f"tau1 must lie in (0, 1), got {tau1}")
    _check_means(mu1, mu2)
    _check_sigma_bar2(sigma_bar2)
    shift = tau1 * (1.0 - tau1) * (mu1 - mu2) ** 2
    return LimitVariance(sigma_star2=sigma_bar2 + shift, sigma_bar2=sigma_bar2, shift_term=shift)


def limit_variance_smooth(
    spec: TransitionSpec, mu1: float, mu2: float, sigma_bar2: float
) -> LimitVariance:
    """sigma*^2 = sigma_bar^2 + (mu2 - mu1)^2 * Var_[0,1](F) for a smooth
    mean transition F."""
    _check_means(mu1, mu2)
    _check_sigma_bar2(sigma_bar2)
    mean_f, mean_f2 = signals._transition_moments(spec, 0.0, 1.0)
    shift = (mu2 - mu1) ** 2 * max(mean_f2 - mean_f**2, 0.0)
    return LimitVariance(sigma_star2=sigma_bar2 + shift, sigma_bar2=sigma_bar2, shift_term=shift)


def wn_path(noise_scaled, sigma_bar2: float) -> np.ndarray:
    """Partial-sum process of sigma_t * eps_t on the grid k/n, normalized by
    sqrt(n * sigma_bar2); entry 0 is 0.  A (rows, n) array gives each row's
    path.  An empty series, or an input not 1-D or 2-D, is a ``ValueError``."""
    _check_sigma_bar2(sigma_bar2)
    arr = np.asarray(noise_scaled, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise ValueError(f"noise_scaled must be 1-D or 2-D, got shape {arr.shape}")
    n = arr.shape[-1]
    if n == 0:
        raise ValueError("noise_scaled must hold at least one value")
    out = np.zeros((*arr.shape[:-1], n + 1))
    np.cumsum(arr, axis=-1, out=out[..., 1:])
    out /= math.sqrt(n * sigma_bar2)
    return out
