"""Limit quantities behind the test: drift shape under smooth alternatives,
limiting variances of the null variance estimator under both alternatives,
and the normalized partial-sum process used for FCLT diagnostics.

The drift function is T(tau) = int_0^tau F - tau * int_0^1 F for a transition
F.  Closed forms are derived from the antiderivatives of the logistic and
exponential transitions and are validated against adaptive quadrature (which
is the ground truth throughout).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from meanbreak.signals import TransitionSpec, _quad, partial_variance_limit, transition

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


def drift_quadrature(spec: TransitionSpec, tau: float) -> float:
    """T(tau) by adaptive quadrature, subdividing around the transition
    location where steep slopes make the integrand nearly discontinuous."""
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    i_tau = _quad(lambda x: transition(spec, x), 0.0, tau, [spec.tau1])
    return i_tau - tau * _mean_transition(spec)


@functools.lru_cache(maxsize=256)
def _mean_transition(spec: TransitionSpec) -> float:
    """int_0^1 F by quadrature, once per transition: a drift grid needs it at
    every tau.  The spec is frozen, and equal specs give the same bits."""
    return _quad(lambda x: transition(spec, x), 0.0, 1.0, [spec.tau1])


def drift_closed_logistic(tau1: float, gamma: float, tau: float) -> float:
    """Closed-form T(tau) for the logistic transition.

    Uses int_0^tau F = (softplus(gamma (tau - tau1)) - softplus(-gamma tau1))
    / gamma, evaluated with logaddexp so large gamma cannot overflow.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")

    def antiderivative(upper: float) -> float:
        hi = np.logaddexp(0.0, gamma * (upper - tau1))
        lo = np.logaddexp(0.0, -gamma * tau1)
        return float(hi - lo) / gamma

    return antiderivative(tau) - tau * antiderivative(1.0)


def drift_closed_exponential(tau1: float, gamma: float, tau: float) -> float:
    """Closed-form T(tau) for the exponential transition.

    Uses int_0^tau F = tau - sqrt(pi / (4 gamma)) * (erf(sqrt(gamma) (tau -
    tau1)) + erf(sqrt(gamma) tau1)).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    root = math.sqrt(gamma)
    c = math.sqrt(math.pi / (4.0 * gamma))

    def antiderivative(upper: float) -> float:
        return upper - c * (math.erf(root * (upper - tau1)) + math.erf(root * tau1))

    return antiderivative(tau) - tau * antiderivative(1.0)


@dataclass(frozen=True)
class LimitVariance:
    """Limit of the null variance estimator under an alternative: the ergodic
    variance plus a nonnegative mean-shift contribution."""

    sigma_star2: float
    sigma_bar2: float
    shift_term: float


def limit_variance_abrupt(
    tau1: float, mu1: float, mu2: float, sigma_bar2: float
) -> LimitVariance:
    """sigma*^2 = sigma_bar^2 + tau1 (1 - tau1) (mu1 - mu2)^2 for an abrupt
    mean break at sample fraction tau1."""
    if not 0.0 < tau1 < 1.0:
        raise ValueError(f"tau1 must lie in (0, 1), got {tau1}")
    if sigma_bar2 <= 0.0:
        raise ValueError("sigma_bar2 must be positive")
    shift = tau1 * (1.0 - tau1) * (mu1 - mu2) ** 2
    return LimitVariance(sigma_star2=sigma_bar2 + shift, sigma_bar2=sigma_bar2, shift_term=shift)


def limit_variance_smooth(
    spec: TransitionSpec, mu1: float, mu2: float, sigma_bar2: float
) -> LimitVariance:
    """sigma*^2 = sigma_bar^2 + (mu2 - mu1)^2 * Var_[0,1](F) for a smooth
    mean transition F."""
    if sigma_bar2 <= 0.0:
        raise ValueError("sigma_bar2 must be positive")
    mean_f = _mean_transition(spec)
    mean_f2 = _quad(lambda x: transition(spec, x) ** 2, 0.0, 1.0, [spec.tau1])
    shift = (mu2 - mu1) ** 2 * max(mean_f2 - mean_f**2, 0.0)
    return LimitVariance(sigma_star2=sigma_bar2 + shift, sigma_bar2=sigma_bar2, shift_term=shift)


def wn_path(noise_scaled, sigma_bar2: float) -> np.ndarray:
    """Partial-sum process of sigma_t * eps_t on the grid k/n, normalized by
    sqrt(n * sigma_bar2); entry 0 is 0."""
    if sigma_bar2 <= 0.0:
        raise ValueError("sigma_bar2 must be positive")
    arr = np.asarray(noise_scaled, dtype=np.float64)
    n = arr.size
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(arr, out=out[1:])
    out /= math.sqrt(n * sigma_bar2)
    return out
