"""LM-type test for a change in the mean of a heteroskedastic time series,
with its Brownian-bridge limit law, signal generators, asymptotic drift and
variance formulas, and a Monte Carlo size/power harness."""

import importlib
import os

from meanbreak.core import (
    CusumPath,
    DegenerateSeriesError,
    InsufficientDataError,
    NullEstimates,
    TestOutcome,
    absolute_transform,
    compute_returns,
    cusum_path,
    lm_test,
    null_estimates,
)
from meanbreak.dist import bridge_sup_cdf, bridge_sup_quantile, p_value

__version__ = "0.1.0"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    keeps one (``taskset``, a cpuset container), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Names from the simulation modules, loaded on first access (PEP 562), so that
# `import meanbreak.cli` and the `test`, `pvalue` and `quantile` commands skip
# their set-up: the spec classes and the nine preset designs (about 15 ms).
_LAZY = {
    **dict.fromkeys(
        ("ExperimentConfig", "RejectionTable", "emit_table", "preset", "run_experiment"),
        "montecarlo",
    ),
    **dict.fromkeys(
        ("MeanSpec", "SigmaSpec", "TransitionSpec", "ergodic_variance_limit",
         "gaussian_stream", "generate_series", "mean_path", "sigma_path", "transition"),
        "signals",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"meanbreak.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "CusumPath",
    "DegenerateSeriesError",
    "ExperimentConfig",
    "InsufficientDataError",
    "MeanSpec",
    "NullEstimates",
    "RejectionTable",
    "SigmaSpec",
    "TestOutcome",
    "TransitionSpec",
    "absolute_transform",
    "bridge_sup_cdf",
    "bridge_sup_quantile",
    "compute_returns",
    "cusum_path",
    "emit_table",
    "ergodic_variance_limit",
    "gaussian_stream",
    "generate_series",
    "lm_test",
    "mean_path",
    "null_estimates",
    "p_value",
    "preset",
    "run_experiment",
    "sigma_path",
    "transition",
    "usable_cpus",
]
