"""Per-kind times of the ``limits`` benchmark pass, in process.

Usage, from the root of a checkout:

    python3 experiments/limits_layers.py

Builds the query set of ``perfbench/workloads.Limits().setup(1)`` (read only;
nothing under ``perfbench/`` is written) and times each query kind of one
pass on the ``meanbreak`` of this checkout: the CDF, the p-value, the
quantile, the closed-form drift, the drift quadrature and the limiting
variances.  Each kind's time is the best of 5 loops over its queries, in
milliseconds; the kinds alternate within each repeat.  Prints one JSON
object.

Unlike the benchmark's ``--trace 1`` spans, the kinds here are the query
functions a pass calls, so the closed-form variance queries are counted as
variances and not as quadrature.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from meanbreak import asymptotics, dist  # noqa: E402


def kinds(limits: workloads.Limits) -> dict:
    """One callable per query kind, each running that kind's queries of a
    pass as ``Limits.sweep`` does, with its query count."""

    def drift_closed():
        for spec in limits.drift_specs:
            fn = (asymptotics.drift_closed_logistic if spec.family == "logistic"
                  else asymptotics.drift_closed_exponential)
            [fn(spec.tau1, spec.gamma, t) for t in limits.grid]

    def drift_quadrature():
        for spec in limits.drift_specs:
            [asymptotics.drift_quadrature(spec, t) for t in limits.grid]

    drifts = len(limits.drift_specs) * len(limits.grid)
    return {
        "bridge_sup_cdf": (lambda: [dist.bridge_sup_cdf(z) for z in limits.z], len(limits.z)),
        "p_value": (lambda: [dist.p_value(z) for z in limits.z], len(limits.z)),
        "quantile": (lambda: [dist.bridge_sup_quantile(p) for p in limits.p], len(limits.p)),
        "drift_closed": (drift_closed, drifts),
        "drift_quadrature": (drift_quadrature, drifts),
        "variances": (lambda: limits.evaluate(limits.variance), len(limits.variance)),
    }


SEED, REPEATS = 1, 5


def main() -> None:
    limits = workloads.Limits()
    limits.setup(SEED)
    table = kinds(limits)
    best = dict.fromkeys(table, float("inf"))
    for _ in range(REPEATS):
        for name, (run, _) in table.items():
            start = perf_counter()
            run()
            best[name] = min(best[name], perf_counter() - start)
    total = sum(best.values())
    print(json.dumps({
        "seed": SEED,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "queries": sum(count for _, count in table.values()),
        "total_ms": round(1e3 * total, 3),
        "kinds": {
            name: {
                "queries": count,
                "ms": round(1e3 * best[name], 3),
                "us_per_query": round(1e6 * best[name] / count, 4),
                "share": round(best[name] / total, 4),
            }
            for name, (_, count) in table.items()
        },
    }, indent=1))


if __name__ == "__main__":
    main()
