"""meanbreak benchmark: four workloads over the Monte Carlo loop, the
``meanbreak test`` file path and the limit-law queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py):
  mc_table  run_experiment, 9 designs x n in {30, 100, 500, 1000} x 1000 reps,
            workers=1; bound by per-replication overhead.
  mc_long   the 9 designs at n = 100 000 x 48 reps, workers=2 (the process
            pool); bound by bulk array work.
  cli_test  a closed loop, one client: fresh ``meanbreak test`` subprocesses
            on a generated 1e6-row price CSV; bound by import and parse.
  limits    in-process CDF, p-value, quantile, drift and limiting-variance
            queries; the only workload running asymptotics and quadrature.

A pass is one operation a user waits for: one full experiment, one
subprocess invocation, or one sweep over the query set.  Passes repeat while
another one fits in ``--seconds``, and every pass output is checked.

With ``--trace 0`` the last line carries the end-to-end metrics:
  setup_s      median wall time of fresh processes that import meanbreak,
               generate the inputs and make the first calls
  ops_per_s    operations per second over all passes: replications
               (reps_per_s) on mc_*, queries (queries_per_s) on limits,
               invocations on cli_test (the reciprocal of the mean
               invocation time, interpreter start included)
  peak_rss_mb  summed peak resident memory of the processes doing the work:
               this process on mc_table and limits, this process plus each
               pool worker on mc_long, the CLI subprocess on cli_test
Failed checks are counted in ``failed`` of ``attempted`` (fail_share).

With ``--trace 1`` half the time runs untraced and half traced, and the last
line carries per-layer metrics, each a per-pass average: span self times,
call and work counts, ``cli.import_s`` (a fresh ``import meanbreak.cli``
minus a bare interpreter start), ``trace.wall_s`` (the traced pass wall time,
which the ``*_s`` self times add up to, ``cli.import_s`` excepted) and
``trace.overhead_share``.  A trace run of a Monte Carlo workload uses
workers=1 in both halves, so that every span is in one process; the pool's
cost shows only in the end-to-end mc_long numbers.  Spans are written to
``perfbench/work/trace-<workload>.npz``.

The line before the last one is a report: provenance (versions, nproc, git
commit, seed, the workload's full config, elapsed time) and the metrics under
their workload-specific names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import workloads
from tracing import Tracer, install, span_metrics
from workloads import BENCH_DIR, ROOT, SRC

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


def measure(workload, seconds: float, tracer=None, min_passes: int = 1) -> list:
    """Run passes while another one, of the median length so far, still ends
    within ``seconds``, and at least ``min_passes``."""
    results, lengths = [], []
    start = perf_counter()
    while (
        len(results) < min_passes
        or perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        begin = perf_counter()
        root = None if tracer is None else tracer.begin_pass()
        result = workload.run_pass(len(results), tracer)
        if tracer is not None:
            result.traced_wall_s = tracer.end_pass(root)
        results.append(result)
        lengths.append(perf_counter() - begin)
    return results


def peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if workload.in_process else 0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workload.children * child) / 1024.0  # ru_maxrss is in KiB


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that only set the workload up."""
    command = [str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    return statistics.median(workloads.run_python(command) for _ in range(SETUP_REPEATS))


def import_seconds() -> float:
    """A fresh ``import meanbreak.cli`` minus a bare interpreter start."""
    imports, bare = [], []
    for _ in range(IMPORT_REPEATS):
        imports.append(workloads.run_python(["-c", "import meanbreak.cli"]))
        bare.append(workloads.run_python(["-c", "pass"]))
    return statistics.median(imports) - statistics.median(bare)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, workload) -> dict:
    import meanbreak
    import numpy
    import scipy

    return {
        "meanbreak": meanbreak.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config(args.seed),
    }


def end_to_end(args, workload, meta: dict) -> tuple[list, dict, dict]:
    results = measure(workload, args.seconds)
    peak = peak_rss_mb(workload)  # before the set-up processes below
    walls = [r.wall_s for r in results]
    metrics = {
        "setup_s": setup_seconds(args),
        "ops_per_s": sum(r.ops for r in results) / sum(walls),
        "peak_rss_mb": peak,
    }
    named = {
        workload.ops_name: {"value": metrics["ops_per_s"], "unit": "1/s"},
        workload.pass_name: {"value": statistics.median(walls), "unit": "s",
                             "samples": len(walls)},
        "pass_walls_s": walls,
    }
    return results, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, named


def per_layer(args, workload, meta: dict) -> tuple[list, dict, dict]:
    # Two passes a side at least: the second cli_test pass is the malformed file.
    untraced = measure(workload, args.seconds / 2, min_passes=2)
    tracer = Tracer()
    install(tracer)
    try:
        traced = measure(workload, args.seconds / 2, tracer, min_passes=2)
    finally:
        tracer.restore()
    passes = len(traced)
    metrics = span_metrics(tracer.self_times(), passes)
    for counter in ("montecarlo.reps", "montecarlo.cells", "montecarlo.degenerate"):
        metrics[counter] = sum(r.counters.get(counter, 0) for r in traced) / passes
    metrics["cli.import_s"] = import_seconds()
    metrics["trace.wall_s"] = statistics.fmean(r.traced_wall_s for r in traced)
    metrics["trace.overhead_share"] = (
        statistics.fmean(r.wall_s for r in traced)
        / statistics.fmean(r.wall_s for r in untraced) - 1.0
    )
    self_sum = sum(
        v for k, v in metrics.items()
        if k.endswith("_s") and k not in ("cli.import_s", "trace.wall_s")
    )
    tracer.save(workloads.WORK / f"trace-{args.workload}.npz", meta)
    units = {
        k: "share" if k == "trace.overhead_share" else "s" if k.endswith("_s") else "count"
        for k in metrics
    }
    named = {
        "self_time_sum_s": {"value": self_sum, "unit": "s"},
        "traced_passes": passes,
        "untraced_passes": len(untraced),
    }
    return untraced + traced, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, named


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meanbreak" / "__init__.py").is_file():
        print(f"error: no meanbreak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    workload = workloads.make(args.workload)
    if args.trace and isinstance(workload, workloads.MonteCarlo):
        workload.workers = 1  # every span in this process
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(args.seed)
        if args.setup_only:
            return 0
        meta = provenance(args, workload)
        run = per_layer if args.trace else end_to_end
        results, metrics, named = run(args, workload, meta)
    finally:
        if not args.setup_only:
            workload.cleanup()
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    named["fail_share"] = {"value": failed / attempted, "unit": "share"}
    meta["elapsed_s"] = perf_counter() - started
    print(json.dumps({"provenance": meta, "metrics": named}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
