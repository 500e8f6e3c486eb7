"""In-memory spans around calls into meanbreak's public functions.

A span records its name, start, end, parent span, pass id, a work count and
whether the call raised.  Spans are kept in plain lists while the benchmark
runs and written out once, when it ends.  Nothing under ``src/`` is edited:
the tracer replaces module attributes with timing wrappers and puts the
originals back afterwards.

Each wrapper is installed on the name the caller resolves at call time.  For
example ``montecarlo`` imports ``generate_series`` by name, so the wrapper
goes on ``montecarlo.generate_series``; ``core`` calls ``dist.p_value`` as a
module attribute, so the wrapper goes on ``dist.p_value``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[int] = []
        self.raised: list[bool] = []
        self.passes: list[int] = []
        self.pass_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.work.append(0)
        self.raised.append(False)
        self.passes.append(self.pass_id)
        self._stack.append(i)
        return i

    def _close(self, i: int, start: float, end: float) -> None:
        self.starts[i] = start
        self.ends[i] = end
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1]

    def begin_pass(self) -> int:
        """Open the root span of one pass; every span until end_pass nests in it."""
        self.pass_id += 1
        i = self._open("bench")
        self.starts[i] = perf_counter()
        return i

    def end_pass(self, i: int) -> float:
        end = perf_counter()
        self._close(i, self.starts[i], end)
        return end - self.starts[i]

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``work(args, kwargs, result)`` gives the span's work count.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.raised[i] = True
                tracer._close(i, start, perf_counter())
                raise
            tracer._close(i, start, perf_counter())
            if work is not None:
                tracer.work[i] = work(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def add_child_spans(self, spans: dict, parent: int) -> None:
        """Attach spans recorded in a child process under span ``parent``.

        perf_counter is CLOCK_MONOTONIC on Linux, so child and parent
        timestamps share one clock.
        """
        offset = len(self.names)
        for k in range(len(spans["names"])):
            p = spans["parents"][k]
            self.names.append(spans["names"][k])
            self.parents.append(parent if p < 0 else p + offset)
            self.starts.append(spans["starts"][k])
            self.ends.append(spans["ends"][k])
            self.work.append(spans["work"][k])
            self.raised.append(spans["raised"][k])
            self.passes.append(self.pass_id)

    def save_json(self, path) -> None:
        """Write the spans in the form add_child_spans reads."""
        spans = {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "work": self.work,
            "raised": self.raised,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    def save(self, path, meta: dict) -> None:
        """Write every span to an ``.npz`` file, names as indices into ``span_names``."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        np.savez(
            path,
            span_names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int16),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            work=np.array(self.work, dtype=np.int64),
            raised=np.array(self.raised, dtype=bool),
            pass_id=np.array(self.passes, dtype=np.int32),
            meta=np.array(json.dumps(meta)),
        )

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time, call count, work and raised count.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the root spans'
        durations.
        """
        duration = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        child_time = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - child_time
        out: dict[str, dict[str, float]] = {}
        for k, name in enumerate(self.names):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "work": 0, "raised": 0})
            entry["self_s"] += float(own[k])
            entry["calls"] += 1
            entry["work"] += self.work[k]
            entry["raised"] += int(self.raised[k])
        return out


def _arg(position: int, keyword: str):
    def work(args, kwargs, result):
        value = args[position] if len(args) > position else kwargs[keyword]
        return int(value)
    return work


def _length(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["series"])


def _rows(args, kwargs, result):
    return len(result[0])


QUAD = ("drift_quadrature", "limit_variance_smooth", "partial_variance_limit")
CLOSED = ("drift_closed_logistic", "drift_closed_exponential", "limit_variance_abrupt")

# (module, attribute the callers resolve, span name, work count)
LAYER_SPANS = (
    ("montecarlo", "run_experiment", "montecarlo.run_experiment", None),
    ("montecarlo", "generate_series", "signals.generate_series", None),
    ("signals", "gaussian_stream", "signals.gaussian_stream", _arg(1, "count")),
    ("signals", "mean_path", "signals.mean_path", _arg(1, "n")),
    ("signals", "sigma_path", "signals.sigma_path", _arg(1, "n")),
    ("signals", "ergodic_variance_limit", "signals.ergodic_variance_limit", None),
    ("core", "lm_test", "core.lm_test", _length),
    ("core", "null_estimates", "core.null_estimates", None),
    ("core", "compute_returns", "core.compute_returns", None),
    ("core", "absolute_transform", "core.absolute_transform", None),
    ("dist", "p_value", "dist.p_value", None),
    ("dist", "bridge_sup_cdf", "dist.bridge_sup_cdf", None),
    ("dist", "bridge_sup_quantile", "dist.bridge_sup_quantile", None),
    *(("asymptotics", fn, f"asymptotics.{fn}", None) for fn in QUAD + CLOSED),
    ("cli", "main", "cli.main", None),
    ("cli", "load_column", "cli.load_column", _rows),
)

# Per-layer metric -> (span names, statistic).  Every span name appears in
# exactly one "self_s" metric, so those metrics add up to the traced wall time.
SPAN_METRICS = {
    "bench.self_s": (("bench",), "self_s"),
    "montecarlo.self_s": (("montecarlo.run_experiment",), "self_s"),
    "signals.series_s": (("signals.generate_series",), "self_s"),
    "signals.stream_calls": (("signals.gaussian_stream",), "calls"),
    "signals.stream_s": (("signals.gaussian_stream",), "self_s"),
    "signals.variates": (("signals.gaussian_stream",), "work"),
    "signals.path_calls": (("signals.mean_path", "signals.sigma_path"), "calls"),
    "signals.path_s": (("signals.mean_path", "signals.sigma_path"), "self_s"),
    "signals.ergodic_s": (("signals.ergodic_variance_limit",), "self_s"),
    "core.lm_test_calls": (("core.lm_test",), "calls"),
    "core.lm_test_s": (("core.lm_test",), "self_s"),
    "core.points": (("core.lm_test",), "work"),
    "core.null_estimates_s": (("core.null_estimates",), "self_s"),
    "core.transform_s": (("core.compute_returns", "core.absolute_transform"), "self_s"),
    "dist.p_value_calls": (("dist.p_value",), "calls"),
    "dist.p_value_s": (("dist.p_value",), "self_s"),
    "dist.quantile_calls": (("dist.bridge_sup_quantile",), "calls"),
    "dist.quantile_s": (("dist.bridge_sup_quantile",), "self_s"),
    "dist.cdf_s": (("dist.bridge_sup_cdf",), "self_s"),
    "asymptotics.quad_calls": (tuple(f"asymptotics.{fn}" for fn in QUAD), "calls"),
    "asymptotics.quad_s": (tuple(f"asymptotics.{fn}" for fn in QUAD), "self_s"),
    "asymptotics.closed_s": (tuple(f"asymptotics.{fn}" for fn in CLOSED), "self_s"),
    "cli.self_s": (("cli.main",), "self_s"),
    "cli.parse_s": (("cli.load_column",), "self_s"),
    "cli.rows": (("cli.load_column",), "work"),
    "cli.bad_row_reports": (("cli.load_column",), "raised"),
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in LAYER_SPANS."""
    for module, attr, name, work in LAYER_SPANS:
        tracer.wrap(importlib.import_module(f"meanbreak.{module}"), attr, name, work)


def span_metrics(stats: dict, passes: int) -> dict[str, float]:
    """Per-pass averages of the SPAN_METRICS over ``passes`` traced passes."""
    out = {}
    for metric, (names, field) in SPAN_METRICS.items():
        total = sum(stats[n][field] for n in names if n in stats)
        out[metric] = total / passes
    return out
