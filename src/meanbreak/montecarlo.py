"""Monte Carlo harness: rejection frequencies of the change-in-mean test.

Nine canonical series presets combine three mean dynamics (constant, abrupt
break at mid-sample, smooth logistic break) with three volatility dynamics
(constant, abrupt break at 2/3, smooth logistic break at 2/3).  Presets 1-3
measure size, presets 4-9 measure power.

Per-replication seeds are derived from (master_seed, series, n, replication),
so any split of the replications into ranges, each run in its own process,
produces the same table as the sequential run.
Replication r's noise is ``signals.gaussian_stream((master_seed, key, n, r),
n)``; the engine draws it in blocks of replications from
``signals.noise_blocks``, which gives the same bits.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
import operator
import zlib
from dataclasses import dataclass, field

import numpy as np

from meanbreak import core, dist, fork_map, signals, usable_cpus
from meanbreak.signals import MeanSpec, SigmaSpec, TransitionSpec
from meanbreak.signals import generate_series  # noqa: F401  re-exported: one replication

__all__ = [
    "ExperimentConfig",
    "RejectionTable",
    "preset",
    "run_experiment",
    "emit_table",
]

_MEAN_BREAK = 0.5
_MEAN_LEVELS = (1.0, 2.0)
_SIGMA_BREAK = 2.0 / 3.0
# The canonical design states volatility regime values 0.5 and 1.5; empirical
# size tables and the null limit law are reproducible only when these are
# variances, so the standard-deviation levels are their square roots.
_SIGMA_LEVELS = (math.sqrt(0.5), math.sqrt(1.5))
_SLOPE = 20.0
# ``dist.p_value`` is within about 1e-15 of the exact series (its truncation
# tolerance) and ``dist.bridge_sup_quantile`` within about 1e-14 in
# probability.  A statistic whose exact p-value clears a level by this margin
# is decided by comparison alone; the rest get ``dist.p_value``.
_TALLY_MARGIN = 1e-13

_MEANS = {
    "constant": MeanSpec.constant(1.0),
    "step": MeanSpec.step(_MEAN_LEVELS, (_MEAN_BREAK,)),
    "smooth": MeanSpec.smooth(
        *_MEAN_LEVELS, TransitionSpec("logistic", _MEAN_BREAK, _SLOPE)
    ),
}
_SIGMAS = {
    "constant": SigmaSpec.constant(1.0),
    "step": SigmaSpec.step(_SIGMA_LEVELS, (_SIGMA_BREAK,)),
    "smooth": SigmaSpec.smooth(
        *_SIGMA_LEVELS, TransitionSpec("logistic", _SIGMA_BREAK, _SLOPE)
    ),
}

# (MeanSpec, SigmaSpec) per preset id: the 3x3 product, sigma varying fastest
_PRESETS = dict(enumerate(itertools.product(_MEANS.values(), _SIGMAS.values()), 1))
PRESET_IDS = tuple(_PRESETS)


def preset(series_id: int) -> tuple[MeanSpec, SigmaSpec]:
    """Mean/volatility specs for canonical series 1-9."""
    if series_id not in _PRESETS:
        raise ValueError(f"series id must be in 1..9, got {series_id}")
    return _PRESETS[series_id]


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: expected an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Design of a rejection-frequency experiment.

    ``series`` entries are preset ids 1-9 or (label, MeanSpec, SigmaSpec)
    triples for custom designs.  ``workers`` is an upper bound: the
    replications are split into at most :func:`meanbreak.usable_cpus`
    ranges, the first run in the calling process and each other one in a
    forked child, so with one the calling process runs them all.

    Preset ids, sample sizes, ``replications``, ``master_seed`` and
    ``workers`` are stored as Python ints; any other integer type is
    converted, and a value that is not an integer raises ``ValueError``.
    Levels are stored as Python floats in the same way, from any real number.
    """

    series: tuple = (1,)
    sample_sizes: tuple[int, ...] = (30, 100, 500, 1000)
    levels: tuple[float, ...] = (0.01, 0.05, 0.10)
    replications: int = 1000
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("series", "sample_sizes", "levels"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        # int() would run a float seed's whole part, and a numpy number
        # would reach the JSON output, which cannot hold it.
        series = tuple(entry if isinstance(entry, (tuple, list)) else _integer("series", entry)
                       for entry in self.series)
        object.__setattr__(self, "series", series)
        sizes = tuple(_integer("sample_sizes", n) for n in self.sample_sizes)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "levels", tuple(_real("levels", a) for a in self.levels))
        for name in ("replications", "master_seed", "workers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        # Replication indices are one 32-bit word of the stream's seed.
        if not 1 <= self.replications <= 2**32:
            raise ValueError("replications must lie in 1..2**32")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample sizes must be at least 2")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ValueError(f"sample sizes must be distinct, got {self.sample_sizes}")
        if any(not 0.0 < a < 1.0 for a in self.levels):
            raise ValueError("levels must lie in (0, 1)")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"levels must be strictly ascending, got {self.levels}")
        labels = [_resolve(entry)[0] for entry in self.series]
        if len(set(labels)) != len(labels):
            raise ValueError(f"series labels must be distinct, got {labels}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")


@dataclass
class RejectionTable:
    """Rejection counts per (series label, n, alpha) cell, plus degenerate
    replication counts per (series label, n)."""

    cells: dict = field(default_factory=dict)  # (label, n, alpha) -> rejections
    degenerate: dict = field(default_factory=dict)  # (label, n) -> count
    replications: int = 0
    master_seed: int = 0

    def frequency(self, label: str, n: int, alpha: float) -> float:
        return self.cells[(label, n, alpha)] / self.replications

    def flagged(self, label: str, n: int) -> bool:
        return self.degenerate.get((label, n), 0) > 0


def _resolve(entry) -> tuple[str, int, MeanSpec, SigmaSpec]:
    """Label, stable seed key, and specs for a series entry."""
    if isinstance(entry, int):
        return f"Series {entry}", entry, *preset(entry)
    if not (len(entry) == 3 and isinstance(entry[1], MeanSpec)
            and isinstance(entry[2], SigmaSpec)):
        raise ValueError(f"series: expected a preset id or a (label, MeanSpec, SigmaSpec)"
                         f" triple, got {entry!r}")
    label, mean_spec, sigma_spec = entry
    key = zlib.crc32(str(label).encode("utf-8"))
    return str(label), key, mean_spec, sigma_spec


def _critical_bands(levels) -> np.ndarray:
    """Statistics (lo, hi) per level: an exact p-value is at least alpha +
    ``_TALLY_MARGIN`` at s <= lo and at most alpha - ``_TALLY_MARGIN`` at
    s >= hi.  An edge the law cannot place is -inf or inf."""
    bands = np.empty((len(levels), 2))
    for row, alpha in zip(bands, levels):
        p_lo, p_hi = 1.0 - (alpha + _TALLY_MARGIN), 1.0 - (alpha - _TALLY_MARGIN)
        row[0] = dist.bridge_sup_quantile(p_lo) if p_lo > 0.0 else -np.inf
        row[1] = dist.bridge_sup_quantile(p_hi) if p_hi < 1.0 else np.inf
    return bands


def _rejections(statistic: np.ndarray, alphas: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """``dist.p_value(s) < alpha`` per statistic (rows) and level (columns):
    outside each level's band by comparison, inside it by the p-value."""
    s = statistic[:, None]
    reject = s > bands[:, 1]
    for i, j in zip(*np.nonzero((s >= bands[:, 0]) & ~reject)):
        reject[i, j] = dist.p_value(statistic[i]) < alphas[j]
    return reject


def _range_counts(config, bands, series, reps) -> np.ndarray:
    """Per (n, series) cell of ``config``, n-major, over the replications
    ``reps``: one int64 row of the rejections per level, then the degenerate
    count.  ``bands`` are ``_critical_bands(config.levels)``, and ``series``
    holds the (label, key, MeanSpec, SigmaSpec) of each ``config.series`` entry.

    At each n, each distinct spec is made ready once for all of its cells,
    as ``signals._segments``: a constant or step spec is its level segments
    and only a smooth one is an array.  Segments give the bits of the full
    path.  The grid k/n is built in place.  Where a block is one row (n >
    2**13) a process then holds 5n doubles: the grid, the noise row, the
    kernel's scratch row and one array per smooth spec.  A size's paths are
    dropped before the next size's are built.  Replication r is
    ``generate_series`` with seed (master_seed, key, n, r); each block of
    ``signals.noise_blocks`` goes through the CUSUM kernel at once, so
    results do not depend on how the replications are split.  A constant
    row's nan statistic lies in no band: it never rejects and counts as
    degenerate.
    """
    alphas = np.asarray(config.levels)
    rows = []
    for n in config.sample_sizes:
        paths = {spec: signals._segments(spec, n)
                 for spec in dict.fromkeys(spec for _, _, *specs in series for spec in specs)}
        grid = np.arange(1, n + 1, dtype=np.float64)
        grid /= n
        for _, key, mean, sigma in series:
            counts = np.zeros(len(alphas) + 1, dtype=np.int64)
            for y in signals.noise_blocks((config.master_seed, key, n), reps, n):
                signals._apply(np.multiply, y, paths[sigma])  # y = mu + sigma * eps, in place
                signals._apply(np.add, y, paths[mean])
                statistic = core._cusum_sup(y, grid)
                counts[:-1] += _rejections(statistic, alphas, bands).sum(axis=0)
                counts[-1] += np.isnan(statistic).sum()
            rows.append(counts)
        del paths, grid
    return np.array(rows)


def run_experiment(config: ExperimentConfig) -> RejectionTable:
    """Run the configured experiment; output is identical for any worker count.

    The replications are split into one range per process, at most
    ``config.workers`` and :func:`meanbreak.usable_cpus`, since more
    processes than CPUs would only wait for one.  :func:`meanbreak.fork_map`
    runs the first range in this process and each other one in a forked
    child; the count rows of the ranges are added up.
    """
    per = -(-config.replications // min(config.workers, usable_cpus()))  # ceiling
    ranges = [range(config.replications)[start:start + per]
              for start in range(0, config.replications, per)]
    bands = _critical_bands(config.levels)
    series = [_resolve(entry) for entry in config.series]
    parts = fork_map(_range_counts, [(config, bands, series, reps) for reps in ranges],
                     [f"the simulation of replications {r.start}-{r.stop}" for r in ranges])
    table = RejectionTable(
        replications=config.replications, master_seed=config.master_seed
    )
    cells = [(label, n) for n in config.sample_sizes for label, *_ in series]
    for (label, n), (*rejections, degenerate) in zip(cells, sum(parts).tolist()):
        table.degenerate[(label, n)] = degenerate
        table.cells.update(zip([(label, n, alpha) for alpha in config.levels], rejections))
    return table


def emit_table(table: RejectionTable, format: str = "text") -> str:
    """Serialize a rejection table deterministically as csv, json, or a
    text layout with series x level rows and sample-size columns."""
    if format == "csv":
        return _emit_csv(table)
    if format == "json":
        return _emit_json(table)
    if format == "text":
        return _emit_text(table)
    raise ValueError(f"unknown format {format!r}")


_COLUMNS = ("series", "n", "alpha", "rejections", "replications", "frequency")


def _rows(table: RejectionTable) -> list[tuple]:
    """One row of ``_COLUMNS`` values per cell, in sorted cell order."""
    reps = table.replications
    return [(label, n, alpha, rejections, reps, rejections / reps)
            for (label, n, alpha), rejections in sorted(table.cells.items())]


def _emit_csv(table: RejectionTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows((label, n, f"{alpha:.10g}", rejections, reps, f"{frequency:.10g}")
                     for label, n, alpha, rejections, reps, frequency in _rows(table))
    return buf.getvalue()


def _emit_json(table: RejectionTable) -> str:
    cells = [dict(zip(_COLUMNS, row)) for row in _rows(table)]
    degenerate = [
        {"series": label, "n": n, "count": count}
        for (label, n), count in sorted(table.degenerate.items())
        if count > 0
    ]
    doc = {
        "master_seed": table.master_seed,
        "replications": table.replications,
        "cells": cells,
        "degenerate": degenerate,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit_text(table: RejectionTable) -> str:
    labels = sorted({label for label, _, _ in table.cells})
    ns = sorted({n for _, n, _ in table.cells})
    alphas = sorted({alpha for _, _, alpha in table.cells})
    width = max([12, *(len(label) + 1 for label in labels)])  # a blank after the longest
    lines = ["Rejection frequencies (in %)"]
    header = f"{'series':<{width}}{'alpha':>7}" + "".join(f"{'n=' + str(n):>9}" for n in ns)
    lines.append(header)
    for label in labels:
        for alpha in alphas:
            row = f"{label:<{width}}{alpha * 100:>6.4g}%"
            for n in ns:
                rejections = table.cells.get((label, n, alpha))
                if rejections is None:
                    row += f"{'-':>9}"
                    continue
                pct = 100.0 * rejections / table.replications
                mark = "*" if table.flagged(label, n) else ""
                row += f"{pct:>8.1f}{mark or ' '}"
            lines.append(row)
    if any(count > 0 for count in table.degenerate.values()):
        lines.append("* cell includes degenerate replications (statistic undefined)")
    return "\n".join(lines) + "\n"
