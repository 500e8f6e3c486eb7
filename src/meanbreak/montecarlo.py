"""Monte Carlo harness: rejection frequencies of the change-in-mean test.

Nine canonical series presets combine three mean dynamics (constant, abrupt
break at mid-sample, smooth logistic break) with three volatility dynamics
(constant, abrupt break at 2/3, smooth logistic break at 2/3).  Presets 1-3
measure size, presets 4-9 measure power.

Per-replication seeds are derived from (master_seed, series, n, replication),
so any parallel schedule produces the same table as the sequential run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from meanbreak import core, dist, signals
from meanbreak.signals import MeanSpec, SigmaSpec, TransitionSpec
from meanbreak.signals import generate_series  # noqa: F401  re-exported: one replication

__all__ = [
    "ExperimentConfig",
    "RejectionTable",
    "preset",
    "run_experiment",
    "emit_table",
]

PRESET_IDS = tuple(range(1, 10))

_MEAN_BREAK = 0.5
_MEAN_LEVELS = (1.0, 2.0)
_SIGMA_BREAK = 2.0 / 3.0
# The canonical design states volatility regime values 0.5 and 1.5; empirical
# size tables and the null limit law are reproducible only when these are
# variances, so the standard-deviation levels are their square roots.
_SIGMA_LEVELS = (math.sqrt(0.5), math.sqrt(1.5))
_SLOPE = 20.0
# Values per block of replications in the CUSUM kernel: bounds the memory of
# a block, and at n >= 2**14 makes it one replication.
_BLOCK_ELEMENTS = 2**14

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

# (mean dynamic, sigma dynamic) per preset id
_PRESETS = {
    1: ("constant", "constant"),
    2: ("constant", "step"),
    3: ("constant", "smooth"),
    4: ("step", "constant"),
    5: ("step", "step"),
    6: ("step", "smooth"),
    7: ("smooth", "constant"),
    8: ("smooth", "step"),
    9: ("smooth", "smooth"),
}


def preset(series_id: int) -> tuple[MeanSpec, SigmaSpec]:
    """Mean/volatility specs for canonical series 1-9."""
    if series_id not in _PRESETS:
        raise ValueError(f"series id must be in 1..9, got {series_id}")
    mean_key, sigma_key = _PRESETS[series_id]
    return _MEANS[mean_key], _SIGMAS[sigma_key]


@dataclass(frozen=True)
class ExperimentConfig:
    """Design of a rejection-frequency experiment.

    ``series`` entries are preset ids 1-9 or (label, MeanSpec, SigmaSpec)
    triples for custom designs.
    """

    series: tuple = (1,)
    sample_sizes: tuple[int, ...] = (30, 100, 500, 1000)
    levels: tuple[float, ...] = (0.01, 0.05, 0.10)
    replications: int = 1000
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample sizes must be at least 2")
        if any(not 0.0 < a < 1.0 for a in self.levels):
            raise ValueError("levels must lie in (0, 1)")
        if list(self.levels) != sorted(self.levels):
            raise ValueError("levels must be sorted ascending")
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
        mean_spec, sigma_spec = preset(entry)
        return f"Series {entry}", entry, mean_spec, sigma_spec
    label, mean_spec, sigma_spec = entry
    key = zlib.crc32(str(label).encode("utf-8"))
    return str(label), key, mean_spec, sigma_spec


def _cell_chunk(
    mean_spec: MeanSpec,
    sigma_spec: SigmaSpec,
    n: int,
    key: int,
    master_seed: int,
    levels: tuple[float, ...],
    rep_start: int,
    rep_stop: int,
) -> tuple[np.ndarray, int]:
    """Rejection counts per level and degenerate count over a replication range.

    Replication r is ``generate_series`` with seed (master_seed, key, n, r);
    blocks of at most ``_BLOCK_ELEMENTS`` values go through the CUSUM kernel
    together, so results do not depend on how the range is split.
    """
    mu = signals.mean_path(mean_spec, n)
    sigma = signals.sigma_path(sigma_spec, n)
    alphas = np.asarray(levels)
    rejections = np.zeros(len(levels), dtype=np.int64)
    degenerate = 0
    rows = max(1, _BLOCK_ELEMENTS // n)
    for block_start in range(rep_start, rep_stop, rows):
        reps = range(block_start, min(block_start + rows, rep_stop))
        y = np.empty((len(reps), n))
        for i, r in enumerate(reps):
            y[i] = signals.gaussian_stream((master_seed, key, n, r), n)
        y *= sigma  # y = mu + sigma * eps, in place
        y += mu
        result = core._cusum_rows(y)
        degenerate += int(result.degenerate.sum())
        p = [dist.p_value(stat) for stat in result.statistic[~result.degenerate]]
        rejections += (np.array(p)[:, None] < alphas).sum(axis=0)
    return rejections, degenerate


def _chunk_bounds(replications: int, workers: int) -> list[tuple[int, int]]:
    per = -(-replications // workers)
    return [
        (start, min(start + per, replications))
        for start in range(0, replications, per)
    ]


def run_experiment(config: ExperimentConfig) -> RejectionTable:
    """Run the configured experiment; output is identical for any worker count."""
    table = RejectionTable(
        replications=config.replications, master_seed=config.master_seed
    )
    cells, tasks = [], []
    for entry in config.series:
        label, key, mean_spec, sigma_spec = _resolve(entry)
        for n in config.sample_sizes:
            for start, stop in _chunk_bounds(config.replications, config.workers):
                cells.append((label, n))
                tasks.append((mean_spec, sigma_spec, n, key, config.master_seed,
                              config.levels, start, stop))
    if config.workers == 1:
        results = list(map(_cell_chunk, *zip(*tasks)))
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_cell_chunk, *zip(*tasks)))
    for (label, n), (rejections, degenerate) in zip(cells, results):
        for alpha, count in zip(config.levels, rejections):
            cell = (label, n, alpha)
            table.cells[cell] = table.cells.get(cell, 0) + int(count)
        table.degenerate[(label, n)] = table.degenerate.get((label, n), 0) + degenerate
    return table


def _sorted_cells(table: RejectionTable):
    return sorted(table.cells.items(), key=lambda item: (item[0][0], item[0][1], item[0][2]))


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


def _emit_csv(table: RejectionTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "n", "alpha", "rejections", "replications", "frequency"])
    for (label, n, alpha), rejections in _sorted_cells(table):
        writer.writerow(
            [label, n, f"{alpha:.10g}", rejections, table.replications,
             f"{rejections / table.replications:.10g}"]
        )
    return buf.getvalue()


def _emit_json(table: RejectionTable) -> str:
    cells = [
        {
            "series": label,
            "n": n,
            "alpha": alpha,
            "rejections": rejections,
            "replications": table.replications,
            "frequency": rejections / table.replications,
        }
        for (label, n, alpha), rejections in _sorted_cells(table)
    ]
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit_text(table: RejectionTable) -> str:
    labels = sorted({label for label, _, _ in table.cells})
    ns = sorted({n for _, n, _ in table.cells})
    alphas = sorted({alpha for _, _, alpha in table.cells})
    lines = ["Rejection frequencies (in %)"]
    header = f"{'series':<12}{'alpha':>7}" + "".join(f"{'n=' + str(n):>9}" for n in ns)
    lines.append(header)
    for label in labels:
        for alpha in alphas:
            row = f"{label:<12}{alpha * 100:>6.4g}%"
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
