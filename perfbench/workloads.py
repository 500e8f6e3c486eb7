"""The four benchmark workloads: inputs from the workload seed, one timed
pass of the program, and the check of that pass's output.

Every workload maps the workload seed to inputs deterministically.  The Monte
Carlo and CLI workloads draw their inputs from a pool of eight input seeds
whose outputs are stored under ``golden/`` (regenerated by
``make_golden.py``), so every pass is compared against a stored golden.  The
limit-law workload draws its query points from the seed directly and checks
them against a reference series evaluated here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"
WORK = BENCH_DIR / "work"

POOL = tuple(range(1, 9))  # input seeds with stored goldens
LEVELS = (0.01, 0.05, 0.10)
SUBPROCESS_TIMEOUT_S = 170


def pool_seed(seed: int, offset: int = 0) -> int:
    return POOL[(seed + offset) % len(POOL)]


def program_env() -> dict:
    """Environment for child interpreters: import meanbreak from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class PassResult:
    """Outcome of one pass: wall time of the program call, operations done,
    operations checked and failed, and counters."""

    wall_s: float
    ops: int
    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)
    traced_wall_s: float | None = None  # the pass's root span, when traced


class MonteCarlo:
    """``run_experiment`` over the nine canonical designs; each pass uses the
    next input seed of the pool as ``master_seed`` and must reproduce its
    golden CSV byte for byte."""

    in_process = True
    ops_name, pass_name = "reps_per_s", "experiment_s_p50"

    def __init__(self, name, sample_sizes, replications, workers, golden_dir=GOLDEN):
        self.name = name
        self.sample_sizes = tuple(sample_sizes)
        self.replications = replications
        self.workers = workers
        self.golden_dir = Path(golden_dir)

    def config(self, seed: int) -> dict:
        return {
            "series": list(range(1, 10)),
            "sample_sizes": list(self.sample_sizes),
            "levels": list(LEVELS),
            "replications": self.replications,
            "workers": self.workers,
            "master_seeds": [pool_seed(seed, i) for i in range(len(POOL))],
        }

    def experiment(self, master_seed: int, workers: int):
        from meanbreak import montecarlo

        return montecarlo.ExperimentConfig(
            series=tuple(range(1, 10)),
            sample_sizes=self.sample_sizes,
            levels=LEVELS,
            replications=self.replications,
            master_seed=master_seed,
            workers=workers,
        )

    def golden_path(self, master_seed: int) -> Path:
        return self.golden_dir / self.name / f"seed{master_seed}.csv"

    def table_csv(self, master_seed: int, workers: int) -> str:
        from meanbreak import montecarlo

        return montecarlo.emit_table(
            montecarlo.run_experiment(self.experiment(master_seed, workers)), "csv"
        )

    def setup(self, seed: int) -> None:
        from meanbreak import montecarlo

        self.seed = seed
        warm = montecarlo.ExperimentConfig(
            series=(1,), sample_sizes=(30,), replications=10, workers=1
        )
        montecarlo.run_experiment(warm)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from meanbreak import montecarlo

        master_seed = pool_seed(self.seed, index)
        config = self.experiment(master_seed, self.workers)
        start = perf_counter()
        table = montecarlo.run_experiment(config)
        document = montecarlo.emit_table(table, "csv").encode("utf-8")
        wall = perf_counter() - start
        designs = len(config.series) * len(config.sample_sizes)
        reps = designs * config.replications
        golden = self.golden_path(master_seed).read_bytes()
        return PassResult(
            wall, reps, 1, int(document != golden),
            {
                "montecarlo.reps": reps,
                "montecarlo.cells": designs,
                "montecarlo.degenerate": sum(table.degenerate.values()),
            },
        )

    def cleanup(self) -> None:
        pass

    @property
    def children(self) -> int:
        """Processes besides this one that run the workload at the same time."""
        return self.workers if self.workers > 1 else 0


class CliTest:
    """A closed loop with one client: each pass is a fresh ``meanbreak test``
    subprocess on a generated price CSV.  Every third pass targets a copy with
    one malformed row near the end, which must exit 3 and name that row."""

    ROWS = 1_000_000
    ARGS = ("--kind", "levels", "--column", "price", "--date-column", "date",
            "--abs", "--format", "json")
    FIELDS = ("n", "mu_hat", "sigma2_hat", "statistic", "p_value", "break_index",
              "break_date")
    BAD_EVERY = 3

    name = "cli_test"
    in_process = False  # the CLI subprocesses do the work, one at a time
    children = 1
    ops_name, pass_name = "invocations_per_s", "invocation_s_p50"

    def __init__(self, rows: int = ROWS, golden_dir=GOLDEN):
        self.rows = rows
        self.golden_dir = Path(golden_dir)

    def config(self, seed: int) -> dict:
        return {
            "rows": self.rows,
            "data_seed": pool_seed(seed),
            "command": ["meanbreak", "test", "<prices.csv>", *self.ARGS],
            "malformed_every": self.BAD_EVERY,
            "clients": 1,
            "loop": "closed",
        }

    def paths(self, data_seed: int) -> tuple[Path, Path]:
        stem = f"cli_test-{self.rows}-seed{data_seed}"
        return WORK / f"{stem}.csv", WORK / f"{stem}-bad.csv"

    def write_inputs(self, data_seed: int) -> tuple[Path, Path, int]:
        """Write the clean price CSV and the copy with one malformed row;
        return both paths and the file row number of the malformed row."""
        rng = np.random.default_rng(data_seed)
        n = self.rows
        # Volatility steps up by 0.5% at a seeded fraction: |returns| gets a
        # mean break small enough that the p-value does not underflow.
        split = int(n * rng.uniform(0.3, 0.7))
        scale = np.where(np.arange(n - 1) < split, 0.010, 0.01005)
        returns = scale * rng.standard_normal(n - 1)
        prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(returns))))
        start = np.datetime64("1900-01-01")
        dates = np.datetime_as_string(np.arange(start, start + n)).tolist()
        # tolist() gives Python floats: repr of an np.float64 would write
        # "np.float64(...)" under numpy 2, and no row would parse.
        cells = list(map(repr, prices.tolist()))
        bad_index = n - 1 - int(rng.integers(10, max(11, n // 100)))
        clean, bad = self.paths(data_seed)
        WORK.mkdir(parents=True, exist_ok=True)
        lines = ["date,price", *map(",".join, zip(dates, cells)), ""]
        clean.write_text("\n".join(lines), encoding="utf-8")
        lines[bad_index + 1] += "x"
        bad.write_text("\n".join(lines), encoding="utf-8")
        return clean, bad, bad_index + 2  # the header is file row 1

    def command(self, path: Path, spans_out: Path | None) -> list[str]:
        if spans_out is None:
            # What the installed ``meanbreak`` console script runs.
            prefix = ["-c", "import sys; from meanbreak.cli import main; sys.exit(main())"]
        else:
            prefix = [str(BENCH_DIR / "tracecli.py"), str(spans_out)]
        return [sys.executable, *prefix, "test", str(path), *self.ARGS]

    def setup(self, seed: int) -> None:
        from meanbreak import cli

        self.seed = seed
        data_seed = pool_seed(seed)
        self.clean, self.bad, self.bad_row = self.write_inputs(data_seed)
        self.golden = json.loads((self.golden_dir / "cli_test.json").read_text())[str(data_seed)]
        warm = WORK / "cli_test-warm.csv"
        warm.write_text("date,price\n1,1.0\n2,1.5\n3,1.2\n4,1.9\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["test", str(warm), *self.ARGS])

    def cleanup(self) -> None:
        """Remove the generated inputs (two 1e6-row files per data seed)."""
        for path in (self.clean, self.bad, WORK / "cli_test-warm.csv",
                     WORK / "cli_test-spans.json"):
            path.unlink(missing_ok=True)

    def invoke(self, path: Path, spans_out: Path | None = None):
        start = perf_counter()
        proc = subprocess.run(
            self.command(path, spans_out), env=program_env(), capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        return proc, perf_counter() - start

    def run_pass(self, index: int, tracer=None) -> PassResult:
        malformed = index % self.BAD_EVERY == 1
        spans_out = None if tracer is None else WORK / "cli_test-spans.json"
        proc, wall = self.invoke(self.bad if malformed else self.clean, spans_out)
        if tracer is not None:
            tracer.add_child_spans(json.loads(spans_out.read_text()), tracer.current())
        if malformed:
            ok = (
                proc.returncode == 3
                and self.bad_row == self.golden["bad_row"]
                and f"rows failed to parse: {self.bad_row}\n" in proc.stderr
            )
        else:
            ok = proc.returncode == 0 and self._matches(proc.stdout)
        return PassResult(wall, 1, 1, int(not ok))

    def _matches(self, stdout: str) -> bool:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        return all(doc.get(k) == self.golden["json"][k] for k in self.FIELDS)


def bridge_sup_cdf_reference(z: np.ndarray, terms: int = 100) -> np.ndarray:
    """1 + 2 sum_k (-1)^k exp(-2 k^2 z^2), summed to ``terms`` terms; exact to
    about 1e-15 for z >= 0.25, where terms beyond k = 17 are below 1e-16.

    Evaluated in blocks of points, so that the (terms x points) intermediate
    stays small next to the memory of the program being measured.
    """
    k = np.arange(1, terms + 1)[:, None]
    signs = np.where(k % 2 == 1, -1.0, 1.0)
    return np.concatenate([
        1.0 + 2.0 * (signs * np.exp(-2.0 * k * k * block[None, :] ** 2)).sum(axis=0)
        for block in np.array_split(z, max(1, z.size // 1000))
    ])


def bridge_sup_quantile_reference(p: np.ndarray) -> np.ndarray:
    lo = np.full(p.shape, 0.25)
    hi = np.full(p.shape, 4.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = bridge_sup_cdf_reference(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class Limits:
    """In-process limit-law and theory queries.

    Per pass: the CDF and p-value at seeded points, the quantile at seeded
    probabilities, the acceptance criterion-8 drift grid (closed form and
    quadrature), and the limiting variances of the canonical volatility
    specs and transitions.  Tolerances are those of the acceptance tests:
    1e-6 for the CDF and p-value, 5e-3 for the quantile, 1e-8 for drift and
    quadrature-based variances.
    """

    name = "limits"
    in_process = True
    children = 0
    ops_name, pass_name = "queries_per_s", "sweep_s_p50"
    CDF_TOL = 1e-6
    QUANTILE_TOL = 5e-3
    DRIFT_TOL = 1e-8
    # Acceptance criteria 1 and 2.
    CDF_TARGETS = {1.225: 0.9005625, 1.359: 0.9502443, 1.628: 0.9900245}
    QUANTILE_TARGETS = {0.90: 1.225, 0.95: 1.359, 0.99: 1.628}
    FAMILIES = ("logistic", "exponential")
    GAMMAS = (1.0, 20.0, 100.0)
    TAU1S = (0.2, 0.5, 0.8)

    def __init__(self, points=20_000, probabilities=1_500, taus=99, golden_dir=GOLDEN):
        self.points = points
        self.probabilities = probabilities
        self.taus = taus
        self.golden_dir = Path(golden_dir)

    def config(self, seed: int) -> dict:
        return {
            "cdf_points": self.points,
            "p_value_points": self.points,
            "z_range": [0.25, 3.0],
            "quantile_points": self.probabilities,
            "p_range": [0.05, 0.999],
            "drift_grid": {
                "families": list(self.FAMILIES), "gammas": list(self.GAMMAS),
                "tau1": list(self.TAU1S), "taus": self.taus,
            },
            "variance_queries": len(self.variance_queries()),
            "seed": seed,
        }

    @classmethod
    def transitions(cls):
        """The criterion-8 transitions: 2 families x 3 slopes x 3 locations."""
        from meanbreak import signals

        return [
            signals.TransitionSpec(f, t, g)
            for f in cls.FAMILIES for g in cls.GAMMAS for t in cls.TAU1S
        ]

    @classmethod
    def variance_queries(cls):
        """Fixed inputs of the variance queries, as (function name, args)."""
        from meanbreak import montecarlo, signals

        canonical = [montecarlo.preset(k)[1] for k in (1, 2, 3)]
        transitions = cls.transitions()
        smooth = [
            signals.SigmaSpec.smooth(math.sqrt(0.5), math.sqrt(1.5), t) for t in transitions
        ]
        queries = [("ergodic_variance_limit", (s,)) for s in canonical + smooth]
        queries += [
            ("partial_variance_limit", (s, float(tau)))
            for s in canonical for tau in np.linspace(0.05, 0.95, 19)
        ]
        queries += [("limit_variance_abrupt", (tau1, 1.0, 2.0, 1.0)) for tau1 in cls.TAU1S]
        queries += [("limit_variance_smooth", (t, 1.0, 2.0, 1.0)) for t in transitions]
        return queries

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.25, 3.0, self.points)
        p = rng.uniform(0.05, 0.999, self.probabilities)
        self.z = np.concatenate((list(self.CDF_TARGETS), z)).tolist()
        self.cdf_expected = np.concatenate(
            (list(self.CDF_TARGETS.values()), bridge_sup_cdf_reference(z))
        )
        self.p = np.concatenate((list(self.QUANTILE_TARGETS), p)).tolist()
        self.quantile_expected = np.concatenate(
            (list(self.QUANTILE_TARGETS.values()), bridge_sup_quantile_reference(p))
        )
        self.grid = [float(t) for t in np.linspace(0.01, 0.99, self.taus)]
        self.drift_specs = self.transitions()
        self.variance = self.variance_queries()
        self.variance_expected = np.array(
            json.loads((self.golden_dir / "limits.json").read_text())["variance"]
        )
        self.warm()

    def warm(self) -> None:
        """First call of every query function."""
        from meanbreak import asymptotics, dist

        dist.bridge_sup_cdf(self.z[0])
        dist.p_value(self.z[0])
        dist.bridge_sup_quantile(self.p[0])
        spec = self.drift_specs[0]
        asymptotics.drift_closed_logistic(spec.tau1, spec.gamma, 0.5)
        asymptotics.drift_closed_exponential(spec.tau1, spec.gamma, 0.5)
        asymptotics.drift_quadrature(spec, 0.5)
        self.evaluate(self.variance[:: len(self.variance) // 8])

    def sweep(self):
        from meanbreak import asymptotics, dist

        cdf = [dist.bridge_sup_cdf(z) for z in self.z]
        pv = [dist.p_value(z) for z in self.z]
        quantile = [dist.bridge_sup_quantile(p) for p in self.p]
        closed, quad = [], []
        for spec in self.drift_specs:
            fn = (
                asymptotics.drift_closed_logistic
                if spec.family == "logistic"
                else asymptotics.drift_closed_exponential
            )
            closed.extend(fn(spec.tau1, spec.gamma, t) for t in self.grid)
            quad.extend(asymptotics.drift_quadrature(spec, t) for t in self.grid)
        return cdf, pv, quantile, closed, quad, self.evaluate(self.variance)

    @staticmethod
    def evaluate(queries) -> list[float]:
        """Values of the variance queries; a LimitVariance gives its sigma*^2."""
        from meanbreak import asymptotics, signals

        values = []
        for fn_name, args in queries:
            module = signals if fn_name == "ergodic_variance_limit" else asymptotics
            value = getattr(module, fn_name)(*args)
            values.append(getattr(value, "sigma_star2", value))
        return values

    def run_pass(self, index: int, tracer=None) -> PassResult:
        start = perf_counter()
        cdf, pv, quantile, closed, quad, variance = self.sweep()
        wall = perf_counter() - start
        checks = [
            np.abs(np.array(cdf) - self.cdf_expected) > self.CDF_TOL,
            np.abs(np.array(pv) - (1.0 - self.cdf_expected)) > self.CDF_TOL,
            np.abs(np.array(quantile) - self.quantile_expected) > self.QUANTILE_TOL,
            np.abs(np.array(closed) - np.array(quad)) > self.DRIFT_TOL,
            np.abs(np.array(variance) - self.variance_expected) > self.DRIFT_TOL,
        ]
        queries = len(cdf) + len(pv) + len(quantile) + len(closed) + len(quad) + len(variance)
        failed = sum(int(c.sum()) for c in checks)
        return PassResult(wall, queries, queries, failed)

    def cleanup(self) -> None:
        pass


def run_python(args: list[str]) -> float:
    """Wall time of a fresh interpreter running ``args``; raises if it fails."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, *args], env=program_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return perf_counter() - start


def make(name: str):
    if name == "mc_table":
        return MonteCarlo("mc_table", (30, 100, 500, 1000), 1000, workers=1)
    if name == "mc_long":
        return MonteCarlo("mc_long", (100_000,), 48, workers=2)
    if name == "cli_test":
        return CliTest()
    if name == "limits":
        return Limits()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_table", "mc_long", "cli_test", "limits")
