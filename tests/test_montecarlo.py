"""Tests for the rejection-frequency experiment harness and table emission."""

import dataclasses
import json
import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from meanbreak import core, dist, montecarlo, signals
from meanbreak.core import DegenerateSeriesError, lm_test
from meanbreak.montecarlo import (
    ExperimentConfig,
    RejectionTable,
    emit_table,
    preset,
    run_experiment,
)
from meanbreak.signals import MeanSpec, SigmaSpec, generate_series
from processes import assert_no_children, run_child


class TestPreset:
    def test_series_1_constant_constant(self):
        mean, sigma = preset(1)
        assert mean.variant == "constant" and mean.levels == (1.0,)
        assert sigma.variant == "constant" and sigma.levels == (1.0,)

    def test_series_5_step_step(self):
        mean, sigma = preset(5)
        assert mean.variant == "step"
        assert mean.levels == (1.0, 2.0) and mean.fractions == (0.5,)
        assert sigma.variant == "step"
        assert sigma.fractions == (2.0 / 3.0,)
        # regime variances 0.5 and 1.5
        assert [s**2 for s in sigma.levels] == pytest.approx([0.5, 1.5])

    def test_series_9_smooth_smooth(self):
        mean, sigma = preset(9)
        assert mean.variant == "smooth" and sigma.variant == "smooth"
        assert mean.transition.family == "logistic"
        assert mean.transition.tau1 == 0.5 and mean.transition.gamma == 20.0
        assert sigma.transition.tau1 == pytest.approx(2.0 / 3.0)
        assert sigma.transition.gamma == 20.0

    def test_out_of_range(self):
        for bad in (0, 10, -1):
            with pytest.raises(ValueError):
                preset(bad)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)
        with pytest.raises(ValueError):
            ExperimentConfig(sample_sizes=(1,))
        with pytest.raises(ValueError):
            ExperimentConfig(levels=(0.05, 0.01))  # not ascending
        with pytest.raises(ValueError):
            ExperimentConfig(levels=(0.0, 0.5))
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(master_seed=-1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"levels": (0.05, 0.05)}, "strictly ascending"),
            ({"levels": (0.01, 0.05, 0.05, 0.1)}, "strictly ascending"),
            ({"sample_sizes": (30, 30)}, "distinct"),
            ({"sample_sizes": (30, 100, 30)}, "distinct"),
            ({"series": (1, 1)}, "distinct"),
            ({"series": (1, ("Series 1", MeanSpec.constant(0.0), SigmaSpec.constant(1.0)))},
             "distinct"),
            ({"replications": 2**32 + 1}, "replications"),
        ],
    )
    def test_duplicate_axes_and_too_many_replications_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("name", ["series", "sample_sizes", "levels"])
    def test_empty_axis_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
            ExperimentConfig(**{name: ()})

    def test_largest_replication_count_accepted(self):
        assert ExperimentConfig(replications=2**32).replications == 2**32

    @pytest.mark.parametrize("fields, name", [
        ({"master_seed": 1.5}, "master_seed"),
        ({"master_seed": "1"}, "master_seed"),
        ({"sample_sizes": (30.0,)}, "sample_sizes"),
        ({"sample_sizes": (30, 100.5)}, "sample_sizes"),
        ({"replications": 10.0}, "replications"),
        ({"workers": 1.0}, "workers"),
        ({"series": (1.0,)}, "series"),
        ({"series": (np.float64(4.0), 1)}, "series"),
    ])
    def test_non_integer_setting_names_its_field(self, fields, name):
        # int() would run 1.5 as seed 1, and record 1.5 in the JSON output.
        with pytest.raises(ValueError, match=f"^{name}: expected an integer, got "):
            ExperimentConfig(**fields)

    def test_numpy_integer_settings_run_as_python_ints(self):
        numpy_ints = ExperimentConfig(
            series=(np.int64(1), np.uint8(4)), sample_sizes=(np.int64(30), np.int32(31)),
            levels=(0.05,), replications=np.int64(10), master_seed=np.uint64(2**40),
            workers=np.int16(1),
        )
        python_ints = ExperimentConfig(series=(1, 4), sample_sizes=(30, 31), levels=(0.05,),
                                       replications=10, master_seed=2**40, workers=1)
        assert numpy_ints == python_ints
        for name in ("replications", "master_seed", "workers"):
            assert type(getattr(numpy_ints, name)) is int
        assert all(type(v) is int for v in numpy_ints.series + numpy_ints.sample_sizes)
        for format in ("json", "csv", "text"):
            assert (emit_table(run_experiment(numpy_ints), format)
                    == emit_table(run_experiment(python_ints), format))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_numpy_float_levels_run_as_python_floats(self, dtype):
        # A numpy float in the table would make the JSON output raise.
        numpy_levels = tuple(dtype(a) for a in (0.01, 0.05, 0.1))
        configs = [ExperimentConfig(series=(1, 4), sample_sizes=(30,), levels=levels,
                                    replications=10, master_seed=3)
                   for levels in (numpy_levels, tuple(float(a) for a in numpy_levels))]
        assert all(type(a) is float for a in configs[0].levels)
        for format in ("json", "csv"):
            numpy_table, python_table = (emit_table(run_experiment(c), format) for c in configs)
            assert numpy_table == python_table

    @pytest.mark.parametrize("levels", [("0.05",), (0.01, "0.05"), (0.05j,)])
    def test_non_real_level_names_its_field(self, levels):
        with pytest.raises(ValueError, match="^levels: expected a real number, got "):
            ExperimentConfig(levels=levels)

    @pytest.mark.parametrize("entry", [
        ("x", MeanSpec.constant(0.0)),
        ("x", MeanSpec.constant(0.0), SigmaSpec.constant(1.0), 1),
        ("x", 1.0, 2.0),
        ("x", MeanSpec.constant(0.0), MeanSpec.constant(-1.0)),
        ("x", SigmaSpec.constant(1.0), SigmaSpec.constant(1.0)),
        ["x", MeanSpec.constant(0.0), None],
    ], ids=["pair", "quadruple", "floats", "mean-as-sigma", "sigma-as-mean", "list"])
    def test_custom_series_entry_checked(self, entry):
        # Unchecked, a pair fails to unpack, floats fail only in each forked
        # range of run_experiment, and a mean spec as sigma runs to a table.
        with pytest.raises(ValueError, match="^series: expected a preset id or a "
                                             r"\(label, MeanSpec, SigmaSpec\) triple, got "):
            ExperimentConfig(series=(1, entry))


SMALL = ExperimentConfig(
    series=(1, 4),
    sample_sizes=(50,),
    levels=(0.01, 0.05, 0.10),
    replications=40,
    master_seed=5,
    workers=1,
)


def table_json(config):
    return emit_table(run_experiment(config), "json")


class TestRunExperiment:
    def test_shape_and_bounds(self):
        table = run_experiment(SMALL)
        assert table.replications == 40
        assert len(table.cells) == 2 * 1 * 3
        for (label, n, alpha), count in table.cells.items():
            assert 0 <= count <= 40
            assert 0.0 <= table.frequency(label, n, alpha) <= 1.0

    def test_rerun_is_identical(self):
        a = run_experiment(SMALL)
        b = run_experiment(SMALL)
        assert a.cells == b.cells
        assert a.degenerate == b.degenerate

    def test_worker_count_does_not_change_results(self):
        sequential = run_experiment(SMALL)
        parallel = run_experiment(
            ExperimentConfig(
                series=SMALL.series,
                sample_sizes=SMALL.sample_sizes,
                levels=SMALL.levels,
                replications=SMALL.replications,
                master_seed=SMALL.master_seed,
                workers=2,
            )
        )
        assert sequential.cells == parallel.cells
        assert emit_table(sequential, "csv") == emit_table(parallel, "csv")
        assert emit_table(sequential, "json") == emit_table(parallel, "json")

    @staticmethod
    def processes_used(monkeypatch, workers):
        """Processes ``run_experiment`` runs its ranges in, checking its
        table; a fake ``fork_map`` runs every range inline, so no process
        starts."""
        used, expected = [], table_json(SMALL)

        def inline(fn, calls, names):
            used.append(len(calls))
            return [fn(*args) for args in calls]

        monkeypatch.setattr(montecarlo, "fork_map", inline)
        assert table_json(dataclasses.replace(SMALL, workers=workers)) == expected
        return used

    @pytest.mark.parametrize("cpus, processes", [(3, [3]), (None, [1])])
    def test_processes_capped_at_cpu_count(self, monkeypatch, cpus, processes):
        # Where the platform keeps no affinity mask, the machine's count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert self.processes_used(monkeypatch, 10_000) == processes

    def test_processes_capped_at_affinity(self, monkeypatch):
        # Under taskset or a cpuset, fewer CPUs than the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert self.processes_used(monkeypatch, 10_000) == [3]
        assert self.processes_used(monkeypatch, 2) == [2]

    def test_monotone_in_alpha(self):
        table = run_experiment(SMALL)
        for label in ("Series 1", "Series 4"):
            f = [table.frequency(label, 50, a) for a in (0.01, 0.05, 0.10)]
            assert f[0] <= f[1] <= f[2]

    def test_custom_series_label(self):
        config = ExperimentConfig(
            series=(("mydesign", MeanSpec.constant(0.0), SigmaSpec.constant(1.0)),),
            sample_sizes=(40,),
            levels=(0.05,),
            replications=20,
            master_seed=3,
        )
        table = run_experiment(config)
        assert ("mydesign", 40, 0.05) in table.cells

    def test_size_near_nominal_and_overrejection_bounded(self):
        config = ExperimentConfig(
            series=(1, 2, 3),
            sample_sizes=(1000,),
            levels=(0.01, 0.05, 0.10),
            replications=500,
            master_seed=12,
        )
        table = run_experiment(config)
        for alpha in config.levels:
            se = math.sqrt(alpha * (1.0 - alpha) / 500)
            # constant-variance null: close to nominal
            assert abs(table.frequency("Series 1", 1000, alpha) - alpha) <= 3.0 * se
            # heteroskedastic nulls may overreject but stay bounded
            for sid in (2, 3):
                assert table.frequency(f"Series {sid}", 1000, alpha) <= 2.0 * alpha + 3.0 * se

    def test_power_grows_with_n(self):
        config = ExperimentConfig(
            series=(4,),
            sample_sizes=(100, 500),
            levels=(0.05,),
            replications=200,
            master_seed=8,
        )
        table = run_experiment(config)
        f100 = table.frequency("Series 4", 100, 0.05)
        f500 = table.frequency("Series 4", 500, 0.05)
        assert f100 <= f500
        assert f500 >= 0.99


def reference_table(config: ExperimentConfig) -> RejectionTable:
    """The experiment one replication at a time: generate_series, lm_test,
    then the p-value against every level."""
    table = RejectionTable(replications=config.replications, master_seed=config.master_seed)
    for sid in config.series:
        mean, sigma = preset(sid)
        for n in config.sample_sizes:
            counts = dict.fromkeys(config.levels, 0)
            degenerate = 0
            for r in range(config.replications):
                y = generate_series(mean, sigma, n, (config.master_seed, sid, n, r))
                try:
                    p = lm_test(y).p_value
                except DegenerateSeriesError:
                    degenerate += 1
                    continue
                for alpha in config.levels:
                    counts[alpha] += p < alpha
            for alpha, count in counts.items():
                table.cells[(f"Series {sid}", n, alpha)] = count
            table.degenerate[(f"Series {sid}", n)] = degenerate
    return table


class TestForkedRanges:
    """On two workers, the second range of replications runs in a forked
    child, which no error or interrupt lets outlive the call."""

    TWO = dataclasses.replace(SMALL, workers=2)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_daemon_forks_its_ranges(self):
        # A daemonic pool worker may start no pool process, but it forks the
        # ranges like any process.
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(table_json, (self.TWO,)) == table_json(SMALL)

    def test_interrupt_kills_every_child(self, monkeypatch):
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child that would outlive the call unless killed

        monkeypatch.setattr(montecarlo, "_range_counts", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(self.TWO)
        assert time.monotonic() - start < 30  # killed, not waited for
        assert_no_children()

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(7), 7),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ])
    def test_child_that_sends_nothing(self, monkeypatch, end, status):
        parent, counts = os.getpid(), montecarlo._range_counts

        def ended(*args):
            if os.getpid() != parent:
                end()
            return counts(*args)

        monkeypatch.setattr(montecarlo, "_range_counts", ended)
        with pytest.raises(ChildProcessError) as info:
            run_experiment(self.TWO)
        assert str(info.value) == (f"the simulation of replications 20-40 ended "
                                   f"with exit status {status} and sent no result")
        assert_no_children()

    def test_loads_no_pool_modules(self):
        code = (
            "import os, sys; from meanbreak.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "code = main(['simulate', '--series', '1', '--n', '30', '--reps', '20',"
            " '--workers', '2', '--format', 'csv'])\n"
            "print(code, sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        assert run_child(code).splitlines()[-1] == "0 []"


class TestBatchedEngine:
    # 600 replications at n = 30 span two blocks of the CUSUM kernel.
    CONFIG = ExperimentConfig(
        series=tuple(range(1, 10)),
        sample_sizes=(2, 3, 30, 1001),
        levels=(0.01, 0.05, 0.10),
        replications=600,
        master_seed=21,
    )

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_table(self.CONFIG)

    def test_replications_span_more_than_one_block_at_n_30(self):
        assert self.CONFIG.replications > signals._BLOCK_ELEMENTS // 30

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_per_replication_reference(self, reference, workers):
        table = run_experiment(dataclasses.replace(self.CONFIG, workers=workers))
        assert table.cells == reference.cells
        assert table.degenerate == reference.degenerate

    def test_block_size_does_not_change_results(self, monkeypatch):
        config = ExperimentConfig(
            series=(1, 5, 9), sample_sizes=(3, 50), replications=40, master_seed=4
        )
        table = run_experiment(config)
        monkeypatch.setattr(signals, "_BLOCK_ELEMENTS", 7)
        assert emit_table(run_experiment(config), "json") == emit_table(table, "json")

    def test_degenerate_replications_counted_not_tested(self):
        # 1 + 1e-300 * eps rounds to 1: every replication is a constant series.
        flat = ("flat", MeanSpec.constant(1.0), SigmaSpec.constant(1e-300))
        config = ExperimentConfig(series=(flat, 1), sample_sizes=(30,), replications=20)
        table = run_experiment(config)
        assert table.degenerate == {("flat", 30): 20, ("Series 1", 30): 0}
        assert all(table.cells[("flat", 30, alpha)] == 0 for alpha in config.levels)


class TestPathTable:
    def test_each_distinct_path_built_once_per_size(self, monkeypatch):
        built = []
        mean_path = signals.mean_path
        for name in ("mean_path", "sigma_path"):
            monkeypatch.setattr(signals, name,
                                lambda spec, n: built.append((spec, n)) or mean_path(spec, n))
        config = ExperimentConfig(series=tuple(range(1, 10)), sample_sizes=(30, 100),
                                  replications=5, workers=1)
        run_experiment(config)
        specs = {spec for series_id in range(1, 10) for spec in preset(series_id)}
        varying = [spec for spec in specs if spec.variant != "constant"]
        assert len(varying) == 4
        assert sorted(built, key=repr) == sorted(
            [(spec, n) for spec in varying for n in config.sample_sizes], key=repr)

    def test_constant_level_matches_its_full_path(self, monkeypatch):
        # A constant path is applied as a scalar level; a step path with
        # equal levels is a full array of the same values.  The statistic
        # barely moves with the level, so its bits are compared as well.
        designs = [("level", MeanSpec.constant(-3.5), SigmaSpec.constant(2.5)),
                   ("level", MeanSpec.step((-3.5, -3.5), (0.5,)),
                    SigmaSpec.step((2.5, 2.5), (0.5,)))]
        cusum_sup = core._cusum_sup

        def run(design):
            statistics = []
            monkeypatch.setattr(core, "_cusum_sup", lambda y, grid: statistics.append(
                cusum_sup(y, grid)) or statistics[-1])
            table = run_experiment(ExperimentConfig(
                series=(design,), sample_sizes=(30, 1001), replications=200, master_seed=8))
            return ([emit_table(table, format) for format in ("csv", "json")],
                    [statistic.tobytes() for statistic in statistics])

        assert run(designs[0]) == run(designs[1])


class TestThresholdTally:
    """Rejections decided against critical values equal ``p_value < alpha``
    for every statistic."""

    ALPHAS = np.array([1e-12, 0.01, 0.05, 0.1, 0.5, 0.99])

    @pytest.fixture(scope="class")
    def bands(self):
        return montecarlo._critical_bands(self.ALPHAS)

    def check(self, statistic, bands):
        reference = np.array([[dist.p_value(s) < a for a in self.ALPHAS] for s in statistic])
        np.testing.assert_array_equal(
            montecarlo._rejections(statistic, self.ALPHAS, bands), reference
        )

    def test_band_edges_clear_each_level(self, bands):
        # The series is within about 1e-15 of its exact value, so p-values
        # outside the band are decided with a wide margin.
        for alpha, (lo, hi) in zip(self.ALPHAS, bands):
            assert lo < dist.bridge_sup_quantile(1.0 - alpha) < hi
            assert dist.p_value(lo) >= alpha + 0.9 * montecarlo._TALLY_MARGIN
            assert dist.p_value(hi) <= alpha - 0.9 * montecarlo._TALLY_MARGIN

    def test_dense_grid(self, bands):
        self.check(np.linspace(0.0, 8.0, 40001), bands)

    def test_steps_around_critical_values_and_band_edges(self, bands):
        centres = [dist.bridge_sup_quantile(1.0 - a) for a in self.ALPHAS]
        centres += list(bands.ravel())
        statistic = list(centres)
        for c in centres:
            up = down = c
            for _ in range(64):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                statistic += [up, down]
        self.check(np.array(statistic), bands)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-15, 1.0 - 1e-13, 1.0 - 1e-16])
    def test_levels_without_a_closed_band(self, alpha):
        # alpha -/+ the margin leaves (0, 1): that side of the band is open.
        alphas = np.array([alpha])
        bands = montecarlo._critical_bands(alphas)
        assert np.isinf(bands).sum() == 1
        edge = bands[np.isfinite(bands)][0]
        statistic = np.concatenate([np.linspace(0.0, 10.0, 2001), np.nextafter(edge, [0.0, 9.0])])
        reference = np.array([[dist.p_value(s) < alpha] for s in statistic])
        np.testing.assert_array_equal(montecarlo._rejections(statistic, alphas, bands), reference)


class TestEmitTable:
    def test_empty_table(self):
        empty = RejectionTable(replications=1, master_seed=0)
        csv_doc = emit_table(empty, "csv")
        assert csv_doc == "series,n,alpha,rejections,replications,frequency\n"

    def test_csv_row_content(self):
        table = RejectionTable(
            cells={("Series 1", 1000, 0.05): 41}, replications=1000, master_seed=0
        )
        lines = emit_table(table, "csv").splitlines()
        assert lines[0] == "series,n,alpha,rejections,replications,frequency"
        assert lines[1] == "Series 1,1000,0.05,41,1000,0.041"

    def test_text_percentage_formatting(self):
        table = RejectionTable(
            cells={("Series 1", 1000, 0.05): 41}, replications=1000, master_seed=0
        )
        assert "4.1" in emit_table(table, "text")

    def test_text_flags_degenerate_cells(self):
        table = RejectionTable(
            cells={("Series 1", 30, 0.05): 2},
            degenerate={("Series 1", 30): 1},
            replications=10,
            master_seed=0,
        )
        doc = emit_table(table, "text")
        assert "*" in doc
        assert "degenerate" in doc

    def test_json_lists_degenerate_cells(self):
        # 1 + 1e-300 * eps rounds to 1: every replication is a constant series.
        flat = ("flat", MeanSpec.constant(1.0), SigmaSpec.constant(1e-300))
        config = ExperimentConfig(series=(flat, 1), sample_sizes=(30,), levels=(0.05,),
                                  replications=4)
        assert emit_table(run_experiment(config), "json") == """\
{
  "cells": [
    {
      "alpha": 0.05,
      "frequency": 0.0,
      "n": 30,
      "rejections": 0,
      "replications": 4,
      "series": "Series 1"
    },
    {
      "alpha": 0.05,
      "frequency": 0.0,
      "n": 30,
      "rejections": 0,
      "replications": 4,
      "series": "flat"
    }
  ],
  "degenerate": [
    {
      "count": 4,
      "n": 30,
      "series": "flat"
    }
  ],
  "master_seed": 0,
  "replications": 4
}
"""

    def test_json_round_trip(self):
        table = run_experiment(SMALL)
        doc = json.loads(emit_table(table, "json"))
        assert doc["replications"] == 40
        assert doc["master_seed"] == 5
        assert len(doc["cells"]) == 6
        for cell in doc["cells"]:
            key = (cell["series"], cell["n"], cell["alpha"])
            assert table.cells[key] == cell["rejections"]
            assert cell["frequency"] == pytest.approx(cell["rejections"] / 40)

    def test_full_grid_cardinality(self):
        config = ExperimentConfig(
            series=tuple(range(1, 10)),
            sample_sizes=(20, 30),
            levels=(0.05, 0.10),
            replications=5,
            master_seed=1,
        )
        table = run_experiment(config)
        assert len(table.cells) == 9 * 2 * 2

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(RejectionTable(replications=1), "yaml")
