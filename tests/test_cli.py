"""End-to-end tests of the command-line interface (run in-process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanbreak
from meanbreak import cli, core


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuantileAndPvalue:
    def test_quantile(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "0.95")
        assert code == 0
        assert float(out) == pytest.approx(1.3581, abs=5e-3)

    def test_pvalue_zero(self, capsys):
        code, out, _ = run_cli(capsys, "pvalue", "0")
        assert code == 0
        assert out.strip() == "1.0000000"

    def test_pvalue_golden(self, capsys):
        code, out, _ = run_cli(capsys, "pvalue", "1.628")
        assert code == 0
        assert float(out) == pytest.approx(0.0099755, abs=1e-6)

    def test_quantile_out_of_domain_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "quantile", "1.5")
        assert code == 2
        assert "usage error" in err

    def test_pvalue_negative_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "pvalue", "-1")
        assert code == 2

    def test_pvalue_of_subnormal_statistic(self, capsys):
        code, out, _ = run_cli(capsys, "pvalue", "1e-320")
        assert code == 0
        assert out.strip() == "1.0000000"

    def test_pvalue_nan_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "pvalue", "nan")
        assert code == 2
        assert "usage error" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestCmdTest:
    def test_returns_pair(self, tmp_path, capsys):
        f = tmp_path / "r.txt"
        f.write_text("-1\n1\n")
        code, out, _ = run_cli(capsys, "test", str(f), "--kind", "returns")
        assert code == 0
        assert "0.7071068" in out
        assert "fail to reject" in out

    def test_constant_levels_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("5\n5\n5\n5\n")
        code, _, err = run_cli(capsys, "test", str(f), "--kind", "levels")
        assert code == 3
        assert "variance" in err

    @pytest.mark.parametrize("n", [3, 30, 100, 1000])
    def test_constant_returns_is_data_error(self, tmp_path, capsys, n):
        f = tmp_path / "r.txt"
        f.write_text("0.1\n" * n)
        code, _, err = run_cli(capsys, "test", str(f))
        assert code == 3
        assert "variance" in err

    def test_nonpositive_level_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("5\n-1\n5\n")
        code, _, err = run_cli(capsys, "test", str(f), "--kind", "levels")
        assert code == 3
        assert "positive" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "test", "/nonexistent/file.csv")
        assert code == 3
        assert "cannot read" in err

    def test_bad_rows_reported_with_numbers(self, tmp_path, capsys):
        f = tmp_path / "r.txt"
        f.write_text("1\nnot-a-number\n3\n")
        code, _, err = run_cli(capsys, "test", str(f))
        assert code == 3
        assert err.endswith("rows failed to parse: 2\n")

    @pytest.mark.parametrize("text, args, report", [
        # blank and whitespace-only lines count as file lines
        ("1.0\n\n   \n2.0\nx\n3.0\n", (), "rows failed to parse: 5\n"),
        ("1\n" + "x\n" * 13 + "2\n3\n", (),
         "rows failed to parse: 2, 3, 4, 5, 6, 7, 8, 9, 10, 11 (+3 more)\n"),
        ("1\nnan\n2\n-inf\n3\n", (), "rows with non-finite values: 2, 4\n"),
        # a row short of the value column
        ("date,price\n2020-01-01,1.5\n2020-01-02\n2020-01-03,2.0\n",
         ("--column", "price"), "rows failed to parse: 3\n"),
        # one delimiter per file: the first row fixes it
        ("1,2\n3 4\n5,6\n", (), "rows failed to parse: 2\n"),
        # a nonpositive level is named by its file line, header and blank lines counted
        ("price\n\n5\n-1\n5\n", ("--kind", "levels", "--column", "price"),
         "levels must be strictly positive for the log-return step (offending row 4)\n"),
    ])
    def test_bad_row_reports(self, tmp_path, capsys, text, args, report):
        f = tmp_path / "r.txt"
        f.write_text(text)
        code, _, err = run_cli(capsys, "test", str(f), *args)
        assert code == 3
        assert err.endswith(report)

    def test_rows_numbered_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_CHARS", 64)  # about ten lines a block
        lines = ["value"] + [f"{k}.5" for k in range(300)]
        for k in (3, 77, 150):
            lines[k] = "   "
        lines[120], lines[250] = "x", "inf"
        f = tmp_path / "r.txt"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(cli.DataError) as err:
            cli.load_column(str(f), "value")
        assert str(err.value).endswith(
            "rows failed to parse: 121; rows with non-finite values: 251"
        )
        lines[120], lines[250] = "1.5", "2.5"
        f.write_text("\n".join(lines) + "\n")
        values, _ = cli.load_column(str(f), "value")
        assert values.tolist() == [float(v) for v in lines[1:] if v.strip()]

    @pytest.mark.parametrize("text, args, break_date", [
        ('date,price\n"Jan 1, 2020",1\n"Jan 2, 2020","1"\n"Jan 3, 2020",3\n',
         ("--column", "price", "--date-column", "date"), "Jan 2, 2020"),
        ("date price\n2020-01-01 1\n2020-01-02 1\n2020-01-03 3\n",
         ("--column", "price", "--date-column", "date"), "2020-01-02"),
        # a row short of the date column has an empty date
        ("price,note\n1,a\n1\n3,c\n", ("--column", "price", "--date-column", "note"), ""),
        ("date,price\n\n2020-01-01,1\n   \n2020-01-02,1\n\n2020-01-03,3\n",
         ("--column", "1", "--date-column", "0"), "2020-01-02"),
        ("\n1\n\n  \n1\n3\n", (), None),
        ("1\n1.0_0\n3\n", (), None),  # float() reads "1.0_0"
    ])
    def test_file_layouts(self, tmp_path, capsys, text, args, break_date):
        f = tmp_path / "r.txt"
        f.write_text(text)
        code, out, _ = run_cli(capsys, "test", str(f), "--format", "json", *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert doc["statistic"] == core.lm_test(np.array([1.0, 1.0, 3.0])).statistic
        assert doc["break_index"] == 2
        assert doc["break_date"] == break_date

    @pytest.mark.parametrize("args, code, message", [
        (("--column", "-1"), 2, "usage error: column index must be nonnegative, got -1"),
        (("--column", "5"), 3, "column 5 is past the 2 columns of row 1"),
        (("--column", "price", "--date-column", "2"), 3, "column 2 is past"),
        (("--column", "volume"), 3, "column 'volume' not found"),
    ])
    def test_column_selection_errors(self, tmp_path, capsys, args, code, message):
        f = tmp_path / "p.csv"
        f.write_text("date,price\n2020-01-01,1.5\n2020-01-02,2.5\n2020-01-03,2.0\n")
        got, _, err = run_cli(capsys, "test", str(f), *args)
        assert got == code
        assert message in err

    def test_too_few_rows(self, tmp_path, capsys):
        f = tmp_path / "r.txt"
        f.write_text("0.5\n")
        code, _, _ = run_cli(capsys, "test", str(f))
        assert code == 3

    def test_header_column_by_name_and_dates(self, tmp_path, capsys):
        rows = ["date,price"] + [
            f"2020-01-{d:02d},{100 + d}" for d in range(1, 21)
        ]
        f = tmp_path / "prices.csv"
        f.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "test", str(f), "--kind", "levels",
            "--column", "price", "--date-column", "date", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 19  # 20 prices -> 19 returns
        assert doc["break_index"] == 9
        assert doc["break_date"] == "2020-01-10"  # return 9 ends on price row 10
        expected = core.lm_test(core.compute_returns(100.0 + np.arange(1, 21)))
        assert doc["statistic"] == expected.statistic
        assert doc["p_value"] == expected.p_value

    def test_json_and_text_agree(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(200)
        y[100:] += 1.5
        f = tmp_path / "r.txt"
        f.write_text("\n".join(f"{float(v)!r}" for v in y) + "\n")
        code, out_text, _ = run_cli(capsys, "test", str(f))
        assert code == 0
        code, out_json, _ = run_cli(capsys, "test", str(f), "--format", "json")
        assert code == 0
        doc = json.loads(out_json)
        assert f"{doc['statistic']:.7f}" in out_text
        assert f"break index: {doc['break_index']}" in out_text
        expected = core.lm_test(y, alpha=0.05)
        assert doc["statistic"] == pytest.approx(expected.statistic, rel=1e-12)
        assert doc["reject"] is expected.reject

    def test_levels_pipeline_matches_manual_returns(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        prices = 100.0 * np.exp(np.cumsum(rng.standard_normal(50) * 0.01))
        f_levels = tmp_path / "levels.txt"
        f_levels.write_text("\n".join(f"{float(v)!r}" for v in prices) + "\n")
        returns = core.compute_returns(prices)
        f_returns = tmp_path / "returns.txt"
        f_returns.write_text("\n".join(f"{float(v)!r}" for v in returns) + "\n")
        _, out_levels, _ = run_cli(
            capsys, "test", str(f_levels), "--kind", "levels", "--format", "json"
        )
        _, out_returns, _ = run_cli(
            capsys, "test", str(f_returns), "--kind", "returns", "--format", "json"
        )
        a, b = json.loads(out_levels), json.loads(out_returns)
        assert a["statistic"] == pytest.approx(b["statistic"], rel=1e-12)
        assert a["break_index"] == b["break_index"]

    def test_tiny_pvalue_reported_as_underflow(self, tmp_path, capsys):
        # synthetic absolute-return-style series with a strong mean shift
        rng = np.random.default_rng(21)
        y = np.abs(rng.standard_normal(6000)) * 0.01
        y[3000:] += 0.02
        f = tmp_path / "absr.txt"
        f.write_text("\n".join(f"{float(v)!r}" for v in y) + "\n")
        code, out, _ = run_cli(capsys, "test", str(f), "--abs")
        assert code == 0
        assert "< 1e-12" in out
        assert "reject" in out and "fail to reject" not in out
        code, out, _ = run_cli(capsys, "test", str(f), "--abs", "--format", "json")
        doc = json.loads(out)
        assert doc["underflow"] is True
        assert doc["p_value"] == 0.0


class TestCmdSimulate:
    def test_one_cell_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--series", "1", "--n", "100", "--alpha", "0.05",
            "--reps", "50", "--seed", "42", "--workers", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "series,n,alpha,rejections,replications,frequency"
        assert len(lines) == 2
        assert lines[1].startswith("Series 1,100,0.05,")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--series", "1", "--n", "50", "--alpha", "0.1",
            "--reps", "10", "--seed", "1", "--workers", "1",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("series,n,alpha")

    def test_no_series_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--reps", "5")
        assert code == 2
        assert "series" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--series", "4", "--alpha", "0.05", "--alpha", "0.05"),
            ("--series", "1", "--series", "1"),
            ("--series", "1", "--n", "30", "--n", "30"),
            ("--series", "1", "--reps", str(2**32 + 1)),
        ],
    )
    def test_duplicate_axis_or_too_many_reps_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "simulate", "--n", "100", "--reps", "20", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_config_file_equivalent_to_flags(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "series = 1\nn = 50\nalpha = 0.05 0.1\nreps = 20\nseed = 3\nworkers = 1\n"
        )
        code, from_config, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--format", "csv"
        )
        assert code == 0
        code, from_flags, _ = run_cli(
            capsys, "simulate", "--series", "1", "--n", "50",
            "--alpha", "0.05", "--alpha", "0.1", "--reps", "20", "--seed", "3",
            "--workers", "1", "--format", "csv",
        )
        assert code == 0
        assert from_config == from_flags

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series = 1\nn = 50\nalpha = 0.05\nreps = 20\nseed = 3\nworkers = 1\n")
        _, base, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--format", "json")
        _, overridden, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--seed", "4", "--format", "json"
        )
        assert json.loads(base)["master_seed"] == 3
        assert json.loads(overridden)["master_seed"] == 4

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 3
        assert "key" in err

    def test_text_format_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--series", "1", "--series", "4",
            "--n", "30", "--n", "100", "--alpha", "0.05",
            "--reps", "20", "--seed", "2", "--workers", "1", "--format", "text",
        )
        assert code == 0
        assert "n=30" in out and "n=100" in out
        assert "Series 1" in out and "Series 4" in out

    def test_diagnostics_go_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--series", "2", "--n", "200", "--alpha", "0.05",
            "--reps", "30", "--seed", "2", "--workers", "1",
            "--format", "csv", "--diagnostics",
        )
        assert code == 0
        assert "diagnostics" in err
        assert "diagnostics" not in out


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        src = str(Path(meanbreak.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, meanbreak.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_lazy_package_names(self):
        from meanbreak import MeanSpec, SigmaSpec, montecarlo, run_experiment, signals

        assert run_experiment is montecarlo.run_experiment
        assert (MeanSpec, SigmaSpec) == (signals.MeanSpec, signals.SigmaSpec)
        assert all(hasattr(meanbreak, name) for name in meanbreak.__all__)
        with pytest.raises(AttributeError):
            meanbreak.no_such_name
