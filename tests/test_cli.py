"""End-to-end tests of the command-line interface (run in-process)."""

import codecs
import csv
import json
import math
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

import meanbreak
from meanbreak import cli, core, dist, montecarlo, reader
from processes import assert_no_children, run_child


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

    @pytest.mark.parametrize("z, text", [
        ("1.359", "0.0497557"),
        ("2.8", "0.0000003"),
        # 7 decimals would print these as 0.0000000.
        ("3", "3.045996e-08"),
        ("4", "2.532833e-14"),
        ("5", "3.857500e-22"),
        # The last normal p; past it p_value holds few bits, or none.
        ("18.8", "2.027434e-307"),
        ("19.3", "< 2.225074e-308"),
        ("20", "< 2.225074e-308"),
    ])
    def test_pvalue_prints_seven_decimals_or_significant_digits(self, capsys, z, text):
        code, out, _ = run_cli(capsys, "pvalue", z)
        assert code == 0
        assert out.strip() == text

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


def step_file(tmp_path, n):
    """A returns file of n values, 1 up to floor(n/2) and 1000 after."""
    f = tmp_path / f"step{n}.txt"
    f.write_text("".join("1\n" if k < n // 2 else "1000\n" for k in range(n)))
    return f


class TestSmallestAttainablePValue:
    # By Cauchy-Schwarz the statistic is at most sqrt(floor(n/2) ceil(n/2) / n).
    TABLE = {2: "0.699", 3: "0.518", 4: "0.270", 5: "0.181", 6: "0.0996", 7: "0.0649",
             8: "0.0366", 9: "0.0235", 10: "0.0135", 11: "0.0086", 12: "0.0050"}

    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_json_min_p_value_is_p_value_of_the_bound(self, tmp_path, capsys, n):
        code, out, _ = run_cli(capsys, "test", str(step_file(tmp_path, n)), "--format", "json")
        doc = json.loads(out)
        bound = math.sqrt(n // 2 * (n - n // 2) / n)
        assert code == 0
        # The statistic can round to just above the bound (n = 5).
        assert doc["min_p_value"] == min(dist.p_value(bound), doc["p_value"])
        shown = self.TABLE[n]
        assert round(doc["min_p_value"], len(shown) - 2) == float(shown)
        # The two-level step at floor(n/2) attains the bound.
        assert doc["statistic"] == pytest.approx(bound, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_json_min_p_value_is_at_most_p_value(self, tmp_path, capsys, n):
        # At n = 5 the statistic 1.0954451150103324 exceeds the bound
        # sqrt(6/5) = 1.0954451150103321 by rounding.
        doc = json.loads(run_cli(capsys, "test", str(step_file(tmp_path, n)),
                                 "--format", "json")[1])
        assert doc["p_value"] >= doc["min_p_value"]

    def test_short_sample_says_it_cannot_reject(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "test", str(step_file(tmp_path, 6)))
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == [
            "decision:    fail to reject no-change at alpha=0.05",
            "note:        no p-value below 0.0995618 is attainable with n = 6",
        ]

    def test_line_follows_alpha(self, tmp_path, capsys):
        # n = 12 can reject at 5% but not at 0.1%.
        f = str(step_file(tmp_path, 12))
        assert "note:" not in run_cli(capsys, "test", f)[1]
        out = run_cli(capsys, "test", f, "--alpha", "0.001")[1]
        assert out.splitlines()[-1] == (
            "note:        no p-value below 0.0049575 is attainable with n = 12")

    def test_sixty_rows_print_no_line(self, tmp_path, capsys):
        f = tmp_path / "small.csv"
        f.write_text("date,y\n" + "".join(f"d{k},{k * 37 % 11}\n" for k in range(1, 61)))
        code, out, _ = run_cli(capsys, "test", str(f), "--column", "y")
        assert code == 0 and "fail to reject" in out
        assert "note:" not in out and "attainable" not in out

    def test_below_the_smallest_normal_float_json_reads_zero(self, tmp_path, capsys):
        # The bound is 19 here, whose p is subnormal: p_value's rule reads 0.0.
        assert 0.0 < dist.p_value(19.0) < sys.float_info.min
        out = run_cli(capsys, "test", str(step_file(tmp_path, 1444)), "--format", "json")[1]
        assert json.loads(out)["min_p_value"] == 0.0


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

    @pytest.mark.parametrize("alpha", ["2", "0", "nan"])
    def test_alpha_checked_before_the_file_is_read(self, tmp_path, capsys, alpha):
        f = tmp_path / "r.txt"
        f.write_text("1\nnot-a-number\n3\n")
        for path in (f, tmp_path / "missing.txt"):
            code, out, err = run_cli(capsys, "test", str(path), "--alpha", alpha)
            assert (code, out) == (2, "")
            assert err == f"usage error: alpha must lie in (0, 1), got {float(alpha)}\n"

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
        # a row is one line: a quote open on line 3 and closed on line 4 makes
        # line 3 bad, and line 4 is read on its own
        ('date,y\nd1,1\n"d2,2\nd3",3\nd4,4\nd5,x\nd6,6\n', ("--column", "y"),
         "rows failed to parse: 3, 6\n"),
        # a nonpositive level is named by its file line, header and blank lines counted
        ("price\n\n5\n-1\n5\n", ("--kind", "levels", "--column", "price"),
         "levels must be strictly positive for the log-return step (offending row 4)\n"),
        # the first row fixes the header and the columns, so it must close its quotes too
        ('\n"date,y\nd1,1\nd2,2\n', ("--column", "y"), "rows failed to parse: 2\n"),
    ])
    def test_bad_row_reports(self, tmp_path, capsys, text, args, report):
        f = tmp_path / "r.txt"
        f.write_text(text)
        code, _, err = run_cli(capsys, "test", str(f), *args)
        assert code == 3
        assert err.endswith(report)

    def test_rows_numbered_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reader, "BLOCK_CHARS", 64)  # about ten lines a block
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

    @pytest.mark.parametrize("block_chars", [61, 64, 67])
    def test_rows_found_by_block(self, tmp_path, monkeypatch, block_chars):
        monkeypatch.setattr(reader, "BLOCK_CHARS", block_chars)  # about five lines a block
        lines = ["date,price"] + [f"2020-{k:04d},{k + 1}.5" for k in range(120)]
        lines[7] = " "
        lines[40:40] = ["", "   ", "\t"] * 30  # more than a block of blank lines
        f = tmp_path / "r.csv"
        f.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        values, rows = cli.load_column(str(f), "price", "date")
        expected = [
            (number, line.split(",")[0])
            for number, line in enumerate(lines, 1) if number > 1 and line.strip()
        ]
        assert len(values) == len(expected)
        counts = [rows_before for _, _, rows_before in rows.blocks]
        assert any(a == b for a, b in zip(counts, counts[1:]))  # a block without rows
        for index, (number, date) in enumerate(expected):
            assert rows.line(index) == number
            assert rows.date(index) == date

    def test_offending_level_across_blocks(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(reader, "BLOCK_CHARS", 64)
        lines = ["price"] + [f"{k + 1}.25" for k in range(200)]
        lines[30:30] = [""] * 70
        lines[183] = "-1.0"
        f = tmp_path / "r.txt"
        f.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "test", str(f), "--kind", "levels", "--column", "price")
        assert code == 3
        assert err.endswith("(offending row 184)\n")

    def test_quote_across_lines_does_not_merge_rows(self, tmp_path, capsys):
        # The mean moves after row d100; a quote opened on line 12 and closed
        # on line 13 would read d11 and d12 as one row.
        rng = np.random.default_rng(1)
        lines = ["date,y"] + [
            f"d{k},{(1.0 if k <= 100 else 3.0) + 0.1 * rng.standard_normal():.4f}"
            for k in range(1, 201)
        ]
        f = tmp_path / "r.csv"
        args = ("test", str(f), "--column", "y", "--date-column", "date", "--format", "json")
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert json.loads(out)["n"] == 200
        assert json.loads(out)["break_date"] == "d100"
        lines[11] = '"' + lines[11]
        lines[12] = lines[12].replace(",", '",')
        f.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, *args)
        assert code == 3
        assert out == ""
        assert err.endswith("rows failed to parse: 12\n")

    @pytest.mark.parametrize("text, expected", [
        ('date,y\nd1,1\n"d2,2\nd3",3\nd4,4\n', "rows failed to parse: 3"),
        # a quote open on the last line, with blank lines after it
        ('date,y\nd1,1\nd2,"2\n\n  \n', "rows failed to parse: 3"),
        # after leading blanks a quote is a character, as in the bulk conversion
        ('date,y\nd1,1\n  "d2,2\nd3",3\n', [1.0, 2.0, 3.0]),
        # quotes that close on their own line
        ('date,y\n"d1",1\nd2,"2" \n"a""b",3\n"a"b,4\n"d,5",5\n', [1.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    def test_quotes_read_alike_in_any_block(self, tmp_path, monkeypatch, text, expected):
        f = tmp_path / "r.csv"
        f.write_text(text)

        def read():
            try:
                return cli.load_column(str(f), "y")[0].tolist()
            except cli.DataError as exc:
                return str(exc).removeprefix(f"{f}: ")

        assert read() == expected
        monkeypatch.setattr(reader, "BLOCK_CHARS", 1)  # a block per line
        assert read() == expected
        # and cell by cell, as when another row of the block is bad
        bad = []
        values = reader._check_cells(text.split("\n")[1:], 1, True, 1, bad, [])
        got = values.tolist() if not bad else reader._rows_report("rows failed to parse", bad)
        assert got == expected

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
        # a byte-order mark is part of no cell: neither a header nor a name
        ("\ufeff1\n1\n3\n", (), None),
        ("\ufeffdate,price\nd1,1\nd2,1\nd3,3\n", ("--column", "price", "--date-column", "date"),
         "d2"),
        # only trailing blanks are stripped: header and rows both have 3 cells
        ('  "a,b",price  \nd,e,1\n  "a,b",1\nd,e,3\n', ("--column", "price", "--date-column", "1"),
         'b"'),
    ])
    def test_file_layouts(self, tmp_path, capsys, text, args, break_date):
        f = tmp_path / "r.txt"
        f.write_bytes(text.encode())
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
        (("--date-column", "-1"), 2, "usage error: column index must be nonnegative, got -1"),
    ])
    def test_column_selection_errors(self, tmp_path, capsys, args, code, message):
        f = tmp_path / "p.csv"
        f.write_text("date,price\n2020-01-01,1.5\n2020-01-02,2.5\n2020-01-03,2.0\n")
        got, _, err = run_cli(capsys, "test", str(f), *args)
        assert got == code
        assert message in err

    @pytest.mark.parametrize("column, mean", [
        ("+1", 7.5),  # a name: int() would take it as index 1
        ("1_0", 5.5),  # a name: int() would take it as index 10
        ("1", 5.5),
    ])
    def test_selector_is_an_index_only_if_it_is_digits(self, tmp_path, capsys, column, mean):
        f = tmp_path / "s.csv"
        f.write_text("a,1_0,+1\nx,5,7\ny,6,8\n")
        code, out, _ = run_cli(capsys, "test", str(f), "--column", column, "--format", "json")
        assert code == 0
        assert json.loads(out)["mu_hat"] == mean

    @pytest.mark.parametrize("where", ["early", "late"])
    @pytest.mark.parametrize("column", ["z", "5", "-1"])
    def test_column_errors_do_not_depend_on_read_ahead(self, tmp_path, capsys, where, column):
        # The header read decodes 8 KiB ahead of the first row; the error
        # must not depend on whether the byte lies within them.
        data = ("\n".join(["date,y", *price_rows(3000)]) + "\n").encode()
        offset = 200 if where == "early" else len(data) - 100
        path = tmp_path / "r.csv"
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        line = data.count(b"\n", 0, offset) + 1
        code, out, err = run_cli(capsys, "test", str(path), "--column", column)
        if column == "-1":  # a usage error, found before the file is opened
            expected = (2, "usage error: column index must be nonnegative, got -1\n")
        else:
            expected = (3, f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                           f"at file offset {offset} (line {line}): invalid start byte\n")
        assert (code, out, err) == (expected[0], "", expected[1])

    def test_text_report_names_the_break_date(self, tmp_path, capsys):
        f = tmp_path / "r.csv"
        f.write_text("date,y\n" + "".join(f"d{k},{int(k > 5)}\n" for k in range(1, 11)))
        code, out, err = run_cli(capsys, "test", str(f), "--column", "y", "--date-column", "date")
        assert (code, err) == (0, "")
        assert out == (  # the statistic is sqrt(2.5)
            "n:           10\n"
            "mean:        0.5\n"
            "variance:    0.25\n"
            "statistic:   1.5811388\n"
            "p-value:     0.0134759\n"
            "break index: 5 (d5)\n"
            "decision:    reject no-change at alpha=0.05\n"
        )

    @pytest.mark.parametrize("change, reason", [
        ("remove", "[Errno 2] No such file or directory: {path!r}"),
        ("rewrite", "'utf-8' codec can't decode byte 0xff at file offset 12 (line 3): "
                    "invalid start byte"),
    ])
    def test_file_changed_before_break_date_lookup(self, tmp_path, capsys, monkeypatch,
                                                   change, reason):
        f = tmp_path / "r.csv"
        f.write_text("date,y\nd1,1\nd2,1\nd3,3\nd4,3\n")
        test = core.lm_test

        def change_file_then_test(*args, **kwargs):
            if change == "remove":
                f.unlink()
            else:
                f.write_bytes(b"date,y\nd1,1\n\xff2,1\nd3,3\nd4,3\n")
            return test(*args, **kwargs)

        monkeypatch.setattr(core, "lm_test", change_file_then_test)
        code, out, err = run_cli(capsys, "test", str(f), "--column", "y", "--date-column", "date")
        assert (code, out) == (3, "")
        assert err == f"error: cannot read {f}: {reason.format(path=str(f))}\n"

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
        assert "p-value:     < 2.225074e-308\n" in out
        assert "reject" in out and "fail to reject" not in out
        code, out, _ = run_cli(capsys, "test", str(f), "--abs", "--format", "json")
        doc = json.loads(out)
        assert doc["underflow"] is True
        assert doc["p_value"] == 0.0

    def test_small_pvalue_printed_in_significant_digits(self, tmp_path, capsys):
        # A step of 20 zeros and 20 ones: statistic sqrt(10), p = 4.1e-9,
        # below what 7 decimals show.
        f = tmp_path / "step.txt"
        f.write_text("0\n" * 20 + "1\n" * 20)
        code, out, _ = run_cli(capsys, "test", str(f))
        assert code == 0
        p = core.lm_test(np.repeat([0.0, 1.0], 20)).p_value
        assert 1e-12 < p < 5e-8
        assert f"p-value:     {p:.6e}\n" in out

    def test_tiny_normal_pvalue_printed_as_pvalue_prints_it(self, tmp_path, capsys):
        # p = 1.28e-14, above the smallest normal float: its digits, the
        # same text in test and pvalue, and no underflow in the JSON.
        rng = np.random.default_rng(3)
        y = 0.5 * rng.standard_normal(200)
        y[100:] += 0.6
        f = tmp_path / "step.txt"
        f.write_text("\n".join(f"{float(v)!r}" for v in y) + "\n")
        code, out, _ = run_cli(capsys, "test", str(f), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["p_value"] == core.lm_test(y).p_value
        assert doc["underflow"] is False
        code, out, _ = run_cli(capsys, "test", str(f))
        assert code == 0
        line = next(row for row in out.splitlines() if row.startswith("p-value:"))
        code, printed, _ = run_cli(capsys, "pvalue", repr(doc["statistic"]))
        assert code == 0
        assert line == f"p-value:     {printed.strip()}" == "p-value:     1.277169e-14"

    def test_variance_past_float_range_is_null_in_json(self, tmp_path, capsys):
        # sigma2_hat overflows to inf, which strict JSON cannot hold.
        y = np.array([1e200, -1e200, 3e200, -2e200, 5e200])
        f = tmp_path / "huge.txt"
        f.write_text("\n".join(f"{v!r}" for v in y.tolist()) + "\n")

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run_cli(capsys, "test", str(f), "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        assert doc["sigma2_hat"] is None
        assert doc["statistic"] == core.lm_test(y).statistic
        code, out, _ = run_cli(capsys, "test", str(f))
        assert code == 0
        assert "variance:    inf\n" in out


def price_rows(n: int, date=lambda k: f"2020-{k:04d}") -> list[str]:
    values = np.random.default_rng(5).standard_normal(n).tolist()
    return [f"{date(k)},{v!r}" for k, v in enumerate(values)]


def open_quote_at_range_ends(data: bytearray, spans) -> None:
    for _, end in spans[:-1]:
        data[data.rindex(b"\n", 0, end - 1) + 1] = ord('"')


def bad_cell_at_range_starts(data: bytearray, spans) -> None:
    for start, _ in spans[1:]:
        data[data.index(b"\n", start) - 1] = ord("x")


def nonfinite_in_first_and_last_range(data: bytearray, spans) -> None:
    for (start, _), word in zip((spans[0], spans[-1]), (b"inf", b"nan")):
        line = data.index(b"\n", start) + 1  # the range's second line
        cell, end = data.index(b",", line) + 1, data.index(b"\n", line)
        data[cell:end] = word.ljust(end - cell)


# name: (file bytes, a same-length change at the range bounds, error prefix)
RANGE_FILES = {
    "lf": ("\n".join(["date,y", *price_rows(150)]) + "\n", None, None),
    "crlf": ("\r\n".join(["date,y", *price_rows(150)]) + "\r\n", None, None),
    "cr": ("\r".join(["date,y", *price_rows(150)]) + "\r", None, None),
    "multibyte dates": ("\n".join(["date,y", *price_rows(150, lambda k: f"Jä{k}€😀")]),
                        None, None),
    # a run of blank lines longer than a range, with data on both sides
    "blank lines": ("\n".join(["date,y", *price_rows(60), *["", "   ", "\t"] * 500,
                               *price_rows(60)]) + "\n", None, None),
    "open quote": ("\n".join(["date,y", *price_rows(150)]) + "\n",
                   open_quote_at_range_ends, "rows failed to parse: "),
    "bad cell": ("\n".join(["date,y", *price_rows(150)]) + "\n",
                 bad_cell_at_range_starts, "rows failed to parse: "),
    "non-finite": ("\n".join(["date,y", *price_rows(150)]) + "\n",
                   nonfinite_in_first_and_last_range, "rows with non-finite values: "),
    "headerless": ("\n".join(row.replace(",", " ") for row in price_rows(150, str)) + "\n",
                   None, None),
}


LONG = "D" * 140_000  # longer than csv's default field size limit, 131,072


def step_rows(date=lambda k: f"d{k}") -> list[str]:
    """100 rows whose values step from 0 to 1 after data row 49 (0-based)."""
    return [f"{date(k)},{0 if k < 50 else 1}" for k in range(100)]


class TestLongQuotedCells:
    """A quoted cell longer than csv's default field size limit reads as the
    bulk conversion reads it: in a header, in a block checked cell by cell,
    and as the date of the break, on one CPU and in three ranges."""

    STATISTIC = core.lm_test(np.repeat([0.0, 1.0], 50)).statistic

    @pytest.fixture(params=[1, 3])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                            raising=False)
        monkeypatch.setattr(reader, "_MIN_RANGE", 64)
        monkeypatch.setattr(reader, "BLOCK_CHARS", 4096)
        split, self.spans = reader._ranges, []

        def ranges(*args):
            self.spans.append(split(*args))
            return self.spans[-1]

        monkeypatch.setattr(reader, "_ranges", ranges)
        # The limit is process-wide: each test starts from csv's default.
        limit = csv.field_size_limit(131_072)
        yield request.param
        csv.field_size_limit(limit)

    def run(self, capsys, tmp_path, lines):
        f = tmp_path / "r.csv"
        f.write_text("\n".join(lines) + "\n")
        return run_cli(capsys, "test", str(f), "--column", "y", "--date-column", "0",
                       "--format", "json")

    def test_header(self, tmp_path, capsys, cpus):
        code, out, _ = self.run(capsys, tmp_path, [f'"{LONG}",y', *step_rows()])
        assert code == 0
        doc = json.loads(out)
        assert (doc["statistic"], doc["break_date"]) == (self.STATISTIC, "d49")
        assert len(self.spans[-1]) == cpus

    def test_block_checked_cell_by_cell(self, tmp_path, capsys, cpus):
        rows = step_rows()
        rows[10] = f'"{LONG}",x'
        rows[20] = f'"{LONG}",0'
        code, out, err = self.run(capsys, tmp_path, ["date,y", *rows])
        assert (code, out) == (3, "")
        assert err.endswith(": rows failed to parse: 12\n")
        assert len(self.spans[-1]) == cpus

    def test_break_date(self, tmp_path, capsys, cpus):
        rows = step_rows(lambda k: f'"{LONG}"' if k == 49 else f"d{k}")
        code, out, _ = self.run(capsys, tmp_path, ["date,y", *rows])
        assert code == 0
        doc = json.loads(out)
        assert (doc["statistic"], doc["break_date"]) == (self.STATISTIC, LONG)
        assert len(self.spans[-1]) == cpus


def column_bits(path) -> list[str]:
    values, _ = cli.load_column(str(path), "1", "0")
    return [v.hex() for v in values.tolist()]


class TestRanges:
    """A file read in byte ranges, one process each, reads as in one range:
    the same value bits, the same file line and date of every row, the same
    error."""

    @pytest.fixture(autouse=True)
    def small_ranges(self, monkeypatch):
        monkeypatch.setattr(reader, "BLOCK_CHARS", 40)  # two or three lines a block
        monkeypatch.setattr(reader, "_MIN_RANGE", 64)
        split, self.spans = reader._ranges, []

        def ranges(*args):
            self.spans.append(split(*args))
            return self.spans[-1]

        monkeypatch.setattr(reader, "_ranges", ranges)

    def read(self, monkeypatch, path, cpus):
        """``load_column`` on ``cpus`` usable CPUs, and the ranges it read."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        try:
            values, rows = cli.load_column(str(path), "1", "0")
        except cli.DataError as exc:
            return str(exc), self.spans[-1]
        self.blocks = rows.blocks
        lines = [(rows.line(i), rows.date(i)) for i in range(len(values))]
        return ([v.hex() for v in values.tolist()], lines), self.spans[-1]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("name", RANGE_FILES)
    def test_ranges_read_as_one(self, tmp_path, monkeypatch, name, cpus):
        text, change, error = RANGE_FILES[name]
        path = tmp_path / "r.csv"
        data = bytearray(text.encode())
        path.write_bytes(data)
        if change is not None:
            change(data, self.read(monkeypatch, path, cpus)[1])
            path.write_bytes(data)
        expected, one = self.read(monkeypatch, path, 1)
        got, spans = self.read(monkeypatch, path, cpus)
        assert len(one) == 1
        if error is None:
            assert len(self.blocks) > len(spans)  # blocks of BLOCK_CHARS, in each range
        else:
            assert expected.startswith(f"{path}: {error}")
        assert got == expected
        if name == "cr":  # no "\n" to start a range after
            assert len(spans) == 1
            return
        assert len(spans) == cpus
        if name == "blank lines":
            lines = [data[start:end].split(b"\n") for start, end in spans]
            assert any(not before[-2].strip() and not after[0].strip()
                       for before, after in zip(lines, lines[1:]))
            assert cpus == 2 or any(not data[start:end].strip() for start, end in spans)

    def test_undecodable_range(self, tmp_path, monkeypatch, capsys):
        data = ("\n".join(["date,y", *price_rows(1000)]) + "\n").encode()
        path = tmp_path / "r.csv"
        offset = len(data) - 100  # past the first 8 KiB read
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        # The file offset and line of the byte, whatever the ranges.
        line = data.count(b"\n", 0, offset) + 1
        message = (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff at file offset "
            f"{offset} (line {line}): invalid start byte"
        )
        for cpus in (1, 2, 3):
            got, spans = self.read(monkeypatch, path, cpus)
            assert len(spans) == cpus
            assert got == message
            code, out, err = run_cli(capsys, "test", str(path), "--column", "y")
            assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_undecodable_line_counts_every_line_end(self, tmp_path, end):
        # Read while the header is: the first decoded chunk holds the byte.
        data = end.join(["date,y", *price_rows(30), "2021-01-01,"]).encode()
        path = tmp_path / "r.csv"
        path.write_bytes(data + b"\xff1" + end.encode())
        with pytest.raises(cli.DataError) as info:
            cli.load_column(str(path), "y")
        assert str(info.value) == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff at file offset "
            f"{len(data)} (line 32): invalid start byte"
        )

    @pytest.mark.parametrize("case", ["clean", "malformed", "undecodable in range 0"])
    def test_no_reader_outlives_a_read(self, tmp_path, monkeypatch, case):
        rows = ["date,y", *price_rows(1000)]
        if case == "malformed":
            rows[-1] = "2020-0999,x"
        data = ("\n".join(rows) + "\n").encode()
        offset = 9000  # past the first 8 KiB, which the header read decodes
        if case.startswith("undecodable"):
            data = data[:offset] + b"\xff" + data[offset:]
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        got, spans = self.read(monkeypatch, path, 3)
        assert len(spans) == 3
        if case == "clean":
            assert len(got[0]) == 1000
        elif case == "malformed":
            assert got == f"{path}: rows failed to parse: 1001"
        else:
            assert spans[0][0] < offset < spans[0][1]
            line = data.count(b"\n", 0, offset) + 1
            assert f"byte 0xff at file offset {offset} (line {line})" in got
        assert_no_children()

    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(7), 7),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ])
    def test_reader_that_sends_nothing(self, tmp_path, monkeypatch, end, status):
        # Never partial data: the read fails, naming the range and the status.
        path = tmp_path / "r.csv"
        path.write_text("\n".join(["date,y", *price_rows(150)]) + "\n")
        parent, read = os.getpid(), reader._read_values

        def ended(*args):
            if os.getpid() != parent:
                end()
            return read(*args)

        monkeypatch.setattr(reader, "_read_values", ended)
        got, spans = self.read(monkeypatch, path, 3)
        start, stop = spans[1]
        assert got == (f"cannot read {path}: the reader of bytes {start}-{stop} ended "
                       f"with exit status {status} and sent no result")
        assert_no_children()

    def test_interrupt_kills_every_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        path.write_text("\n".join(["date,y", *price_rows(150)]) + "\n")
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a reader that would outlive the read unless killed

        monkeypatch.setattr(reader, "_read_values", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.read(monkeypatch, path, 3)
        assert time.monotonic() - start < 30  # killed, not waited for
        assert len(self.spans[-1]) == 3
        assert_no_children()

    def test_daemon_reads_in_one_process(self, tmp_path, monkeypatch):
        # A daemonic pool worker, which may start no pool process, forks its
        # range readers like any process. Forked with this process's patches,
        # it reads the file in 3 ranges, whose bits must be those of one.
        path = tmp_path / "r.csv"
        path.write_text("\n".join(["date,y", *price_rows(150)]) + "\n")
        expected, _ = self.read(monkeypatch, path, 1)
        assert len(self.read(monkeypatch, path, 3)[1]) == 3
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(column_bits, (path,)) == expected[0]


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

    def test_all_runs_every_preset(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--all", "--n", "20", "--alpha", "0.05",
            "--reps", "30", "--seed", "3", "--workers", "1", "--format", "csv",
        )
        assert (code, err) == (0, "")
        assert out == (
            "series,n,alpha,rejections,replications,frequency\n"
            "Series 1,20,0.05,2,30,0.06666666667\n"
            "Series 2,20,0.05,0,30,0\n"
            "Series 3,20,0.05,1,30,0.03333333333\n"
            "Series 4,20,0.05,5,30,0.1666666667\n"
            "Series 5,20,0.05,10,30,0.3333333333\n"
            "Series 6,20,0.05,13,30,0.4333333333\n"
            "Series 7,20,0.05,10,30,0.3333333333\n"
            "Series 8,20,0.05,9,30,0.3\n"
            "Series 9,20,0.05,4,30,0.1333333333\n"
        )

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

    def test_unwritable_out_is_data_error(self, tmp_path, capsys, monkeypatch):
        from meanbreak import montecarlo

        def run_experiment(config):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(montecarlo, "run_experiment", run_experiment)
        target = tmp_path / "no such dir" / "table.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--series", "1", "--n", "50", "--reps", "10",
            "--out", str(target),
        )
        assert (code, out) == (3, "")
        assert err == (f"error: cannot write {target}: [Errno 2] No such file or "
                       f"directory: {str(target)!r}\n")

    def test_no_series_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--reps", "5")
        assert code == 2
        assert "series" in err

    def test_all_with_series_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--all", "--series", "3", "--reps", "5")
        assert code == 2
        assert out == ""
        assert "argument --series: not allowed with argument --all" in err

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

    def test_series_flag_overrides_config_all(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series = all\nn = 30\nalpha = 0.05\nreps = 5\nworkers = 1\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--series", "3", "--format", "json"
        )
        assert code == 0
        assert {cell["series"] for cell in json.loads(out)["cells"]} == {"Series 3"}
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert len({cell["series"] for cell in json.loads(out)["cells"]}) == 9

    @pytest.mark.parametrize("line, key, value", [
        ("reps = abc", "reps", "abc"),
        ("alpha = 0.05 x", "alpha", "0.05 x"),
        ("n = 30, x", "n", "30, x"),
        ("n =", "n", ""),
        ("alpha = ,", "alpha", ","),
    ])
    def test_bad_config_value(self, tmp_path, capsys, line, key, value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"workers = 1\n# a comment\n{line}\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--series", "1")
        assert code == 3
        assert out == ""
        assert err == f"error: {cfg}:3: bad value for {key!r}: {value!r}\n"

    @pytest.mark.parametrize("line, flag", [
        ("reps = x", ("--reps", "10")),
        ("n = 30, x", ("--n", "100")),
    ])
    def test_bad_config_value_under_its_flag(self, tmp_path, capsys, line, flag):
        # The file's values are parsed as it is read: a flag that sets the
        # key does not hide a bad value.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"series = 1\n{line}\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), *flag)
        key, _, value = map(str.strip, line.partition("="))
        assert (code, out) == (3, "")
        assert err == f"error: {cfg}:2: bad value for {key!r}: {value!r}\n"

    def test_bad_config_value_comes_before_series_check(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("reps = x\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out, err) == (3, "", f"error: {cfg}:1: bad value for 'reps': 'x'\n")

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        code, out, err = run_cli(capsys, "simulate", "--series", "1", "--config", str(cfg))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read config {cfg}: ")

    def test_out_of_range_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series = 1\nreps = 0\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert err == "usage error: replications must lie in 1..2**32\n"

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 3
        assert "key" in err

    def test_undecodable_config_is_data_error(self, tmp_path, capsys):
        # Named as a data file's bad byte is, by file offset and line.
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n = 30\nreps = 5\xff\n")
        code, out, err = run_cli(capsys, "simulate", "--series", "1", "--config", str(cfg))
        assert (code, out) == (3, "")
        assert err == (f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
                       "at file offset 15 (line 2): invalid start byte\n")

    def test_config_with_byte_order_mark_runs_as_without(self, tmp_path, capsys):
        text = b"series = 1\nn = 50\nreps = 20\nseed = 3\nworkers = 1\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        runs = [run_cli(capsys, "simulate", "--config", str(cfg), "--format", "csv")
                for cfg in (plain, marked)]
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_undecodable_config_with_byte_order_mark_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        # The bad byte is within the mark's length of the line end before it.
        cfg.write_bytes(codecs.BOM_UTF8 + b"n = 30\n\xffreps = 5\n")
        code, out, err = run_cli(capsys, "simulate", "--series", "1", "--config", str(cfg))
        assert (code, out) == (3, "")
        # The offset counts from the start of the file, the mark included.
        assert err == (f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
                       "at file offset 10 (line 2): invalid start byte\n")

    SEED1 = "series = 1\nn = 30\nreps = 20\nseed = 1\nworkers = 1\n"

    @pytest.mark.parametrize("char", ["\f", "\x85", "\u2028"])
    def test_comment_holding_a_line_separator_sets_nothing(self, tmp_path, capsys, char):
        # Lines end at "\n", "\r\n" and "\r" only, as in a data file, so the
        # rest of a comment line is comment whatever it holds.
        plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
        plain.write_text(self.SEED1, encoding="utf-8")
        commented.write_text(f"# note{char}seed = 7\n" + self.SEED1, encoding="utf-8")
        runs = [run_cli(capsys, "simulate", "--config", str(cfg), "--format", "csv")
                for cfg in (plain, commented)]
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("char", ["\f", "\x85", "\u2028"])
    def test_error_after_a_line_separator_names_the_editors_line(self, tmp_path, capsys,
                                                                  char):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"# a{char}b\nseries = 1\nreps = x\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out, err) == (3, "", f"error: {cfg}:3: bad value for 'reps': 'x'\n")

    @pytest.mark.parametrize("ends", [("\r\n",), ("\r",), ("\r\n", "\r", "\n")],
                             ids=["crlf", "cr", "mixed"])
    def test_line_ends_read_as_newlines(self, tmp_path, capsys, ends):
        cfg = tmp_path / "sim.cfg"
        lines = self.SEED1.splitlines()
        for tail, code in (([], 0), (["# a comment", "", "alpha = x"], 3)):
            runs = []
            for line_ends in (("\n",), ends):
                cfg.write_bytes("".join(line + line_ends[k % len(line_ends)]
                                        for k, line in enumerate(lines + tail)).encode())
                runs.append(run_cli(capsys, "simulate", "--config", str(cfg), "--format", "csv"))
            assert runs[0][0] == code
            assert runs[1] == runs[0]
        assert runs[0][2] == f"error: {cfg}:8: bad value for 'alpha': 'x'\n"

    def test_colon_form_reads_as_equals(self, tmp_path, capsys):
        plain, colon = tmp_path / "plain.cfg", tmp_path / "colon.cfg"
        plain.write_text(self.SEED1 + "alpha = 0.05, 0.1\n")
        colon.write_text((self.SEED1 + "alpha = 0.05, 0.1\n").replace(" = ", ": "))
        configs = [cli._config_from_args(
            cli._build_parser().parse_args(["simulate", "--config", str(cfg)]))
            for cfg in (plain, colon)]
        assert configs[1] == configs[0]
        assert configs[0].levels == (0.05, 0.1)

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series = 1\nn = 50\n# a comment\nreplications = 7\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert f"{cfg}:4:" in err
        assert "'replications'" in err
        assert "series, n, alpha, reps, seed, workers" in err

    def test_repeated_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series = 1\nn = 30\nreps = 5\n\nreps = 7\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert f"{cfg}:5:" in err
        assert "'reps'" in err

    def test_default_workers_are_usable_cpus(self, monkeypatch):
        # Under taskset or a cpuset, fewer CPUs than the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        args = cli._build_parser().parse_args(["simulate", "--series", "1"])
        assert cli._config_from_args(args).workers == 2

    def test_defaults_are_the_librarys_but_workers(self, tmp_path):
        # Only the settings a flag or the file gives reach ExperimentConfig;
        # workers default to the usable CPUs, where the library's default is 1.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series = 1\n")
        expected = montecarlo.ExperimentConfig(series=(1,), workers=meanbreak.usable_cpus())
        for argv in (["--series", "1"], ["--config", str(cfg)]):
            args = cli._build_parser().parse_args(["simulate", *argv])
            assert cli._config_from_args(args) == expected

    def test_levels_sorted_from_flags_and_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("series = 2 1\nalpha = 0.1, 0.01\nn = 50 20\n")
        for argv in (["--config", str(cfg)],
                     ["--series", "2", "--series", "1", "--alpha", "0.1", "--alpha", "0.01",
                      "--n", "50", "--n", "20"]):
            config = cli._config_from_args(cli._build_parser().parse_args(["simulate", *argv]))
            assert (config.series, config.sample_sizes, config.levels) == ((2, 1), (50, 20),
                                                                           (0.01, 0.1))

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

    def test_diagnostics_recorded_output(self, capsys):
        # Recorded when each replication drew its own gaussian_stream; the
        # bulk draw must reproduce it byte for byte.
        code, _, err = run_cli(
            capsys, "simulate", "--series", "3", "--n", "200", "--reps", "50",
            "--seed", "1", "--workers", "1", "--format", "csv", "--diagnostics",
        )
        assert code == 0
        assert err == (
            "FCLT diagnostics, Series 3 (n=200, reps=50):\n"
            "  var W(0.25) = 0.0801  limit 0.1524\n"
            "  var W(0.5) = 0.2241  limit 0.3064\n"
            "  var W(0.75) = 0.5544  limit 0.5557\n"
        )


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        code = ("import sys, meanbreak.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert run_child(code) == "[]"

    def test_simulation_leaves_quadrature_out(self):
        # A one-process simulation loads neither scipy nor the pool modules,
        # at the small sizes and at the one-row blocks of n >= 2**14, and
        # the limit quantities, closed forms all, load no scipy module.
        code = (
            "import sys; from meanbreak import montecarlo, signals\n"
            "config = montecarlo.ExperimentConfig(series=tuple(range(1, 10)),"
            " sample_sizes=(30, 2**14 + 1), replications=4, workers=1)\n"
            "montecarlo.run_experiment(config)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith(('concurrent.futures', 'multiprocessing'))))\n"
            "value = signals.partial_variance_limit(montecarlo.preset(3)[1], 0.5)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), value.hex())\n"
        )
        from meanbreak import montecarlo, signals

        expected = signals.partial_variance_limit(montecarlo.preset(3)[1], 0.5)
        assert run_child(code).splitlines() == ["[]", f"[] {expected.hex()}"]

    def test_limit_quantities_need_no_scipy(self):
        # With scipy blocked from import: every asymptotics function, the
        # ergodic variance of each volatility variant (smooth with both
        # transition families), and `simulate --diagnostics`, to the same
        # bits as here.
        queries = (
            "t = s.TransitionSpec('exponential', 0.3, 50.0)\n"
            "sigmas = [s.SigmaSpec.constant(2.0), montecarlo.preset(2)[1],"
            " montecarlo.preset(3)[1], s.SigmaSpec.smooth(1.0, 0.5, t)]\n"
            "values = [a.drift_quadrature(t, 0.4), a.drift_closed_logistic(0.3, 50.0, 0.4),"
            " a.drift_closed_exponential(0.3, 50.0, 0.4),"
            " a.limit_variance_abrupt(0.3, 1.0, 2.0, 1.0).sigma_star2,"
            " a.limit_variance_smooth(t, 1.0, 2.0, 1.0).sigma_star2,"
            " a.partial_variance_limit(sigmas[3], 0.4), float(a.wn_path([1.0, -2.0], 2.0)[-1])]\n"
            "values += [s.ergodic_variance_limit(v) for v in sigmas]\n"
        )
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "from meanbreak import asymptotics as a, montecarlo, signals as s\n"
            "from meanbreak.cli import main\n"
            f"{queries}"
            "print([v.hex() for v in values])\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "    code = main(['simulate', '--series', '3', '--n', '100', '--reps', '50',"
            " '--workers', '1', '--diagnostics'])\n"
            "print(code, err.getvalue().count('  limit '))\n"
        )
        from meanbreak import asymptotics, montecarlo, signals

        scope = {"a": asymptotics, "s": signals, "montecarlo": montecarlo}
        exec(queries, scope)
        expected = str([v.hex() for v in scope["values"]])
        assert run_child(code).splitlines() == [expected, "0 3"]

    def test_small_file_starts_no_pool(self, tmp_path, monkeypatch, capsys):
        # The reader's forked processes are for large files; a small one is
        # read in this process.
        f = tmp_path / "r.csv"
        f.write_text("date,y\nd1,1\nd2,2\nd3,5\n")
        code = (
            "import sys; from meanbreak.cli import main\n"
            f"code = main(['test', {str(f)!r}, '--column', 'y'])\n"
            "print(code, sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        assert run_child(code).splitlines()[-1] == "0 []"

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a reader process started")

        monkeypatch.setattr(os, "fork", NoPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert run_cli(capsys, "test", str(f), "--column", "y")[0] == 0

    def test_ranged_read_loads_no_pool_modules(self, tmp_path):
        # Readers are plain forks: `test` loads no pool module at any size.
        f = tmp_path / "r.csv"
        f.write_text("\n".join(["date,y", *price_rows(150)]) + "\n")
        code = (
            "import os, sys; from meanbreak import reader; from meanbreak.cli import main\n"
            "reader._MIN_RANGE = 64\n"
            "os.sched_getaffinity = lambda pid: set(range(3))\n"
            "split, spans = reader._ranges, []\n"
            "reader._ranges = lambda *args: spans.append(split(*args)) or spans[-1]\n"
            f"code = main(['test', {str(f)!r}, '--column', 'y'])\n"
            "print(code, len(spans[-1]), sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        assert run_child(code).splitlines()[-1] == "0 3 []"

    def test_lazy_package_names(self):
        from meanbreak import MeanSpec, SigmaSpec, montecarlo, run_experiment, signals

        assert run_experiment is montecarlo.run_experiment
        assert (MeanSpec, SigmaSpec) == (signals.MeanSpec, signals.SigmaSpec)
        assert all(hasattr(meanbreak, name) for name in meanbreak.__all__)
        with pytest.raises(AttributeError):
            meanbreak.no_such_name
