"""Differential tests of the data-file reader: generated files read by
``reader.load_column`` in blocks, byte ranges and forked readers must read as
a line-by-line reference reader of the README's rules reads them (McKeeman
1998; Claessen & Hughes 2000)."""

import csv
import math
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from meanbreak import cli, reader


def reference(path: str, data: bytes, column: str, date_column: str | None):
    """Column ``column`` of a file holding ``data``, read one line at a time:
    (value bits, file line, date) per data row, or the error message."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        return (f"cannot read {path}: 'utf-8' codec can't decode byte {data[exc.start]:#04x} "
                f"at file offset {exc.start} (line {line}): {exc.reason}")
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [(number, line) for number, line in enumerate(lines, 1) if line.strip()]
    if not rows:
        return f"{path} contains no data rows"
    comma = "," in rows[0][1]

    def cells(line):  # only trailing blanks are stripped
        return next(csv.reader([line.rstrip()])) if comma else line.split()

    def quote_open(line):  # a csv reader then reads on into the next line
        read = csv.reader([line, ""])
        next(read)
        return comma and read.line_num > 1

    if quote_open(rows[0][1]):  # nor can it fix the columns
        return f"{path}: rows failed to parse: {rows[0][0]}"
    first = cells(rows[0][1])
    header = first if any(not is_float(cell) for cell in first) else []
    for selector in filter(None, (column, date_column)):
        if not selector.isdigit() and selector not in header:
            return f"column {selector!r} not found in header {header}"
    col, date_col = (None if s is None else int(s) if s.isdigit() else header.index(s)
                     for s in (column, date_column))
    for index in (col, date_col):
        if index is not None and index >= len(first):
            return f"{path}: column {index} is past the {len(first)} columns of row {rows[0][0]}"
    got, bad, nonfinite = [], [], []
    for number, line in rows[1:] if header else rows:
        row = None if quote_open(line) else cells(line)
        try:
            value = float(row[col])
        except (TypeError, IndexError, ValueError):
            bad.append(number)
            continue
        if not math.isfinite(value):
            nonfinite.append(number)
        elif date_col is None:
            got.append((value.hex(), number, None))
        else:
            got.append((value.hex(), number, row[date_col] if date_col < len(row) else ""))
    reports = [report(what, numbers) for what, numbers in
               (("rows failed to parse", bad), ("rows with non-finite values", nonfinite))
               if numbers]
    if reports:
        return f"{path}: " + "; ".join(reports)
    return got or f"{path}: no usable rows in column {column!r}"


def is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def report(what: str, numbers: list[int]) -> str:
    more = f" (+{len(numbers) - 10} more)" if len(numbers) > 10 else ""
    return f"{what}: {', '.join(map(str, numbers[:10]))}{more}"


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-999, 999).map(str),
    st.sampled_from(["1e3", "-0.0", "+.5", "1_0", " 2.5", "2.5 "]),
)
BAD_VALUES = st.sampled_from(["x", "", "1.5.2", "inf", "-inf", "nan", "NaN"])
DATES = st.sampled_from(["2020-01-02", "d7", "Jä€😀", "a b"])
QUOTED = st.sampled_from(['"Jan 2, 2020"', '"a""b"', '"a"b', '  "a,b"', '"7"'])


@st.composite
def data_files(draw):
    """A small data file's bytes and the ``--column`` and ``--date-column``
    to read it with.  Half the files hold bad rows: bad or missing values,
    quotes left open, and one stray byte that is not UTF-8 in a fifth of
    them."""
    comma, dirty = draw(st.booleans()), draw(st.booleans())
    sep = "," if comma else draw(st.sampled_from([" ", "\t", "  "]))
    header = draw(st.booleans())
    names = st.sampled_from(["date", "Jä€", '"date"', ' "a,b"'])
    lines = [sep.join([draw(names), "y"])] if header else []
    kinds = ["row"] * 6 + ["blank", "quoted"] + ["bad", "short", "open"] * dirty
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=14)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
            continue
        date = draw(QUOTED if kind == "quoted" and comma else DATES)
        value = draw(BAD_VALUES if kind == "bad" else NUMBERS)
        if kind == "open":  # a quote left open, in the date or the value
            date, value = ('"' + date, value) if draw(st.booleans()) else (date, '"' + value)
        elif kind == "quoted" and draw(st.booleans()):
            value = f'"{value}"'
        cells = [date] if kind == "short" else [date, value, *draw(st.lists(DATES, max_size=1))]
        lines.append(sep.join(cells) + draw(st.sampled_from(["", "", " "])))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = "".join(
        line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
        for line in lines
    )
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode()  # a byte-order mark or none
    if dirty and draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    by_name = header and draw(st.booleans())
    date_column = draw(st.sampled_from([None, "date" if by_name else "0"]))
    return data, "y" if by_name else "1", date_column


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("block_chars", [1, 7, 1 << 20])
@settings(max_examples=35, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=data_files())
def test_reads_as_reference(tmp_path, monkeypatch, capsys, block_chars, cpus, case):
    data, column, date_column = case
    monkeypatch.setattr(reader, "BLOCK_CHARS", block_chars)
    monkeypatch.setattr(reader, "_MIN_RANGE", 16)  # a range per CPU, even in small files
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    path = tmp_path / "r.csv"
    path.write_bytes(data)
    expected = reference(str(path), data, column, date_column)
    try:
        values, rows = reader.load_column(str(path), column, date_column)
    except reader.DataError as exc:
        assert str(exc) == expected
        dates = ["--date-column", date_column] if date_column else []
        assert cli.main(["test", str(path), "--column", column, *dates]) == 3
        assert capsys.readouterr().err == f"error: {expected}\n"
        return
    got = [(v.hex(), rows.line(i), rows.date(i)) for i, v in enumerate(values.tolist())]
    assert got == expected


BLANKS = st.text(" \t", max_size=3)
CELLS = st.one_of(
    st.sampled_from(["", " ", "\t", "1.5", " 2 ", "\x00", "a\x00b", "Jä€😀"]),
    st.text(st.characters(exclude_characters='",\r\n'), max_size=5),
)


@settings(max_examples=500)
@given(line=st.tuples(BLANKS, st.lists(CELLS, max_size=5).map(",".join), BLANKS).map("".join))
@example(line="")
@example(line=" \t ")
@example(line="\t a , b\t ")
@example(line=",,")
@example(line="\x00,1")
@example(line="Jä€😀,1.5 ")
def test_split_without_quotes_as_csv(line):
    # A line holds no line end: the reader splits its text on them first.
    assert reader._split(line, comma=True) == next(csv.reader([line.rstrip(), ""]))
