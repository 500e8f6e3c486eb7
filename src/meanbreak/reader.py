"""Read one numeric column of a delimited data file for ``meanbreak test``:
in line-aligned byte ranges, one process per usable CPU, and in blocks of
lines, naming every row that fails by its file line."""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from meanbreak import fork_map, usable_cpus

BLOCK_CHARS = 1 << 20  # bytes of a data file converted per bulk call
_MIN_RANGE = 4 * BLOCK_CHARS  # bytes of a data file per reader process, at least


class DataError(Exception):
    """A problem with user-supplied data (unreadable, unparsable, degenerate)."""


def _column_index(selector: str | None) -> int | str | None:
    """``selector`` as a column index, or as it is if it is no integer: a
    header name, or None."""
    try:
        index = int(selector)
    except (TypeError, ValueError):
        return selector
    if index < 0:
        raise ValueError(f"column index must be nonnegative, got {index}")
    return index


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _rows_report(what: str, rows: list[int]) -> str:
    shown = ", ".join(str(r) for r in rows[:10])
    more = "" if len(rows) <= 10 else f" (+{len(rows) - 10} more)"
    return f"{what}: {shown}{more}"


def _split(line: str, comma: bool) -> list[str] | None:
    """The cells of a row, which is one line, split as the bulk conversion
    splits them: only trailing blanks are stripped, so a quote after leading
    blanks is an ordinary character.  None if a quote is still open at the
    end of the line, which a csv reader shows by reading on into the empty
    line after it.  A quoted cell may be as long as its line, as in the bulk
    conversion, whatever csv's field size limit was."""
    if not comma:
        return line.split()
    if '"' not in line:  # what a csv reader returns, at a fraction of its cost
        line = line.rstrip()
        return line.split(",") if line else []
    if len(line) > csv.field_size_limit():  # a process-wide limit: only ever raised
        csv.field_size_limit(len(line))
    reader = csv.reader([line.rstrip(), ""])
    cells = next(reader)
    return cells if reader.line_num == 1 else None


def load_column(path: str, column: str, date_column: str | None = None):
    """Read one numeric column (by index or header name) from a delimited
    file, and optionally locate a companion date column.

    The first non-blank line fixes the delimiter for the whole file (comma if
    it has one, else whitespace) and is a header if any of its cells is not a
    number.  Blank lines are skipped.  Rows that fail to parse or hold a
    non-finite value are an error naming their file line numbers, never
    silently skipped.

    Returns the values as float64 and a :class:`DataRows` that finds the
    file line and the date of a data row.
    """
    col, date_col = _column_index(column), _column_index(date_column)  # before the read
    try:
        # Line ends as in the file (newline=""), so that the bytes before the
        # data are the encoded length of the lines read.
        with open(path, encoding="utf-8", newline="") as fh:
            first_line = start = 0
            for line in iter(fh.readline, ""):
                first_line += 1
                start += len(line.encode("utf-8"))
                if first_line == 1:  # a byte-order mark is part of no cell
                    line = line.removeprefix("\ufeff")
                if line.strip():
                    break
            else:
                raise DataError(f"{path} contains no data rows")
        comma = "," in line
        first = _split(line, comma)
        try:
            if first is None:
                raise DataError(f"{path}: " + _rows_report("rows failed to parse", [first_line]))
            header = first if any(not _is_float(cell) for cell in first) else []
            for name in (col, date_col):
                if isinstance(name, str) and name not in header:
                    raise DataError(f"column {name!r} not found in header {header}")
            col, date_col = (header.index(s) if isinstance(s, str) else s for s in (col, date_col))
            for index in (col, date_col):
                if index is not None and index >= len(first):
                    raise DataError(
                        f"{path}: column {index} is past the {len(first)} "
                        f"columns of row {first_line}"
                    )
        except DataError:
            # The header read decodes a few KiB past the first row, so a byte
            # that is not UTF-8 is looked for in the whole file and named first.
            if undecodable := _undecodable(path):
                raise DataError(f"cannot read {path}: {undecodable}") from None
            raise
        if not header:
            first_line = start = 0
        values, blocks = _read_ranges(path, start, first_line, comma, col)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {_undecodable(path) or exc}") from exc
    if not values.size:
        raise DataError(f"{path}: no usable rows in column {column!r}")
    return values, DataRows(path, comma, date_col, blocks)


def _undecodable(path: str) -> str | None:
    """Where the first byte of ``path`` that is not UTF-8 lies: its file
    offset and its line, counted as text mode counts lines.  A decode error
    from a reader counts from the chunk it decoded, which moves with the
    ranges.  No UTF-8 sequence holds a newline byte, so the file decodes
    line by line."""
    offset, number = 0, 1
    with open(path, "rb") as fh:
        for line in fh:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                number += _line_ends(line[:exc.start])
                return (f"'utf-8' codec can't decode byte {line[exc.start]:#04x} at "
                        f"file offset {offset + exc.start} (line {number}): {exc.reason}")
            offset += len(line)
            number += _line_ends(line)
    return None


def _line_ends(data: bytes) -> int:
    """Line ends in ``data``: "\n", "\r\n" and "\r" each count once."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _ranges(path: str, start: int) -> list[tuple[int, int]]:
    """Split the bytes of ``path`` from ``start`` on into (start, end) ranges:
    at most one per usable CPU and per ``_MIN_RANGE`` bytes, each but the
    first starting just after a newline, so that every range boundary is a
    line boundary.  A file without newlines is one range."""
    with open(path, "rb") as fh:
        end = fh.seek(0, io.SEEK_END)
        count = min(usable_cpus(), (end - start) // _MIN_RANGE)
        starts = [start]
        for k in range(1, count):
            fh.seek(max(starts[-1], start + (end - start) * k // count))
            while (chunk := fh.readline(1 << 16)) and not chunk.endswith(b"\n"):
                pass  # a line longer than the chunk, or "\r" line ends only
            if fh.tell() == end:
                break
            starts.append(fh.tell())
    return list(zip(starts, [*starts[1:], end]))


def _read_ranges(path: str, start: int, number: int, comma: bool, col: int):
    """Convert column ``col`` of ``path`` from byte ``start`` on, which
    follows file line ``number``: the ranges of :func:`_ranges` by
    :func:`meanbreak.fork_map`, range 0 in this process.  Each range's line numbers and block
    table count from its own start; they are shifted by the lines and rows of
    the ranges before it, so a range boundary reads as a block boundary.

    Returns the values and the block table of :class:`DataRows`.
    """
    ranges = _ranges(path, start)
    parts = fork_map(_read_values, [(path, *span, comma, col) for span in ranges],
                     [f"the reader of bytes {a}-{b}" for a, b in ranges])
    values, blocks, bad, nonfinite = [], [], [], []
    rows = 0
    for part, part_blocks, part_bad, part_nonfinite, lines in parts:
        values.append(part)
        blocks += [(position, number + before, rows + rows_before)
                   for position, before, rows_before in part_blocks]
        bad += [number + line for line in part_bad]
        nonfinite += [number + line for line in part_nonfinite]
        number += lines
        rows += len(part)
    reports = [_rows_report(what, numbers) for what, numbers in (
        ("rows failed to parse", bad), ("rows with non-finite values", nonfinite)) if numbers]
    if reports:
        raise DataError(f"{path}: " + "; ".join(reports))
    return np.concatenate(values), tuple(blocks)


def _read_values(path: str, start: int, end: int, comma: bool, col: int):
    """Convert column ``col`` of bytes ``start`` to ``end`` of ``path``, a
    block of lines at a time.

    A block the bulk conversion rejects, or that holds a non-finite value, is
    checked cell by cell, so a malformed file costs about as much as a clean
    one and every bad row is named by its line number.  Lines the bulk
    conversion rejects but ``float`` reads ("1_000", a whitespace-only line
    in a comma file) are read in that check.

    A block is ``BLOCK_CHARS`` bytes cut back to their last line end ("\r"
    as the last byte may be the start of a "\r\n"), or a whole line where
    that is longer.  No UTF-8 sequence holds a line-end byte, so each block
    decodes on its own.

    Returns the values; per block, its file offset and the lines and data
    rows of the range before it; the line numbers of bad and of non-finite
    rows; and the number of lines, all counted in the range.
    """
    options = dict(
        usecols=col, comments=None, ndmin=1,
        delimiter="," if comma else None, quotechar='"' if comma else None,
    )
    parts, blocks, bad, nonfinite = [], [], [], []
    number = rows = 0
    with open(path, "rb") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of blank lines holds no data
        position = fh.seek(start)
        while data := fh.read(min(BLOCK_CHARS, end - position)):
            if position + len(data) < end:
                cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
                if cut:
                    data = data[:cut]
                    fh.seek(position + cut)
                else:
                    data += fh.readline(end - position - len(data))
            text = data.decode("utf-8-sig" if position == 0 else "utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            block = text.split("\n")
            if not block[-1]:  # the text ended with a newline
                block.pop()
            try:
                values = np.loadtxt(block, **options)
            except ValueError:
                values = None
            if (values is None or not np.isfinite(values).all()
                    or (comma and '"' in text and not _rows_are_lines(block, len(values)))):
                values = _check_cells(block, number, comma, col, bad, nonfinite)
            blocks.append((position, number, rows))
            parts.append(values)
            position += len(data)
            number += len(block)
            rows += len(values)
    return (np.concatenate(parts) if parts else np.empty(0)), blocks, bad, nonfinite, number


def _rows_are_lines(lines, rows: int) -> bool:
    """Whether the bulk conversion read its ``rows`` rows of comma ``lines``
    one per non-empty line (it skips empty lines and rejects blank ones).  A
    quote still open at the end of a line takes the next lines into its row,
    or, on the last line, runs to the end."""
    last = next((line for line in reversed(lines) if line), "")
    return rows == len(lines) - lines.count("") and _split(last, comma=True) is not None


def _check_cells(lines, after, comma, col, bad, nonfinite) -> np.ndarray:
    """Parse column ``col`` of ``lines``, which follow file line ``after``;
    append the file line numbers of bad and non-finite cells to those lists.

    A line with a quote still open at its end is bad (see :func:`_split`).
    """
    values = []
    for number, line in enumerate(lines, after + 1):
        cells = _split(line, comma)
        if cells == []:  # a blank line
            continue
        try:
            value = float(cells[col])  # TypeError: a quote left open
        except (TypeError, IndexError, ValueError):
            bad.append(number)
            continue
        if math.isfinite(value):
            values.append(value)
        else:
            nonfinite.append(number)
    return np.array(values)


@dataclass(frozen=True)
class DataRows:
    """Finds data rows of a loaded file by reading it again, on demand: a
    report names one row, so neither line numbers nor dates are kept.  A row
    is found by seeking to its block, whose position and counts the reader
    recorded."""

    path: str
    comma: bool
    date_col: int | None
    blocks: tuple  # (file offset, file lines before, data rows before)

    def _locate(self, index: int) -> tuple[int, str]:
        """File line number and text of data row ``index`` (0-based)."""
        block = bisect.bisect_right(self.blocks, index, key=lambda b: b[2]) - 1
        position, before, rows_before = self.blocks[block]
        try:
            with open(self.path, encoding="utf-8-sig") as fh:
                fh.seek(position)
                lines = enumerate(fh, before + 1)
                rows = ((number, line) for number, line in lines if line.strip())
                return next(itertools.islice(rows, index - rows_before, None))
        except OSError as exc:
            raise DataError(f"cannot read {self.path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {self.path}: {_undecodable(self.path) or exc}") from exc

    def line(self, index: int) -> int:
        return self._locate(index)[0]

    def date(self, index: int) -> str | None:
        """The date cell of data row ``index``; None without a date column."""
        if self.date_col is None:
            return None
        cells = _split(self._locate(index)[1], self.comma)
        return cells[self.date_col] if self.date_col < len(cells) else ""
