"""Command-line front end: test data files for a mean change, run rejection
experiments, and query the limit law.

Exit codes: 0 = ran (regardless of the test decision), 2 = usage error,
3 = data error.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import io
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from meanbreak import core, dist, usable_cpus

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

PVALUE_FLOOR = 1e-12
BLOCK_CHARS = 1 << 20  # characters of a data file converted per bulk call
_MIN_RANGE = 4 * BLOCK_CHARS  # bytes of a data file per reader process, at least
CONFIG_KEYS = ("series", "n", "alpha", "reps", "seed", "workers")  # simulate --config


class DataError(Exception):
    """A problem with user-supplied data (unreadable, unparsable, degenerate)."""


def _column_index(selector: str, header: list[str]) -> int:
    try:
        index = int(selector)
    except ValueError:
        if selector not in header:
            raise DataError(f"column {selector!r} not found in header {header}") from None
        return header.index(selector)
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


def _split(line: str, comma: bool) -> list[str]:
    line = line.strip()
    return next(csv.reader([line])) if comma else line.split()


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
    try:
        # Line ends as in the file (newline=""), so that the bytes before the
        # data are the encoded length of the lines read.
        with _text(path, newline="") as fh:
            first_line = start = 0
            for line in iter(fh.readline, ""):
                first_line += 1
                start += len(line.encode("utf-8"))
                if line.strip():
                    break
            else:
                raise DataError(f"{path} contains no data rows")
        comma = "," in line
        first = _split(line, comma)
        header = first if any(not _is_float(cell) for cell in first) else []
        col = _column_index(column, header)
        date_col = None if date_column is None else _column_index(date_column, header)
        for index in (col, date_col):
            if index is not None and index >= len(first):
                raise DataError(
                    f"{path}: column {index} is past the {len(first)} "
                    f"columns of row {first_line}"
                )
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


class _Range(io.FileIO):
    """Bytes ``start`` to ``end`` of a file (to its end if ``end`` is None).
    Positions are file offsets, so a text stream's ``tell()`` in one range is
    a valid ``seek()`` in a stream over any range that holds it."""

    def __init__(self, path: str, start: int = 0, end: int | None = None):
        super().__init__(path, "rb")
        self._end = end
        self.seek(start)

    def readinto(self, buffer) -> int:
        if self._end is not None:
            buffer = memoryview(buffer)[:max(0, self._end - self.tell())]
        return super().readinto(buffer)

    # FileIO's own read and readall read to the end of the file; these go
    # through readinto, and readall through read.
    read = io.RawIOBase.read
    readall = io.RawIOBase.readall


def _text(path: str, start: int = 0, end: int | None = None, newline=None):
    """A UTF-8 text stream over bytes ``start`` to ``end`` of ``path``; by
    default "\r\n" and "\r" read as "\n", as in ``open``."""
    return io.TextIOWrapper(
        io.BufferedReader(_Range(path, start, end)), encoding="utf-8", newline=newline
    )


def _ranges(path: str, start: int) -> list[tuple[int, int]]:
    """Split the bytes of ``path`` from ``start`` on into (start, end) ranges:
    at most one per usable CPU and per ``_MIN_RANGE`` bytes, each but the
    first starting just after a newline, so that every range boundary is a
    line boundary.  A file without newlines is one range."""
    with open(path, "rb") as fh:
        end = fh.seek(0, io.SEEK_END)
        count = min(usable_cpus(), (end - start) // _MIN_RANGE)
        if count > 1 and not _can_fork():
            count = 1
        starts = [start]
        for k in range(1, count):
            fh.seek(max(starts[-1], start + (end - start) * k // count))
            while (chunk := fh.readline(1 << 16)) and not chunk.endswith(b"\n"):
                pass  # a line longer than the chunk, or "\r" line ends only
            if fh.tell() == end:
                break
            starts.append(fh.tell())
    return list(zip(starts, [*starts[1:], end]))


def _can_fork() -> bool:
    """Whether this process can fork range readers: the platform has fork,
    and the process is no daemonic pool worker (which may have no children)."""
    if not hasattr(os, "fork"):
        return False
    import multiprocessing

    return not multiprocessing.current_process().daemon


def _read_ranges(path: str, start: int, number: int, comma: bool, col: int):
    """Convert column ``col`` of ``path`` from byte ``start`` on, which
    follows file line ``number``: range 0 of :func:`_ranges` in this process,
    the others in forked processes.  Each range's line numbers and block
    table count from its own start; they are shifted by the lines and rows of
    the ranges before it, so a range boundary reads as a block boundary.

    Returns the values and the block table of :class:`DataRows`.
    """
    ranges = _ranges(path, start)
    if len(ranges) == 1:
        parts = [_read_values(path, *ranges[0], comma, col)]
    else:
        # Fork, not spawn: a spawned reader would import numpy again, which
        # costs about as much as reading its range.  The readers call no
        # BLAS, whose threads are the only ones numpy may have started.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(len(ranges) - 1, mp_context=fork) as pool:
            rest = [pool.submit(_read_values, path, *span, comma, col) for span in ranges[1:]]
            parts = [_read_values(path, *ranges[0], comma, col)]
            parts += [future.result() for future in rest]
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
    reports = [_rows_report("rows failed to parse", bad)] if bad else []
    if nonfinite:
        reports.append(_rows_report("rows with non-finite values", nonfinite))
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

    Returns the values; per block, its ``tell()`` position and the lines and
    data rows of the range before it; the line numbers of bad and of
    non-finite rows; and the number of lines, all counted in the range.
    """
    options = dict(
        usecols=col, comments=None, ndmin=1,
        delimiter="," if comma else None, quotechar='"' if comma else None,
    )
    parts, blocks, bad, nonfinite = [], [], [], []
    number = rows = 0
    with _text(path, start, end) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of blank lines holds no data
        while True:
            # Not readlines: it would disable tell().  Text mode has already
            # turned "\r\n" and "\r" into "\n", so these are its lines.
            position = fh.tell()
            text = fh.read(BLOCK_CHARS)
            if not text:
                break
            text += fh.readline()
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
            number += len(block)
            rows += len(values)
    return (np.concatenate(parts) if parts else np.empty(0)), blocks, bad, nonfinite, number


def _rows_are_lines(lines, rows: int) -> bool:
    """Whether the bulk conversion read its ``rows`` rows of comma ``lines``
    one per non-empty line (it skips empty lines and rejects blank ones).  A
    quote still open at the end of a line takes the next lines into its row,
    or, on the last line, runs to the end."""
    last = next((line for line in reversed(lines) if line), "")
    reader = csv.reader([last, ""])
    next(reader)
    return rows == len(lines) - lines.count("") and reader.line_num == 1


def _check_cells(lines, after, comma, col, bad, nonfinite) -> np.ndarray:
    """Parse column ``col`` of ``lines``, which follow file line ``after``;
    append the file line numbers of bad and non-finite cells to those lists.

    A row is one line: a quote still open at the end of a line makes that
    line bad, and reading starts again on the next line.  A csv reader shows
    it by a ``line_num`` past the row's line; the blank line appended shows
    it on the last line.  Only trailing whitespace is stripped, so a quote
    after leading blanks is a character, as in the bulk conversion.
    """
    lines = [line.rstrip() for line in lines] + [""]
    values = []
    start = 0
    while start < len(lines):
        # Not islice: it would step over the ``start`` lines at every restart.
        source = map(lines.__getitem__, range(start, len(lines)))
        rows = csv.reader(source) if comma else (line.split() for line in source)
        for index, cells in enumerate(rows, start):
            number = after + 1 + index
            if comma and start + rows.line_num > index + 1:
                bad.append(number)
                start = index + 1
                break
            if not cells:
                continue
            try:
                value = float(cells[col])
            except (IndexError, ValueError):
                bad.append(number)
                continue
            if math.isfinite(value):
                values.append(value)
            else:
                nonfinite.append(number)
        else:
            break
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
    blocks: tuple  # (text tell() position, file lines before, data rows before)

    def _locate(self, index: int) -> tuple[int, str]:
        """File line number and text of data row ``index`` (0-based)."""
        block = bisect.bisect_right(self.blocks, index, key=lambda b: b[2]) - 1
        position, before, rows_before = self.blocks[block]
        try:
            with _text(self.path) as fh:
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


def _format_p(p: float) -> str:
    return "< 1e-12" if p < PVALUE_FLOOR else f"{p:.7f}"


def cmd_test(args) -> int:
    values, rows = load_column(args.file, args.column, args.date_column)
    minimum = 3 if args.kind == "levels" else 2  # 3 prices give 2 returns
    if len(values) < minimum:
        raise DataError(
            f"{args.file}: need at least {minimum} usable rows, got {len(values)}"
        )
    series = values
    if args.kind == "levels":
        if np.any(series <= 0.0):
            bad = int(np.flatnonzero(series <= 0.0)[0])
            raise DataError(
                f"{args.file}: levels must be strictly positive for the "
                f"log-return step (offending row {rows.line(bad)})"
            )
        series = core.compute_returns(series)
    if args.abs:
        series = core.absolute_transform(series)

    try:
        outcome = core.lm_test(series, alpha=args.alpha)
    except core.DegenerateSeriesError as exc:
        raise DataError(f"{args.file}: {exc}") from exc

    # Return t of a levels file is row t + 1 of its data.
    first_row = 1 if args.kind == "levels" else 0
    break_date = (
        rows.date(first_row + outcome.break_index - 1)
        if 0 < outcome.break_index <= len(series)
        else None
    )
    underflow = outcome.p_value < PVALUE_FLOOR
    if args.format == "json":
        doc = {
            "n": len(series),
            "mu_hat": outcome.mu_hat,
            "sigma2_hat": outcome.sigma2_hat,
            "statistic": outcome.statistic,
            "p_value": 0.0 if underflow else outcome.p_value,
            "underflow": underflow,
            "break_index": outcome.break_index,
            "break_date": break_date,
            "alpha": outcome.alpha,
            "reject": outcome.reject,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        decision = "reject" if outcome.reject else "fail to reject"
        where = f"{outcome.break_index}"
        if break_date:
            where += f" ({break_date})"
        print(f"n:           {len(series)}")
        print(f"mean:        {outcome.mu_hat:.10g}")
        print(f"variance:    {outcome.sigma2_hat:.10g}")
        print(f"statistic:   {outcome.statistic:.7f}")
        print(f"p-value:     {_format_p(outcome.p_value)}")
        print(f"break index: {where}")
        print(f"decision:    {decision} no-change at alpha={outcome.alpha:g}")
    return EXIT_OK


def _read_config_file(path: str) -> dict[str, tuple[int, str]]:
    """The file's settings: key -> (line number, value)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    options: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition(sep)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise DataError(
                f"{path}:{lineno}: unknown key {key!r}; accepted keys: {', '.join(CONFIG_KEYS)}"
            )
        if key in options:
            raise DataError(f"{path}:{lineno}: key {key!r} is set twice")
        options[key] = (lineno, value.strip())
    return options


def _config_from_args(args) -> montecarlo.ExperimentConfig:
    from meanbreak import montecarlo

    file_opts = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, convert, default):
        if flag_value not in (None, []):
            return flag_value
        if key not in file_opts:
            return default
        lineno, raw = file_opts[key]
        try:
            return convert(raw)
        except ValueError:
            raise DataError(f"{args.config}:{lineno}: bad value for {key!r}: {raw!r}") from None

    def tokens(raw: str) -> list[str]:
        values = raw.replace(",", " ").split()
        if not values:
            raise ValueError("empty list")
        return values

    def int_list(raw: str) -> list[int]:
        return [int(tok) for tok in tokens(raw)]

    def float_list(raw: str) -> list[float]:
        return [float(tok) for tok in tokens(raw)]

    def series_list(raw: str) -> list[int]:
        return list(montecarlo.PRESET_IDS) if raw == "all" else int_list(raw)

    if args.all:
        series = list(montecarlo.PRESET_IDS)
    else:
        series = pick(args.series, "series", series_list, None)
    if not series:
        raise ValueError("no series selected: pass --series or --all")
    return montecarlo.ExperimentConfig(
        series=tuple(series),
        sample_sizes=tuple(pick(args.n, "n", int_list, [30, 100, 500, 1000])),
        levels=tuple(sorted(pick(args.alpha, "alpha", float_list, [0.01, 0.05, 0.10]))),
        replications=pick(args.reps, "reps", int, 1000),
        master_seed=pick(args.seed, "seed", int, 0),
        workers=pick(args.workers, "workers", int, usable_cpus()),
    )


def cmd_simulate(args) -> int:
    from meanbreak import montecarlo

    config = _config_from_args(args)
    table = montecarlo.run_experiment(config)
    document = montecarlo.emit_table(table, format=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)
    if args.diagnostics:
        _print_diagnostics(config)
    return EXIT_OK


def _print_diagnostics(config: montecarlo.ExperimentConfig) -> None:
    """Empirical vs limiting variance of the partial-sum process at a few
    sample fractions, for each simulated volatility spec."""
    from meanbreak import asymptotics, montecarlo, signals

    taus = (0.25, 0.5, 0.75)
    n = max(config.sample_sizes)
    reps = min(config.replications, 500)
    points = [int(t * n) for t in taus]
    for key in config.series:
        _, sigma_spec = montecarlo.preset(key)
        sigma_bar2 = signals.ergodic_variance_limit(sigma_spec)
        path = signals.sigma_path(sigma_spec, n)
        blocks = signals.noise_blocks((config.master_seed, key, n), range(reps), n)
        samples = np.array([
            asymptotics.wn_path(path * eps, sigma_bar2)[points]
            for block in blocks for eps in block
        ])
        print(f"FCLT diagnostics, Series {key} (n={n}, reps={reps}):", file=sys.stderr)
        for i, tau in enumerate(taus):
            limit = asymptotics.partial_variance_limit(sigma_spec, tau) / sigma_bar2
            print(
                f"  var W({tau:g}) = {samples[:, i].var():.4f}  limit {limit:.4f}",
                file=sys.stderr,
            )


def cmd_quantile(args) -> int:
    print(f"{dist.bridge_sup_quantile(args.p):.7f}")
    return EXIT_OK


def cmd_pvalue(args) -> int:
    print(f"{dist.p_value(args.z):.7f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanbreak",
        description="Test for a change in the mean of a heteroskedastic time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the change-in-mean test on a data file")
    p_test.add_argument("file", help="delimited text file (comma or whitespace)")
    p_test.add_argument("--column", default="0", help="column index or header name")
    p_test.add_argument("--date-column", default=None, help="companion date column")
    p_test.add_argument(
        "--kind", choices=("levels", "returns"), default="returns",
        help="'levels' converts prices to log returns first",
    )
    p_test.add_argument("--abs", action="store_true", help="test absolute values")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--format", choices=("text", "json"), default="text")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a rejection-frequency experiment")
    which = p_sim.add_mutually_exclusive_group()
    which.add_argument("--series", type=int, action="append", help="preset id 1..9")
    which.add_argument("--all", action="store_true", help="all nine presets")
    p_sim.add_argument("--n", type=int, action="append", help="sample size")
    p_sim.add_argument("--alpha", type=float, action="append", help="significance level")
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--config", default=None, help="flat key = value config file")
    p_sim.add_argument("--diagnostics", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_q = sub.add_parser("quantile", help="quantile of the limit law")
    p_q.add_argument("p", type=float)
    p_q.set_defaults(func=cmd_quantile)

    p_p = sub.add_parser("pvalue", help="p-value of a statistic under the limit law")
    p_p.add_argument("z", type=float)
    p_p.set_defaults(func=cmd_pvalue)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, core.InsufficientDataError, core.DegenerateSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
