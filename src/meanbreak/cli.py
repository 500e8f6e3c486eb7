"""Command-line front end: test data files for a mean change, run rejection
experiments, and query the limit law.

Exit codes: 0 = ran (regardless of the test decision), 2 = usage error,
3 = data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from meanbreak import core, dist, montecarlo, signals, usable_cpus
from meanbreak.reader import DataError, load_column

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

PVALUE_FLOOR = 1e-12


def _value_list(raw: str, convert) -> list:
    values = [convert(token) for token in raw.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


CONFIG_KEYS = {  # simulate --config: key -> parser of its value, which may raise ValueError
    "series": lambda raw: montecarlo.PRESET_IDS if raw == "all" else _value_list(raw, int),
    "n": lambda raw: _value_list(raw, int),
    "alpha": lambda raw: _value_list(raw, float),
    "reps": int,
    "seed": int,
    "workers": int,
}


def cmd_test(args) -> int:
    if not 0.0 < args.alpha < 1.0:  # a usage error, found before the file is read
        raise ValueError(f"alpha must lie in (0, 1), got {args.alpha}")
    values, rows = load_column(args.file, args.column, args.date_column)
    # Return t of a levels file is row t + 1 of its data: 3 prices give 2 returns.
    shift = 1 if args.kind == "levels" else 0
    if len(values) < 2 + shift:
        raise DataError(
            f"{args.file}: need at least {2 + shift} usable rows, got {len(values)}"
        )
    series = values
    if shift:
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

    break_date = (
        rows.date(shift + outcome.break_index - 1)
        if 0 < outcome.break_index <= len(series)
        else None
    )
    underflow = outcome.p_value < PVALUE_FLOOR
    if args.format == "json":
        doc = {
            "n": len(series),
            "mu_hat": outcome.mu_hat,
            "sigma2_hat": outcome.sigma2_hat if math.isfinite(outcome.sigma2_hat) else None,
            "statistic": outcome.statistic,
            "p_value": 0.0 if underflow else outcome.p_value,
            "underflow": underflow,
            "break_index": outcome.break_index,
            "break_date": break_date,
            "alpha": outcome.alpha,
            "reject": outcome.reject,
        }
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    else:
        decision = "reject" if outcome.reject else "fail to reject"
        where = f"{outcome.break_index}"
        if break_date:
            where += f" ({break_date})"
        p_text = f"< {PVALUE_FLOOR:g}" if underflow else f"{outcome.p_value:.7f}"
        print(f"n:           {len(series)}")
        print(f"mean:        {outcome.mu_hat:.10g}")
        print(f"variance:    {outcome.sigma2_hat:.10g}")
        print(f"statistic:   {outcome.statistic:.7f}")
        print(f"p-value:     {p_text}")
        print(f"break index: {where}")
        print(f"decision:    {decision} no-change at alpha={outcome.alpha:g}")
    return EXIT_OK


def _read_config_file(path: str) -> dict[str, tuple[int, str]]:
    """The file's settings: key -> (line number, value)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # named by the line of the byte
        # exc.object is the data after any byte-order mark, as exc.start counts
        lineno = len((exc.object[:exc.start].decode("utf-8") + "_").splitlines())
        raise DataError(f"{path}:{lineno}: {exc}") from None
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
    """Each setting from its flag, else from the --config file, else its default."""
    file_opts = _read_config_file(args.config) if args.config else {}
    if args.series is None and "series" not in file_opts:
        raise ValueError("no series selected: pass --series or --all")
    settings = {"n": [30, 100, 500, 1000], "alpha": [0.01, 0.05, 0.10],
                "reps": 1000, "seed": 0, "workers": usable_cpus()}
    for key, parse in CONFIG_KEYS.items():
        if (flag := getattr(args, key)) is not None:
            settings[key] = flag
        elif key in file_opts:
            line, raw = file_opts[key]
            try:
                settings[key] = parse(raw)
            except ValueError:
                raise DataError(f"{args.config}:{line}: bad value for {key!r}: {raw!r}") from None
    return montecarlo.ExperimentConfig(
        series=tuple(settings["series"]),
        sample_sizes=tuple(settings["n"]),
        levels=tuple(sorted(settings["alpha"])),
        replications=settings["reps"],
        master_seed=settings["seed"],
        workers=settings["workers"],
    )


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    try:  # opened before the simulation runs, so a bad path costs none of it
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}") from exc
    with out as fh:
        fh.write(montecarlo.emit_table(montecarlo.run_experiment(config), format=args.format))
    if args.diagnostics:
        _print_diagnostics(config)
    return EXIT_OK


def _print_diagnostics(config: montecarlo.ExperimentConfig) -> None:
    """Empirical vs limiting variance of the partial-sum process at a few
    sample fractions, for each simulated volatility spec."""
    from meanbreak import asymptotics  # loads numpy.polynomial, which no other command needs

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
    which.add_argument("--all", dest="series", action="store_const",
                       const=montecarlo.PRESET_IDS, help="all nine presets")
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
