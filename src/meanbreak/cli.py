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
from meanbreak.reader import DataError, _undecodable, load_column

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _p_text(p: float) -> str:
    """p to 7 decimals, or to 7 significant digits where 7 decimals would
    print it as 0.  Below the smallest normal float, where ``dist.p_value``
    no longer holds its relative error, the bound ``< 2.225074e-308``."""
    if p < sys.float_info.min:
        return f"< {sys.float_info.min:.6e}"
    text = f"{p:.7f}"
    return f"{p:.6e}" if float(text) == 0.0 else text


def _value_list(raw: str, convert) -> list:
    values = [convert(token) for token in raw.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


CONFIG_KEYS = {  # simulate flag or --config key -> (ExperimentConfig field, parser)
    "series": ("series", lambda raw: montecarlo.PRESET_IDS if raw == "all"
               else _value_list(raw, int)),
    "n": ("sample_sizes", lambda raw: _value_list(raw, int)),
    "alpha": ("levels", lambda raw: _value_list(raw, float)),
    "reps": ("replications", int),
    "seed": ("master_seed", int),
    "workers": ("workers", int),
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

    break_date = rows.date(shift + outcome.break_index - 1)
    p_text = _p_text(outcome.p_value)
    underflow = p_text.startswith("<")  # p is below what p_value resolves
    # By Cauchy-Schwarz the statistic is at most sqrt(floor(n/2) ceil(n/2) / n),
    # which a two-level step at floor(n/2) attains: no smaller p is attainable.
    # Rounding can put the statistic just above the bound, hence the min.
    n = len(series)
    min_p = min(dist.p_value(math.sqrt(n // 2 * (n - n // 2) / n)), outcome.p_value)
    if args.format == "json":
        doc = {
            "n": n,
            "mu_hat": outcome.mu_hat,
            "sigma2_hat": outcome.sigma2_hat if math.isfinite(outcome.sigma2_hat) else None,
            "statistic": outcome.statistic,
            "p_value": 0.0 if underflow else outcome.p_value,
            "underflow": underflow,
            "min_p_value": 0.0 if _p_text(min_p).startswith("<") else min_p,
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
        print(f"n:           {n}")
        print(f"mean:        {outcome.mu_hat:.10g}")
        print(f"variance:    {outcome.sigma2_hat:.10g}")
        print(f"statistic:   {outcome.statistic:.7f}")
        print(f"p-value:     {p_text}")
        print(f"break index: {where}")
        print(f"decision:    {decision} no-change at alpha={outcome.alpha:g}")
        if min_p >= outcome.alpha:
            print(f"note:        no p-value below {_p_text(min_p)} is attainable with n = {n}")
    return EXIT_OK


def _read_config_file(path: str) -> dict:
    """The file's settings as ``ExperimentConfig`` fields, parsed as read.
    Lines end at "\n", "\r\n" or "\r", as in a data file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read config {path}: {_undecodable(path) or exc}") from exc
    settings: dict = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = map(str.strip, line.partition(sep))
        if key not in CONFIG_KEYS:
            raise DataError(
                f"{path}:{lineno}: unknown key {key!r}; accepted keys: {', '.join(CONFIG_KEYS)}"
            )
        name, parse = CONFIG_KEYS[key]
        if name in settings:
            raise DataError(f"{path}:{lineno}: key {key!r} is set twice")
        try:
            settings[name] = parse(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return settings


def _config_from_args(args) -> montecarlo.ExperimentConfig:
    """Each setting from its flag, else the --config file, else ``ExperimentConfig``'s."""
    settings = {"workers": usable_cpus(),  # the CLI's own default; the library's is 1
                **(_read_config_file(args.config) if args.config else {}),
                **{name: flag for key, (name, _) in CONFIG_KEYS.items()
                   if (flag := getattr(args, key)) is not None}}
    if "series" not in settings:
        raise ValueError("no series selected: pass --series or --all")
    if "levels" in settings:
        settings["levels"] = sorted(settings["levels"])
    return montecarlo.ExperimentConfig(**settings)


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
    for label, key, _, sigma_spec in map(montecarlo._resolve, config.series):
        sigma_bar2 = signals.ergodic_variance_limit(sigma_spec)
        path = signals.sigma_path(sigma_spec, n)
        blocks = signals.noise_blocks((config.master_seed, key, n), range(reps), n)
        samples = np.concatenate([asymptotics.wn_path(path * block, sigma_bar2)[:, points]
                                  for block in blocks])
        print(f"FCLT diagnostics, {label} (n={n}, reps={reps}):", file=sys.stderr)
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
    print(_p_text(dist.p_value(args.z)))
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
