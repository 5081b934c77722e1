"""Command-line front end: ``sim <experiment> [--config FILE] [--out FILE]
[--summary]``.

Writes the experiment's CSV (default ``<experiment>.csv``) and optionally
prints the summary scalars to stdout. Exit codes: 0 on success (and after
``-h``), 1 on configuration problems (including usage errors and
unreadable/unwritable paths), 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    parse_config,
    run_experiment,
    write_csv,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # A usage error is a configuration problem: exit 1, not argparse's 2,
        # which is the numerical-failure code here.
        self.print_usage(sys.stderr)
        self.exit(1, f"sim: usage error: {message}\n")


def _path(text: str) -> str:
    # An empty --out is a usage error, not "unset": it must not fall back
    # to a default-named file that the user never named.
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sim",
        description=(
            "Three-qubit search in a decaying cavity: gate validation, "
            "iterated search, imperfection sweeps, and mode geometry."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", type=_path, help="CSV output path (default <experiment>.csv)")
    parser.add_argument("--summary", action="store_true", help="print key scalars to stdout")
    return parser


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not text
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # after -h (0) or a usage error (1)
        return exc.code
    try:
        config = load_config(args.config)
        table = run_experiment(args.experiment, config)
        write_csv(table, args.out or config.output or f"{args.experiment}.csv")
    except ConfigError as exc:
        print(f"sim: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sim: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"sim: numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.summary:
        print(table[2])  # (header, columns, summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
