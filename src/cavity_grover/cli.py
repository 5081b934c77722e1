"""Command-line front end: ``sim <experiment> [--config FILE] [--out FILE]
[--threads N] [--summary]``.

Writes the experiment's CSV (default ``<experiment>.csv``) and optionally
prints the summary scalars to stdout. Exit codes: 0 on success, 1 on
configuration problems (including unreadable/unwritable paths), 2 on
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, NumericalError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    parse_config,
    run_experiment,
    write_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description=(
            "Three-qubit search in a decaying cavity: gate validation, "
            "iterated search, imperfection sweeps, and mode geometry."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", help="flat key=value config file")
        cmd.add_argument("--out", help="CSV output path (default <experiment>.csv)")
        cmd.add_argument(
            "--threads", type=int, help="worker threads for grid evaluation"
        )
        cmd.add_argument(
            "--summary", action="store_true", help="print key scalars to stdout"
        )
    return parser


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.threads is not None:
            config = dataclasses.replace(config, threads=args.threads)
        if args.out is not None:
            config = dataclasses.replace(config, output=args.out)
        table = run_experiment(args.experiment, config)
        out_path = config.output or f"{args.experiment}.csv"
        write_csv(table, out_path)
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
        print(table.summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
