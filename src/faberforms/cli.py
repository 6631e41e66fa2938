"""Command-line front end.

Two sub-commands: ``run <config>`` executes the experiment a config file
describes and writes its artifacts, ``list-checks`` prints the catalog
of runtime checks a config may request. Exit codes: 0 success, 1 a
requested check failed, 2 the config is unreadable or out of range,
3 a numerical self-check tripped, such as a check figure that is not finite.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .checks import catalog
from .config import ConfigError, parse_config
from .numerics import NumericalError, ValidationError
from .runner import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faberforms",
        description="solve cap-form decompositions and verify their invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to an INI-style experiment config")
    run_p.add_argument("--out-dir", default=None,
                       help="artifact directory (overrides the config's [output] block)")
    sub.add_parser("list-checks", help="print the catalog of runtime checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-checks":
        print(catalog())
        return 0

    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out_dir is not None:
        config = dataclasses.replace(config, out_dir=args.out_dir)

    try:
        report, code = run_experiment(config)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    for entry in report["checks"]:
        verdict = "PASS" if entry["passed"] else "FAIL"
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.3e}"
        print(f"[{verdict}] {entry['name']}: {shown} (threshold {entry['threshold']:.1e})"
              if entry["threshold"] is not None else
              f"[{verdict}] {entry['name']}: {entry['detail']}")
    for line in report["numerical_failures"]:
        print(f"numerical failure: {line}", file=sys.stderr)
    dec = report["decomposition"]
    if dec is not None:
        print(f"M={dec['M']}  final residual {dec['residual_history'][-1][1]:.3e}  "
              f"gram condition {dec['gram_condition']:.3e}")
    print(f"artifacts written to {config.out_dir or '.'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
