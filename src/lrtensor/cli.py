"""Command line entry point: decompose | spectrum | schedule | experiment."""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrtensor",
        description="Low-rank tensor approximation experiments on sampled functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("decompose", "spectrum", "schedule", "experiment"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--cap", type=int, default=None, help="element cap override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cap is not None and args.cap < 1:
        print(f"error: --cap must be a positive integer, got {args.cap}", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config, cap=args.cap)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.command != "experiment" and config.experiment != args.command:
        print(
            f"error: config field 'experiment': is {config.experiment!r} but the "
            f"{args.command!r} subcommand was invoked",
            file=sys.stderr,
        )
        return 2
    try:
        report = run(config, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines:
        print(line)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
