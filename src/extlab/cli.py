"""Command-line runner for script files.

    extlab path/to/script.gor [--seed N] [--window H] [--degree-cap D]
                              [--timeout-secs T] [--format json|table]

Prints the run report to stdout and exits with the worst outcome of the
run: 0 on success, 2 when a check's hypotheses failed, 3 on a confirmed
violation, 4 when a resource cap fired, 5 on a parse error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ParseError
from .script import (
    EXIT_PARSE,
    RunFlags,
    parse_script,
    render_report_text,
    report_json,
    run_script,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="extlab",
        description="Run a homological-experiment script and report results.",
    )
    p.add_argument("script", help="path to a script file")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized searches (default 0)")
    p.add_argument("--window", type=int, default=10,
                   help="default index window for checks and searches (default 10)")
    p.add_argument("--degree-cap", type=int, default=64,
                   help="largest internal degree the engine will touch (default 64)")
    p.add_argument("--timeout-secs", type=float, default=None,
                   help="wall-clock budget, checked between statements")
    p.add_argument("--format", choices=("json", "table"), default="json",
                   help="stdout rendering (default json)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"extlab: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        script = parse_script(text)
    except ParseError as e:
        print(f"extlab: {args.script}:{e}", file=sys.stderr)
        return EXIT_PARSE
    flags = RunFlags(seed=args.seed, window=args.window, degree_cap=args.degree_cap,
                     timeout_secs=args.timeout_secs)
    report = run_script(script, flags)
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        sys.stdout.write(render_report_text(report))
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
