"""Command-line entry point: regenerate paper artifacts.

Usage::

    python -m repro list                 # every registered experiment
    python -m repro run fig8a            # one artifact, full sweep
    python -m repro run table3 --quick   # trimmed sweep
    python -m repro run all --quick      # everything (CI smoke)
    python -m repro trace fig8a          # traced run -> Chrome JSON
    python -m repro check --seeds 200    # differential correctness sweep
    python -m repro check --seed 17 --faults   # one seed, fault plan armed
"""

from __future__ import annotations

import argparse
import sys

#: Subcommand -> one-line help, the single source for the usage listing.
COMMANDS = {
    "list": "list registered experiments",
    "run": "run one experiment (or 'all')",
    "trace": "traced run, export Chrome JSON",
    "check": "differential correctness harness (seeded fuzzing + oracles)",
}


def print_usage(stream=None) -> None:
    stream = stream or sys.stderr
    print("usage: python -m repro <command> [options]\n", file=stream)
    print("commands:", file=stream)
    width = max(len(c) for c in COMMANDS)
    for name, help_line in COMMANDS.items():
        print(f"  {name:<{width}}  {help_line}", file=stream)
    print(
        "\nrun 'python -m repro <command> --help' for command options",
        file=stream,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from CLUSTER'15 GDR-OpenSHMEM",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help=COMMANDS["list"])
    runp = sub.add_parser("run", help=COMMANDS["run"])
    runp.add_argument("experiment", help="experiment id, e.g. fig8a, table3, all")
    runp.add_argument("--quick", action="store_true", help="trimmed sweeps")
    tracep = sub.add_parser("trace", help=COMMANDS["trace"])
    tracep.add_argument("experiment", help="experiment id, e.g. fig8a")
    tracep.add_argument("--quick", action="store_true", help="trimmed sweeps")
    tracep.add_argument(
        "-o", "--output", default=None,
        help="output path (default: trace-<experiment>.json)",
    )
    from repro.check.cli import build_parser as build_check_parser

    checkp = sub.add_parser("check", help=COMMANDS["check"])
    build_check_parser(checkp)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A missing or unknown subcommand gets the full usage listing and a
    # non-zero exit instead of a bare argparse error.
    if not argv:
        print_usage(sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print_usage(sys.stdout)
        return 0
    if argv[0] not in COMMANDS:
        print(f"python -m repro: unknown command {argv[0]!r}\n", file=sys.stderr)
        print_usage(sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "check":
        from repro.check.cli import main as check_main

        return check_main(parsed=args)

    from repro.reporting import EXPERIMENTS, run_experiment

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for exp_id, exp in EXPERIMENTS.items():
            print(f"{exp_id:<{width}}  {exp.title:<32}  paper: {exp.paper_claim}")
        return 0

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'python -m repro list'", file=sys.stderr)
        return 2

    if args.command == "trace":
        from repro.obs import SpanTracer, install, uninstall, write_chrome_trace

        tracer = install(SpanTracer())
        try:
            for target in targets:
                print(run_experiment(target, quick=args.quick))
                print()
        finally:
            uninstall()
        out = args.output or f"trace-{args.experiment}.json"
        path = write_chrome_trace(tracer, out)
        print(
            f"wrote {path}: {len(tracer.spans)} spans, "
            f"{len(tracer.instants)} instants across {tracer.nscopes} job(s)"
            + (f" [TRUNCATED: {tracer.dropped} dropped]" if tracer.truncated else "")
        )
        return 0

    for target in targets:
        print(run_experiment(target, quick=args.quick))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
