"""Command-line entry points: run one scenario, sweep an axis, or validate.

Exit codes: 0 success, 1 scenario validation/parse error (or a --jobs below 1,
a sweep listing a value or protocol twice or none at all, or --protocols on
the protocol axis), 2 runtime failure, including a failed cell.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .core import US_PER_S, to_seconds
from .engine import Engine
from .errors import ParseError, ValidationError
from .metrics import MetricsRow
from .mobility import position_at
from .scenario import Scenario, format_scenario, load_scenario
from .sweep import (AXIS_FIELDS, SweepPlan, aggregate, render_table, run_sweep,
                    write_csv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manet-lab",
        description="Discrete-event comparison of ad hoc routing protocols")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print its row")
    run_p.add_argument("scenario", type=Path)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--protocol", default=None)
    run_p.add_argument("--out", type=Path, default=None,
                       help="directory for results.csv")
    run_p.add_argument("--dump-traces", type=Path, default=None,
                       help="write node,t,x,y position samples (1 s step)")

    sweep_p = sub.add_parser("sweep", help="replicated sweep over one axis")
    sweep_p.add_argument("scenario", type=Path)
    sweep_p.add_argument("--axis", required=True,
                         choices=list(AXIS_FIELDS))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")
    sweep_p.add_argument("--reps", type=int, default=1)
    sweep_p.add_argument("--protocols", default=None,
                         help="comma-separated protocol list (not on the "
                              "protocol axis, which takes --values)")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="parallel runs (default 1)")
    sweep_p.add_argument("--out", type=Path, default=None,
                         help="directory for results.csv and results.txt")

    val_p = sub.add_parser("validate", help="parse a scenario and echo it")
    val_p.add_argument("scenario", type=Path)
    return parser


def _load(path: Path, seed: int | None = None, protocol: str | None = None) -> Scenario:
    sc = load_scenario(path)
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if protocol is not None:
        overrides["protocol"] = protocol
    return dataclasses.replace(sc, **overrides)


def _cmd_run(args) -> int:
    sc = _load(args.scenario, args.seed, args.protocol)
    print(format_scenario(sc, comment=True))
    engine = Engine(sc)
    row = engine.run()
    if args.dump_traces is not None:
        # Positions are a pure function of the traces: sample them afterwards.
        lines = ["node,t,x,y"]
        for t in range(0, engine.duration + 1, US_PER_S):
            for n, trace in enumerate(engine.traces):
                pos = position_at(trace, t)
                lines.append(f"{n},{to_seconds(t):.1f},{pos.x:.3f},{pos.y:.3f}")
        args.dump_traces.write_text("\n".join(lines) + "\n")
    print(MetricsRow.csv_header())
    print(row.to_csv_row())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_csv([row], args.out / "results.csv")
    return 0


def _cmd_sweep(args) -> int:
    sc = _load(args.scenario)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    protocols = None
    if args.protocols is not None:  # an empty list is an error, not the default
        protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    plan = SweepPlan(base=sc, axis=args.axis, values=values,
                     replications=args.reps, protocols=protocols)
    rows, failures = run_sweep(plan, jobs=args.jobs)
    for failure in failures:
        print(f"cell failed: {failure}", file=sys.stderr)
    print(MetricsRow.csv_header())
    for row in rows:
        print(row.to_csv_row())
    print()
    table = render_table(aggregate(rows))
    print(table)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_csv(rows, args.out / "results.csv")
        (args.out / "results.txt").write_text(table)
    return 2 if failures else 0


def _cmd_validate(args) -> int:
    sc = _load(args.scenario)
    print(format_scenario(sc))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ParseError, ValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure in a run
        print(f"runtime failure: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
