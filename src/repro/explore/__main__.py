"""CLI for systematic exploration: ``python -m repro.explore``.

Examples::

    python -m repro.explore --list
    python -m repro.explore --model lostirq
    python -m repro.explore --model ties3 --prune none --json
    python -m repro.explore --model lostirq --schedule-out bug.json
    python -m repro.explore --model lostirq --replay bug.json

Exit codes: 0 on success; with ``--expect-violation``, 0 when a
violation was found (or reproduced by ``--replay``) and 2 when none
was; with ``--expect-clean``, the inverse — 2 when any violation was
found and additionally 3 when the exploration did not complete (so an
exhaustiveness claim cannot be made). The CI smoke jobs assert on
both contracts.
"""

import argparse
import json
import sys

from repro.cli import positive_int
from repro.explore.explorer import Explorer, replay_run
from repro.explore.models import MODELS
from repro.explore.schedule import load_schedule, save_schedule


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="systematically explore a model's interleavings",
    )
    parser.add_argument("--model", help="corpus model to explore")
    parser.add_argument(
        "--list", action="store_true", help="list the model corpus"
    )
    parser.add_argument(
        "--prune", default="sleep", choices=("none", "visited", "sleep"),
        help="pruning level (default: sleep)",
    )
    parser.add_argument("--max-runs", type=positive_int, default=10_000)
    parser.add_argument("--max-depth", type=positive_int, default=200)
    parser.add_argument(
        "--stop-on-first", action="store_true",
        help="stop at the first violation",
    )
    parser.add_argument(
        "--schedule-out", metavar="PATH",
        help="write the first violating schedule to PATH",
    )
    parser.add_argument(
        "--replay", metavar="PATH",
        help="replay a saved schedule instead of exploring",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full result as JSON (deterministic)",
    )
    parser.add_argument(
        "--expect-violation", action="store_true",
        help="exit 2 unless a violation was found/reproduced",
    )
    parser.add_argument(
        "--expect-clean", action="store_true",
        help="exit 2 if any violation was found, 3 if the exploration "
        "did not complete (certification gate)",
    )
    return parser


def _do_list():
    for name in sorted(MODELS):
        doc = (MODELS[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:12s} {summary}")
    return 0


def _do_replay(factory, args):
    document = load_schedule(args.replay)
    model, violation, trail = replay_run(factory, document["steps"])
    outcome = {
        "model": model.name,
        "replayed_steps": len(document["steps"]),
        "violation": (
            {"kind": violation[0], "message": violation[1]}
            if violation is not None else None
        ),
        "path": trail,
    }
    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
    elif violation is not None:
        print(f"replay reproduced {violation[0]}: {violation[1]}")
    else:
        print("replay completed without violation")
    if args.expect_violation and violation is None:
        return 2
    if args.expect_clean and violation is not None:
        return 2
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.list:
        return _do_list()
    if args.expect_violation and args.expect_clean:
        _parser().error(
            "--expect-violation and --expect-clean are mutually exclusive"
        )
    if not args.model:
        _parser().error("--model is required (or use --list)")
    try:
        factory = MODELS[args.model]
    except KeyError:
        _parser().error(
            f"unknown model {args.model!r} "
            f"(known: {', '.join(sorted(MODELS))})"
        )
    if args.replay:
        return _do_replay(factory, args)
    explorer = Explorer(
        factory, prune=args.prune, max_runs=args.max_runs,
        max_depth=args.max_depth, stop_on_first=args.stop_on_first,
    )
    result = explorer.run()
    if args.schedule_out and result.violations:
        first = result.violations[0]
        save_schedule(
            args.schedule_out, first.schedule,
            model=result.model, violation=first.message,
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{result.model}: {result.runs} runs, {result.decisions} "
            f"decisions, {result.states} states "
            f"(prune={result.prune}, aborted={result.aborted}, "
            f"skipped={result.skipped}, "
            f"complete={'yes' if result.complete else 'no'})"
        )
        for violation in result.violations:
            print(f"  {violation.kind}: {violation.message}")
        if args.schedule_out and result.violations:
            print(f"  first violating schedule -> {args.schedule_out}")
    if args.expect_violation and not result.violations:
        return 2
    if args.expect_clean:
        if result.violations:
            return 2
        if not result.complete:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
