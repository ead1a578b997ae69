"""``python -m repro.farm`` — run experiment sweeps from the shell.

Built-in sweeps::

    python -m repro.farm vocoder            # scheduler x preemption, Table-1 app
    python -m repro.farm taskset            # scheduler ablation task set
    python -m repro.farm table1             # the three Table-1 models
    python -m repro.farm campaign           # fault campaign: seed x plan x sched
    python -m repro.farm mc                 # MC ablation: degrade x MC-on/off x seed
    python -m repro.farm spec sweep.json    # any target, declarative JSON

Common flags: ``--jobs N`` (``--jobs 1`` runs in-process unless a
timeout is set), ``--timeout S``, ``--json FILE``, ``--csv FILE``,
``--quiet``. Every point runs once.
"""

import argparse
import json
import sys

from repro.cli import positive_int
from repro.farm.runner import run_sweep
from repro.farm.sweep import SweepSpec

SCHEDULERS = ("priority", "priority_np", "rr", "fifo", "edf", "rms")
PREEMPTION_MODES = ("step", "immediate")


def _csv_list(text):
    return [item for item in text.split(",") if item]


def _plan_list(text):
    """One inline JSON plan (a value starting with ``[`` or ``{``, as
    ``mc --plan`` takes it) or a comma-separated list of presets."""
    if text.lstrip().startswith(("[", "{")):
        return [text]
    return _csv_list(text)


def _int_list(text):
    return [int(item) for item in _csv_list(text)]


def _step_list(text):
    steps = _int_list(text)
    if any(step <= 0 for step in steps):
        raise argparse.ArgumentTypeError(f"delay steps must be > 0: {text!r}")
    return steps


def _seconds(text):
    seconds = float(text)
    if not seconds > 0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"timeout must be > 0: {text!r}")
    return seconds


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.farm",
        description="Parallel experiment-sweep farm for the RTOS models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=positive_int, default=None,
                        metavar="N",
                        help="worker processes, >= 1 (default: one per "
                        "CPU); 1 without --timeout runs in-process")
    common.add_argument("--timeout", type=_seconds, default=None,
                        metavar="SEC",
                        help="per-run wall-clock limit (> 0); always "
                        "runs the points in worker processes")
    common.add_argument("--json", metavar="FILE", dest="json_out",
                        help="write full results as JSON")
    common.add_argument("--csv", metavar="FILE", dest="csv_out",
                        help="write flat result rows as CSV")
    common.add_argument("--quiet", action="store_true",
                        help="suppress per-run progress lines")

    voc = sub.add_parser(
        "vocoder", parents=[common],
        help="vocoder architecture model: scheduler x preemption sweep",
    )
    voc.add_argument("--frames", type=positive_int, default=10)
    voc.add_argument("--seed", type=int, default=2003)
    voc.add_argument("--sched", type=_csv_list,
                     default=list(SCHEDULERS), metavar="LIST")
    voc.add_argument("--preemption", type=_csv_list,
                     default=list(PREEMPTION_MODES), metavar="LIST")
    voc.add_argument("--overhead", type=_int_list, default=[0],
                     metavar="LIST", help="switch_overhead values (ns)")

    tsk = sub.add_parser(
        "taskset", parents=[common],
        help="scheduler ablation on the synthetic periodic task set",
    )
    tsk.add_argument("--policies", type=_csv_list,
                     default=list(SCHEDULERS), metavar="LIST")
    tsk.add_argument("--preemption", type=_csv_list,
                     default=["step"], metavar="LIST")
    tsk.add_argument("--granularity", type=_step_list, default=[10_000],
                     metavar="LIST", help="delay steps (ns, each > 0)")
    tsk.add_argument("--horizon", type=positive_int,
                     default=6_000_000)
    tsk.add_argument("--overhead", type=_int_list, default=[0],
                     metavar="LIST", help="switch_overhead values (ns)")

    tbl = sub.add_parser(
        "table1", parents=[common],
        help="the three Table-1 vocoder models (spec/arch/impl)",
    )
    tbl.add_argument("--frames", type=positive_int, default=10)
    tbl.add_argument("--seed", type=int, default=2003)

    cam = sub.add_parser(
        "campaign", parents=[common],
        help="fault-injection campaign: seed x fault plan x scheduler",
    )
    cam.add_argument("--seeds", type=_int_list, default=[1, 2, 3],
                     metavar="LIST", help="injector seeds")
    cam.add_argument("--plans", type=_plan_list,
                     default=["baseline", "jitter", "crash"], metavar="LIST",
                     help="fault-plan preset names (see repro.faults), "
                     "or one inline JSON plan")
    cam.add_argument("--sched", type=_csv_list,
                     default=["priority", "edf"], metavar="LIST")
    cam.add_argument("--on-miss", default="log",
                     choices=("log", "notify", "kill", "skip-cycle"),
                     help="deadline-miss policy for every watched task")
    cam.add_argument("--budget-factor", type=float, default=None,
                     metavar="F", help="arm execution budgets of wcet*F")
    cam.add_argument("--horizon", type=positive_int,
                     default=6_000_000)
    cam.add_argument("--report", metavar="FILE",
                     help="write the deterministic campaign report JSON "
                     "(no wall-clock fields; byte-identical across runs)")

    mcp = sub.add_parser(
        "mc", parents=[common],
        help="mixed-criticality ablation: degrade policy x MC-on/off x seed",
    )
    mcp.add_argument("--seeds", type=_int_list, default=[1, 2, 3],
                     metavar="LIST", help="injector seeds")
    mcp.add_argument("--degrade", type=_csv_list,
                     default=["drop", "skip", "elastic"], metavar="LIST",
                     help="degradation policies to sweep")
    mcp.add_argument("--plan", default="overrun_storm",
                     help="fault-plan preset or inline JSON "
                     "(default: %(default)s)")
    mcp.add_argument("--sched", type=_csv_list, default=["priority"],
                     metavar="LIST")
    mcp.add_argument("--recovery-window", type=positive_int, default=None,
                     metavar="NS", help="hysteresis recovery window "
                     "(default: sticky raises)")
    mcp.add_argument("--horizon", type=positive_int,
                     default=6_000_000)
    mcp.add_argument("--report", metavar="FILE",
                     help="write the deterministic campaign report JSON "
                     "(no wall-clock fields; byte-identical across runs)")

    spc = sub.add_parser(
        "spec", parents=[common],
        help="run a declarative sweep from a JSON file",
    )
    spc.add_argument("file", help="JSON sweep spec "
                     '({"target": ..., "base": ..., "axes": ...})')
    return parser


def build_spec(args):
    if args.command == "vocoder":
        return (
            SweepSpec("repro.farm.workloads:vocoder_architecture_run",
                      base={"n_frames": args.frames, "seed": args.seed})
            .axis("sched", args.sched)
            .axis("preemption", args.preemption)
            .axis("switch_overhead", args.overhead)
        )
    if args.command == "taskset":
        return (
            SweepSpec("repro.farm.workloads:periodic_taskset_run",
                      base={"horizon": args.horizon})
            .axis("policy", args.policies)
            .axis("preemption", args.preemption)
            .axis("granularity", args.granularity)
            .axis("switch_overhead", args.overhead)
        )
    if args.command == "table1":
        base = {"n_frames": args.frames, "seed": args.seed}
        spec = SweepSpec(
            "repro.farm.workloads:vocoder_specification_run", base=base
        )
        # heterogeneous targets: expand() covers the spec model; the
        # other two levels ride along as explicit configs
        configs = spec.expand()
        from repro.farm.sweep import RunConfig

        configs.append(RunConfig(
            "repro.farm.workloads:vocoder_architecture_run", base))
        configs.append(RunConfig(
            "repro.farm.workloads:vocoder_implementation_run", base))
        return configs
    if args.command == "campaign":
        from repro.faults.campaign import campaign_spec

        return campaign_spec(
            seeds=args.seeds, plans=args.plans, scheds=args.sched,
            on_miss=args.on_miss, budget_factor=args.budget_factor,
            horizon=args.horizon,
        )
    if args.command == "mc":
        from repro.faults.campaign import mc_campaign_spec

        return mc_campaign_spec(
            seeds=args.seeds, degrades=args.degrade, plan=args.plan,
            scheds=args.sched, recovery_window=args.recovery_window,
            horizon=args.horizon,
        )
    if args.command == "spec":
        with open(args.file) as fh:
            return SweepSpec.from_dict(json.load(fh))
    raise SystemExit(f"unknown command {args.command!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        spec = build_spec(args)
    except OSError as exc:
        detail = exc.strerror or exc
        target = getattr(args, "file", None) or exc.filename or "input"
        print(f"error: cannot read sweep spec {target}: {detail}",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: invalid sweep configuration: {exc}", file=sys.stderr)
        return 2
    print(f"farm: {args.command} sweep, {len(spec)} configurations")

    def progress(run):
        if args.quiet:
            return
        print(f"  [{run.status:>9}] {run.config.label()}  {run.elapsed:.3f}s")

    result = run_sweep(
        spec, processes=args.jobs, timeout=args.timeout, progress=progress,
    )

    print()
    print(result.format_table(title=f"{args.command} sweep"))
    if args.json_out:
        result.to_json(args.json_out)
        print(f"wrote {args.json_out}")
    if args.csv_out:
        result.to_csv(args.csv_out)
        print(f"wrote {args.csv_out}")
    if getattr(args, "report", None):
        from repro.faults.campaign import write_campaign_report

        write_campaign_report(result, args.report)
        print(f"wrote {args.report}")
    for run in result.failed:
        print(f"FAILED {run.config.label()}: {run.status}", file=sys.stderr)
        if run.error:
            print(run.error, file=sys.stderr)
    return 1 if result.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
