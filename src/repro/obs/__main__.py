"""Command-line entry point: ``python -m repro.obs``.

Subcommands
-----------
``export``
    Run a bundled model (or load a recorded JSONL trace) and write any
    combination of Chrome-Trace/Perfetto JSON (``--ctf``), VCD
    (``--vcd``), streaming JSONL (``--jsonl``) and an ASCII Gantt chart
    (``--gantt``).
``stats``
    Run a model with a metrics registry attached to every OS service and
    channel, and print the metric snapshot as JSON.
``profile``
    Run a model once to warm up, then again under :mod:`cProfile`, and
    print the functions with the most self time (calls, self and
    cumulative seconds). Kernel handlers, OS services, the scheduler
    and model code each appear by name; host time is not split per
    process, so processes that share one body function share its row.
    The per-layer split of a benchmark workload is
    ``benchmarks/e2e/run.py --trace 1``.
``report``
    Run a model (or load a recorded JSONL trace) through the causal
    span builder and print the run-health report — per-task latency
    percentiles, top blocking chains, priority-inversion incidents,
    worst-case witnesses and the job/miss census — as fixed-width text
    or (``--json``) deterministic JSON.

The bundled models are the paper's running example (Figure 3) —
``fig3-arch`` (the RTOS-refined architecture model, the default) and
``fig3-spec`` (the unscheduled specification model) — plus the span
demos of :mod:`repro.apps.inversion`: ``pi-demo`` (the seeded
priority-inversion scenario; ``pi-demo-pip`` is the same system healed
by priority inheritance), ``fault-demo`` (an overloaded, watched,
fault-injected task set) and ``mc-demo`` (a mixed-criticality set
cycling through overrun-triggered mode raises and hysteresis
recoveries).
"""

import argparse
import json
import os
import sys

from repro.kernel.trace import ListSink, Trace
from repro.obs.ctf import write_ctf
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JsonlSink, TeeSink, load_jsonl

MODELS = ("fig3-arch", "fig3-spec", "pi-demo", "pi-demo-pip", "fault-demo",
          "mc-demo")


def _run_model(model, trace=None, registry=None):
    from repro.apps import fig3, inversion

    if model == "fig3-spec":
        return fig3.run_unscheduled(trace=trace, registry=registry)
    if model in ("pi-demo", "pi-demo-pip"):
        return inversion.run_inversion(
            pi=model.endswith("pip"), trace=trace, registry=registry,
        )
    if model == "fault-demo":
        return inversion.run_fault_demo(trace=trace, registry=registry)
    if model == "mc-demo":
        return inversion.run_mc_demo(trace=trace, registry=registry)
    return fig3.run_architecture(trace=trace, registry=registry)


def _default_path(model, suffix):
    return model.replace("-", "_") + suffix


def _add_model_argument(parser):
    parser.add_argument(
        "--model", choices=MODELS, default="fig3-arch",
        help="bundled model to run (default: %(default)s)",
    )


def cmd_export(args):
    if args.input is not None:
        try:
            trace = load_jsonl(args.input)
        except OSError as exc:
            detail = exc.strerror or exc
            print(f"error: cannot read trace {args.input}: {detail}",
                  file=sys.stderr)
            return 2
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: corrupt JSONL trace {args.input}: {exc}",
                  file=sys.stderr)
            return 2
        source = args.input
    else:
        # a Tee keeps the in-memory query view the exporters need while
        # the JSONL sink streams every record straight to disk
        sink = ListSink()
        if args.jsonl is not None:
            sink = TeeSink(sink, JsonlSink(args.jsonl))
        trace = Trace(sink=sink)
        _run_model(args.model, trace=trace)
        trace.close()
        source = args.model

    wrote = []
    if args.jsonl is not None and args.input is None:
        wrote.append(args.jsonl)
    if args.ctf is not None:
        path = args.ctf or (
            args.input + ".ctf.json" if args.input
            else _default_path(args.model, ".ctf.json")
        )
        write_ctf(trace, path)
        wrote.append(path)
    if args.vcd is not None:
        from repro.analysis.vcd import write_vcd

        path = args.vcd or (
            args.input + ".vcd" if args.input
            else _default_path(args.model, ".vcd")
        )
        write_vcd(trace, path)
        wrote.append(path)
    if args.gantt:
        from repro.analysis.gantt import render

        print(render(trace, width=args.width))

    for path in wrote:
        print(f"wrote {path}")
    if not wrote and not args.gantt:
        records = trace.records
        print(f"{source}: {len(records)} trace records "
              f"(no output selected; try --ctf, --vcd, --jsonl or --gantt)")
    return 0


def cmd_stats(args):
    registry = MetricsRegistry()
    result = _run_model(args.model, registry=registry)
    payload = {
        "model": args.model,
        "end_time": result.sim.now,
        "trace_records": len(result.trace.records),
        "metrics": registry.snapshot(),
    }
    if result.os is not None:
        payload["rtos"] = result.os.metrics.snapshot(result.sim.now)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _function_label(func):
    """``repro/<pkg>/<file>:<line>(<name>)`` for a ``pstats`` key;
    other files keep their base name, built-ins their bare name."""
    filename, line, name = func
    if filename == "~":
        return name
    path = filename.replace(os.sep, "/")
    _, found, tail = path.rpartition("/repro/")
    path = "repro/" + tail if found else path.rpartition("/")[2]
    return f"{path}:{line}({name})"


def cmd_profile(args):
    import cProfile
    import pstats

    _run_model(args.model)  # warm-up: keeps the lazy imports out
    profiler = cProfile.Profile()
    profiler.runcall(_run_model, args.model)
    stats = pstats.Stats(profiler)
    rows = sorted(
        ((tt, nc, ct, _function_label(func))
         for func, (_, nc, tt, ct, _) in stats.stats.items()),
        key=lambda row: (-row[0], row[3]),
    )
    print(f"{args.model}: {stats.total_calls:,} function calls in "
          f"{stats.total_tt:.6f} s")
    print(f"{'calls':>10} {'self_s':>10} {'cum_s':>10}  function")
    for tt, nc, ct, label in rows[:args.limit]:
        print(f"{nc:>10,} {tt:>10.6f} {ct:>10.6f}  {label}")
    return 0


def cmd_report(args):
    from repro.obs.report import build_report, format_report
    from repro.obs.sinks import iter_jsonl

    monitor = mc = None
    if args.input is not None:
        try:
            records = list(iter_jsonl(args.input, strict=args.strict))
        except OSError as exc:
            detail = exc.strerror or exc
            print(f"error: cannot read trace {args.input}: {detail}",
                  file=sys.stderr)
            return 2
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: corrupt JSONL trace {args.input}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        result = _run_model(args.model)
        records = result.trace.records
        monitor = result.os.monitor if result.os is not None else None
        mc = result.os.mc if result.os is not None else None
    report = build_report(records, top=args.top, monitor=monitor, mc=mc)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability toolbox: trace export, metric "
                    "snapshots and simulation profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export", help="run a model (or load a JSONL trace) and export it"
    )
    _add_model_argument(export)
    export.add_argument(
        "--input", metavar="PATH", default=None,
        help="load a recorded JSONL trace instead of running a model",
    )
    export.add_argument(
        "--ctf", metavar="PATH", nargs="?", const="",
        help="write Chrome-Trace/Perfetto JSON (default name derived "
             "from the model)",
    )
    export.add_argument(
        "--vcd", metavar="PATH", nargs="?", const="",
        help="write an IEEE-1364 VCD waveform dump",
    )
    export.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="stream the trace to a JSONL file while the model runs",
    )
    export.add_argument(
        "--gantt", action="store_true",
        help="print an ASCII Gantt chart of the execution",
    )
    export.add_argument(
        "--width", type=int, default=72,
        help="Gantt chart width in cells (default: %(default)s)",
    )
    export.set_defaults(func=cmd_export)

    stats = sub.add_parser(
        "stats", help="run a model with metrics attached and print JSON"
    )
    _add_model_argument(stats)
    stats.set_defaults(func=cmd_stats)

    profile = sub.add_parser(
        "profile",
        help="run a model under cProfile and print the functions with "
             "the most self time",
    )
    _add_model_argument(profile)
    profile.add_argument(
        "--limit", type=int, default=15,
        help="functions to print (default: %(default)s)",
    )
    profile.set_defaults(func=cmd_profile)

    report = sub.add_parser(
        "report",
        help="span-based run health report (latency percentiles, "
             "blocking chains, inversions, miss census)",
    )
    _add_model_argument(report)
    report.add_argument(
        "--input", metavar="PATH", default=None,
        help="analyze a recorded JSONL trace instead of running a model",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print deterministic JSON instead of the text tables",
    )
    report.add_argument(
        "--top", type=int, default=10,
        help="blocking chains to keep (default: %(default)s)",
    )
    report.add_argument(
        "--strict", action="store_true",
        help="reject truncated JSONL input instead of tolerating a "
             "cut-off final line",
    )
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "export" and args.input is not None and args.jsonl:
        print("--input and --jsonl are mutually exclusive", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early: not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
