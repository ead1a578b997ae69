#!/usr/bin/env python
"""Reproducible kernel/RTOS performance harness.

Runs the hot-path benchmarks (raw kernel delay loop, event ping-pong,
RTOS-scheduled workload, preemption-heavy workload, dense timer churn,
multi-event wait-any) and writes a machine-readable ``BENCH_kernel.json``
with steps/sec, wall time and the RTOS/raw overhead ratio. Use
``compare_bench.py`` to diff two result files and fail on regressions.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --out FILE --label tag

``--repeat N`` controls the timing repeats: ``steps_per_sec`` stays
best-of-N (comparable with all earlier baselines), and the median is
reported alongside (``median_steps_per_sec``) as the noise-robust figure.

The workloads mirror the pytest benches (``test_bench_overhead``,
``test_bench_schedulers``, ``test_bench_preemption``) but are plain
scripts: no pytest, deterministic shapes, best-of-N timing, JSON out.
"""

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.kernel import (
    Event,
    Notify,
    Par,
    Simulator,
    Wait,
    WaitFor,
)
from repro.platform import InterruptController, IrqLine
from repro.rtos import APERIODIC, PERIODIC, RTOSModel

DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_kernel.json"


# ----------------------------------------------------------------------
# workloads — each returns (wall_seconds, kernel_steps)
# ----------------------------------------------------------------------

def _assert_uninstrumented(sim, os_=None):
    """The gate measures the *disabled* observability path.

    Tracing must be off: the hot RTOS and platform record sites then
    skip on ``Trace.on``, and every other ``record``/``segment`` call
    returns without building a record. The RTOS model — the only owner
    of its metrics bundle, fault injector, failure monitor, MC
    controller and span sources — must have none of them armed, so the
    numbers compared against the PR-1 baseline are the bare hot path.
    """
    assert not sim.trace.on, "tracing not switched off"
    # the schedule-oracle seam must be unarmed: oracle is None means
    # every decision point takes its branch-free FIFO default, which is
    # the configuration the PR-1 baseline numbers were measured in
    assert sim.oracle is None, "schedule oracle unexpectedly installed"
    if os_ is not None:
        armed = (os_.obs, os_.faults, os_.monitor, os_.mc, os_.spans)
        assert armed == (None,) * 4 + (False,), f"RTOS model armed: {armed}"


def bench_raw_kernel(n_tasks, steps):
    """N concurrent processes each running a WaitFor delay loop."""
    sim = Simulator()
    sim.trace.enabled = False
    _assert_uninstrumented(sim)

    def worker():
        for _ in range(steps):
            yield WaitFor(1_000)

    def top():
        yield Par(*(worker() for _ in range(n_tasks)))

    sim.spawn(top(), name="top")
    base = sim.stats_delta()
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started, sim.stats_delta(base)["steps"]


def bench_event_pingpong(pairs, rounds):
    """Notify/Wait ping-pong pairs — the single-event hot path."""
    sim = Simulator()
    sim.trace.enabled = False
    _assert_uninstrumented(sim)

    def ping(evt_a, evt_b):
        for _ in range(rounds):
            yield Notify(evt_a)
            yield Wait(evt_b)

    def pong(evt_a, evt_b):
        for _ in range(rounds):
            yield Wait(evt_a)
            yield Notify(evt_b)

    for i in range(pairs):
        a, b = Event(f"a{i}"), Event(f"b{i}")
        sim.spawn(ping(a, b), name=f"ping{i}")
        sim.spawn(pong(a, b), name=f"pong{i}")
    base = sim.stats_delta()
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started, sim.stats_delta(base)["steps"]


def bench_rtos_model(n_tasks, steps, sched="priority"):
    """The raw-kernel workload under the RTOS model (overhead ratio)."""
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched=sched)
    _assert_uninstrumented(sim, os_)

    def body():
        for _ in range(steps):
            yield from os_.time_wait(1_000)

    for i in range(n_tasks):
        task = os_.task_create(f"t{i}", APERIODIC, 0, 0, priority=i)
        sim.spawn(os_.task_body(task, body()), name=task.name)

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    base = sim.stats_delta()
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started, sim.stats_delta(base)["steps"]


def bench_rtos_preemption(n_periodic, cycles):
    """Periodic tasks + interrupt-driven preemption (timer churn path)."""
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched="priority", preemption="immediate")
    _assert_uninstrumented(sim, os_)
    irq = IrqLine(sim, "irq0")
    pic = InterruptController(sim, "pic")

    def body(i):
        for _ in range(cycles):
            yield from os_.time_wait(300 + 50 * i)
            yield from os_.task_endcycle()

    for i in range(n_periodic):
        period = 1_000 * (i + 2)
        task = os_.task_create(f"p{i}", PERIODIC, period, 300, priority=i)
        sim.spawn(os_.task_body(task, body(i)), name=task.name)

    def isr():
        yield WaitFor(10)
        os_.interrupt_return()

    pic.register(irq, isr)
    horizon = 1_000 * (n_periodic + 1) * cycles
    for t in range(500, horizon, 1_700):
        sim.schedule_at(t, irq.raise_irq)

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    base = sim.stats_delta()
    started = time.perf_counter()
    sim.run(until=horizon)
    return time.perf_counter() - started, sim.stats_delta(base)["steps"]



def bench_timer_heavy(n_tasks, steps):
    """Dense same-instant timers: the shape periodic tasksets collapse to.

    Every worker re-arms for the *same* deadline each timestep, so all
    ``n_tasks`` timers of an instant land together: ``n_tasks`` heap
    pushes and pops per timestep.
    """
    sim = Simulator()
    sim.trace.enabled = False
    _assert_uninstrumented(sim)

    def worker():
        for _ in range(steps):
            yield WaitFor(500)

    def top():
        yield Par(*(worker() for _ in range(n_tasks)))

    sim.spawn(top(), name="top")
    base = sim.stats_delta()
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started, sim.stats_delta(base)["steps"]


def bench_wait_any(groups, rounds):
    """Multi-event wait-any churn: enroll in a wait set, wake, re-enroll.

    Each group ping-pongs between a waiter blocked on four events and a
    notifier that fires a rotating member of the set — exercising
    wait-set enrollment, ``select_pending`` over several events, and the
    cross-queue cleanup when one event of a set wakes the task.
    """
    sim = Simulator()
    sim.trace.enabled = False
    _assert_uninstrumented(sim)

    def waiter(events, done):
        for _ in range(rounds):
            yield Wait(*events)
            yield Notify(done)

    def notifier(events, done):
        n = len(events)
        for i in range(rounds):
            yield Notify(events[i % n])
            yield Wait(done)

    for g in range(groups):
        events = tuple(Event(f"g{g}e{j}") for j in range(4))
        done = Event(f"g{g}done")
        sim.spawn(waiter(events, done), name=f"waiter{g}")
        sim.spawn(notifier(events, done), name=f"notifier{g}")
    base = sim.stats_delta()
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started, sim.stats_delta(base)["steps"]


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def _measure(fn, repeats):
    """Best-of-N wall time plus the median; steps is identical across
    repeats. ``steps_per_sec`` stays best-of-N so results remain
    comparable with every earlier baseline; the median fields are the
    noise-robust companion figure for eyeballing."""
    walls, steps = [], None
    for _ in range(repeats):
        wall, n = fn()
        walls.append(wall)
        steps = n
    best = min(walls)
    median = statistics.median(walls)
    return {
        "wall_s": round(best, 6),
        "steps": steps,
        "steps_per_sec": round(steps / max(best, 1e-9), 1),
        "median_wall_s": round(median, 6),
        "median_steps_per_sec": round(steps / max(median, 1e-9), 1),
    }


def run_suite(quick=False, repeats=None):
    if repeats is None:
        repeats = 2 if quick else 5
    repeats = max(1, repeats)
    # full-mode shapes are sized so each bench runs for a few hundred ms
    # on a contemporary host — small enough for CI, large enough that
    # best-of-N steps/sec is stable to a few percent
    scale = 1 if quick else 40
    benches = {
        "raw_kernel": lambda: bench_raw_kernel(16, 250 * scale),
        "event_pingpong": lambda: bench_event_pingpong(8, 250 * scale),
        "rtos_priority": lambda: bench_rtos_model(16, 60 * scale),
        "rtos_rr": lambda: bench_rtos_model(16, 60 * scale, sched="rr"),
        "rtos_preemption": lambda: bench_rtos_preemption(6, 40 * scale),
        "timer_heavy": lambda: bench_timer_heavy(64, 100 * scale),
        "wait_any": lambda: bench_wait_any(8, 200 * scale),
    }
    results = {}
    for name, fn in benches.items():
        fn()  # warmup
        results[name] = _measure(fn, repeats)
        print(
            f"{name:>18}: {results[name]['steps_per_sec']:>12,.0f} steps/s"
            f"  (median {results[name]['median_steps_per_sec']:>12,.0f}, "
            f"{results[name]['steps']} steps, "
            f"{results[name]['wall_s']:.4f} s)"
        )
    ratios = {
        "rtos_over_raw_walltime_per_step": round(
            (results["rtos_priority"]["wall_s"]
             / results["rtos_priority"]["steps"])
            / (results["raw_kernel"]["wall_s"]
               / results["raw_kernel"]["steps"]),
            3,
        ),
        "raw_over_rtos_steps_per_sec": round(
            results["raw_kernel"]["steps_per_sec"]
            / results["rtos_priority"]["steps_per_sec"],
            3,
        ),
    }
    return results, ratios


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small shapes + fewer repeats (CI smoke)")
    parser.add_argument("--repeats", "--repeat", type=int, default=None,
                        dest="repeats", metavar="N",
                        help="timing repeats per bench (best-of-N in "
                             "steps_per_sec, median reported alongside)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--label", default="",
                        help="free-form tag recorded in the JSON meta")
    args = parser.parse_args(argv)

    results, ratios = run_suite(quick=args.quick, repeats=args.repeats)
    payload = {
        "meta": {
            "label": args.label,
            "quick": args.quick,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "benches": results,
        "ratios": ratios,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nratios: {ratios}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
