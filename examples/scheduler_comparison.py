#!/usr/bin/env python
"""Design-space exploration: scheduling policies and priority inversion.

Part 1 runs one periodic task set under every scheduling policy of the
RTOS model and tabulates deadline misses / response times — the early
exploration the paper's flow is built for. The sweep is declared and
executed with the experiment farm (``repro.farm``): on a multi-core
host the policies run in parallel worker processes; on a single-core
host the farm runs them one after another in-process.

Part 2 demonstrates priority inversion with a shared resource and how
the priority-inheritance mutex bounds it.

Run:  python examples/scheduler_comparison.py
"""

from repro.channels import RTOSMutex
from repro.farm import SweepSpec, run_sweep
from repro.farm.workloads import DEFAULT_TASK_SET
from repro.kernel import Simulator, WaitFor
from repro.rtos import APERIODIC, RTOSModel

TASK_SET = DEFAULT_TASK_SET
POLICIES = ("priority", "priority_np", "rr", "fifo", "edf", "rms")


def policy_sweep():
    spec = SweepSpec(
        "repro.farm.workloads:periodic_taskset_run"
    ).axis("policy", list(POLICIES))
    return run_sweep(spec)


def priority_inversion(inheritance):
    sim = Simulator()
    os_ = RTOSModel(sim)
    mtx = RTOSMutex(os_, name="resource", priority_inheritance=inheritance)
    evt = os_.event_new()
    finish = {}

    def low_body():
        yield from mtx.lock()
        for _ in range(10):
            yield from os_.time_wait(10_000)
        yield from mtx.unlock()

    def medium_body():
        yield from os_.event_wait(evt)
        for _ in range(20):
            yield from os_.time_wait(10_000)

    def high_body():
        yield from os_.event_wait(evt)
        yield from mtx.lock()
        yield from os_.time_wait(10_000)
        yield from mtx.unlock()
        finish["high"] = sim.now

    for name, prio, body in (("high", 1, high_body), ("medium", 5, medium_body),
                             ("low", 9, low_body)):
        task = os_.task_create(name, APERIODIC, 0, 0, priority=prio)
        sim.spawn(os_.task_body(task, body()), name=name)

    def isr():
        yield WaitFor(30_000)
        yield from os_.event_notify(evt)
        os_.interrupt_return()

    sim.spawn(isr(), name="isr")
    os_.spawn_boot()
    sim.run()
    return finish["high"]


def main():
    print("Part 1 — scheduling policies on a U=0.94 periodic set")
    result = policy_sweep()
    print(f"{'policy':<14}{'misses':>8}{'switches':>10}"
          f"{'worst t3 response (us)':>24}")
    for metrics in result.values():
        worst = metrics["worst_response"]["t3"] or 0
        print(f"{metrics['policy']:<14}{metrics['misses']:>8}"
              f"{metrics['switches']:>10}{worst / 1000:>24.0f}")
    print(f"(farm: {result.summary()})")
    print()
    print("Part 2 — priority inversion on a shared resource")
    without = priority_inversion(False)
    with_pi = priority_inversion(True)
    print(f"high task completion without inheritance: {without / 1000:.0f} us")
    print(f"high task completion with inheritance   : {with_pi / 1000:.0f} us")
    print("priority inheritance bounds the inversion to the length of "
          "low's critical section.")


if __name__ == "__main__":
    main()
