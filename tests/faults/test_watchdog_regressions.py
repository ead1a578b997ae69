"""Watchdog regression tests: release-id staleness.

Two historical bugs around the release-sequence (``task.release_seq``)
staleness guard, both triggered by *overrunning* periodic cycles that
roll back-to-back into their successor without yielding the CPU:

1. **skip-cycle after overrun** — the deadline watchdog of the cycle
   released by ``skip-cycle``'s jump must be armed against the *new*
   release id; a stale timer from the blown cycle used to either
   misfire into the fresh cycle or leave it unwatched, so a second
   overrun later in the run went uncounted.
2. **back-to-back budget re-arm** — when an overrun cycle ends exactly
   into the next release (``task_endcycle`` with the release already
   due), there is no fresh dispatch to re-arm the budget watchdog; the
   monitor must restart the charge window and timer at the release
   boundary, otherwise the new cycle runs unwatched.
"""

import pytest

from repro.kernel import Simulator, WaitFor
from repro.rtos import PERIODIC, RTOSModel


def _run_periodic(execs, period, horizon, watch):
    """One watched periodic task whose cycle times follow ``execs``."""
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched="priority", preemption="immediate")
    task = os_.task_create("t", PERIODIC, period, min(execs), priority=1)
    os_.task_watch(task, **watch)
    completions = []

    def body():
        n = 0
        while True:
            exec_time = execs[n % len(execs)]
            n += 1
            yield from os_.time_wait(exec_time)
            completions.append(sim.now)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, body()), name="t")

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=horizon)
    return os_, task, completions


@pytest.mark.usefixtures("kernel_engine")
def test_skip_cycle_rearms_after_jump():
    """Every overrun burst is detected, not just the first one.

    The 250-unit cycles blow the 100-unit period; ``skip-cycle`` jumps
    past the blown releases and the *re-armed* deadline watchdog must
    catch the second burst exactly like the first.
    """
    os_, task, completions = _run_periodic(
        execs=[250, 30, 30, 250, 30, 30], period=100,
        horizon=1_200, watch=dict(policy="skip-cycle"),
    )
    monitor = os_.monitor
    # two bursts, each: one miss on the blown cycle + two skipped
    # releases, plus the final in-flight overrun's eager miss
    assert monitor.miss_counts[task.uid] == 3
    assert os_.metrics.cycles_skipped == 4
    assert monitor.releases[task.uid] == 7
    # the run stays on the period grid after each jump — both bursts
    # produce the identical completion pattern, offset by 500
    assert completions == [250, 330, 430, 750, 830, 930]


@pytest.mark.usefixtures("kernel_engine")
def test_back_to_back_release_rearms_budget():
    """An overrun cycle rolling straight into the next release must not
    leave the successor cycles unwatched: the second 250-unit cycle is
    flagged exactly like the first (one overrun per blown cycle)."""
    os_, task, completions = _run_periodic(
        execs=[250, 30, 30], period=100,
        horizon=600, watch=dict(policy="log", budget=50),
    )
    monitor = os_.monitor
    assert monitor.overrun_counts[task.uid] == 2
    assert os_.metrics.budget_overruns == 2
    # the within-budget cycles in between were not falsely flagged
    assert completions == [250, 280, 310, 560, 590]


def test_fault_trace_records_miss_overrun_and_skip():
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority", preemption="immediate")
    task = os_.task_create("t", PERIODIC, 100, 30, priority=1)
    os_.task_watch(task, policy="skip-cycle", budget=50)

    def body():
        n = 0
        while True:
            yield from os_.time_wait(250 if n % 3 == 0 else 30)
            n += 1
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, body()), name="t")

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=1_000)
    kinds = {r.info for r in sim.trace if r.category == "fault"}
    assert {"deadline_miss", "budget_overrun", "skip_cycle"} <= kinds
