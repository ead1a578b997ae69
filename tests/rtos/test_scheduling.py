"""Scheduling policies: priority, round-robin, FIFO, EDF, RMS."""

import pytest

from repro.rtos import (
    PERIODIC,
    RoundRobin,
    make_scheduler,
    SCHED_FIFO,
    SCHED_PRIORITY,
    SCHED_PRIORITY_NP,
    SCHED_RMS,
)
from repro.rtos.sched import EDF, FIFO, FixedPriority, HierarchicalScheduler, RMS
from tests.rtos.conftest import Harness


def stepper(bench, steps, step_len):
    """Body factory: run `steps` delay steps, logging each completion."""

    def factory(task):
        def _b():
            for i in range(steps):
                yield from bench.os.time_wait(step_len)
                bench.mark(task.name, i)

        return _b()

    return factory


# ---------------------------------------------------------------------------
# make_scheduler dispatching
# ---------------------------------------------------------------------------


def test_make_scheduler_accepts_all_specs():
    assert isinstance(make_scheduler("priority"), FixedPriority)
    assert isinstance(make_scheduler("EDF"), EDF)
    assert isinstance(make_scheduler(SCHED_FIFO), FIFO)
    assert isinstance(make_scheduler(SCHED_RMS), RMS)
    rr = RoundRobin(quantum=5)
    assert make_scheduler(rr) is rr
    assert isinstance(make_scheduler(FIFO), FIFO)
    assert make_scheduler(SCHED_PRIORITY).preemptive
    assert not make_scheduler(SCHED_PRIORITY_NP).preemptive


def test_make_scheduler_rejects_unknown():
    with pytest.raises(ValueError):
        make_scheduler("lottery")
    with pytest.raises(ValueError):
        make_scheduler(99)
    with pytest.raises(TypeError):
        make_scheduler(3.14)


def test_start_selects_algorithm():
    bench = Harness(sched="fifo")
    bench.task("a", stepper(bench, 1, 10), priority=2)
    bench.task("b", stepper(bench, 1, 10), priority=1)
    bench.run(sched_alg=SCHED_PRIORITY)
    # with priority scheduling, b (prio 1) runs first despite FIFO ctor
    assert bench.log == [("b", 0, 10), ("a", 0, 20)]


def test_round_robin_quantum_validation():
    with pytest.raises(ValueError):
        RoundRobin(quantum=0)


# ---------------------------------------------------------------------------
# fixed priority
# ---------------------------------------------------------------------------


def test_priority_order():
    bench = Harness(sched="priority")
    bench.task("low", stepper(bench, 1, 10), priority=9)
    bench.task("mid", stepper(bench, 1, 10), priority=5)
    bench.task("high", stepper(bench, 1, 10), priority=1)
    bench.run()
    assert [e[0] for e in bench.log] == ["high", "mid", "low"]


def test_priority_preemption_at_step_boundary():
    """A task activated mid-step preempts at the end of the step."""
    bench = Harness(sched="priority")

    def low(task):
        def _b():
            yield from bench.os.time_wait(100)
            bench.mark("low-step")
            yield from bench.os.time_wait(100)
            bench.mark("low-done")

        return _b()

    def high(task):
        def _b():
            yield from bench.os.event_wait(evt)
            yield from bench.os.time_wait(10)
            bench.mark("high-done")

        return _b()

    evt = bench.os.event_new()
    bench.task("high", high, priority=1)
    bench.task("low", low, priority=5)

    def isr():
        yield from bench.os.event_notify(evt)
        bench.os.interrupt_return()

    bench.isr_at(150, isr)
    bench.run()
    # low's second step [100,200) is not interrupted at 150 (paper's
    # t4 -> t4' behavior); high runs [200,210); low's time_wait call only
    # returns after the preemption, so low-done is stamped 210 as well
    assert bench.log == [
        ("low-step", 100),
        ("high-done", 210),
        ("low-done", 210),
    ]
    # the switch to high happened at 200, not at 150:
    high_segs = bench.sim.trace.segments(actor="high")
    busy = [s for s in high_segs if s[2] > s[1]]
    assert busy == [("high", 200, 210, "run")]


def test_non_preemptive_priority_runs_to_block():
    bench = Harness(sched="priority_np")

    def low(task):
        def _b():
            for i in range(3):
                yield from bench.os.time_wait(10)
            bench.mark("low")

        return _b()

    def high(task):
        def _b():
            yield from bench.os.event_wait(evt)
            yield from bench.os.time_wait(10)
            bench.mark("high")

        return _b()

    evt = bench.os.event_new()
    bench.task("low", low, priority=5)
    bench.task("high", high, priority=1)

    def isr():
        yield from bench.os.event_notify(evt)
        bench.os.interrupt_return()

    # high becomes ready at t=5, mid low's first step; without
    # preemption low keeps the CPU through all three steps
    bench.isr_at(5, isr)
    bench.run()
    assert bench.log == [("low", 30), ("high", 40)]
    assert bench.os.metrics.preemptions == 0


def test_equal_priority_is_fifo():
    bench = Harness(sched="priority")
    bench.task("first", stepper(bench, 1, 10), priority=3)
    bench.task("second", stepper(bench, 1, 10), priority=3)
    bench.run()
    assert [e[0] for e in bench.log] == ["first", "second"]


# ---------------------------------------------------------------------------
# round robin
# ---------------------------------------------------------------------------


def test_round_robin_alternates_on_quantum_expiry():
    bench = Harness(sched=RoundRobin(quantum=10))
    bench.task("a", stepper(bench, 3, 10), priority=1)
    bench.task("b", stepper(bench, 3, 10), priority=1)
    bench.run()
    names = [e[0] for e in bench.log]
    assert names == ["a", "b", "a", "b", "a", "b"]
    assert bench.os.metrics.preemptions >= 4


def test_round_robin_quantum_longer_than_job():
    bench = Harness(sched=RoundRobin(quantum=1000))
    bench.task("a", stepper(bench, 2, 10), priority=1)
    bench.task("b", stepper(bench, 2, 10), priority=1)
    bench.run()
    names = [e[0] for e in bench.log]
    assert names == ["a", "a", "b", "b"]


def test_round_robin_respects_priority_levels():
    bench = Harness(sched=RoundRobin(quantum=10))
    bench.task("hi", stepper(bench, 2, 10), priority=1)
    bench.task("lo", stepper(bench, 2, 10), priority=5)
    bench.run()
    names = [e[0] for e in bench.log]
    assert names == ["hi", "hi", "lo", "lo"]


# ---------------------------------------------------------------------------
# FIFO
# ---------------------------------------------------------------------------


def test_fifo_ignores_priority():
    bench = Harness(sched="fifo")
    bench.task("first", stepper(bench, 2, 10), priority=9)
    bench.task("second", stepper(bench, 2, 10), priority=1)
    bench.run()
    names = [e[0] for e in bench.log]
    assert names == ["first", "first", "second", "second"]
    assert bench.os.metrics.preemptions == 0


# ---------------------------------------------------------------------------
# EDF
# ---------------------------------------------------------------------------


def periodic_body(bench, exec_time, cycles, granularity=10):
    """Periodic task body: exec_time split into delay steps of
    `granularity` so preemption can act at a realistic resolution."""

    def factory(task):
        def _b():
            for _ in range(cycles):
                remaining = exec_time
                while remaining > 0:
                    step = min(granularity, remaining)
                    yield from bench.os.time_wait(step)
                    remaining -= step
                yield from bench.os.task_endcycle()

        return _b()

    return factory


def test_edf_prefers_earliest_deadline():
    bench = Harness(sched="edf")
    # t_short: period 50, t_long: period 120 -> t_short has earlier deadline
    bench.task(
        "long", periodic_body(bench, 20, 2),
        tasktype=PERIODIC, period=120,
    )
    bench.task(
        "short", periodic_body(bench, 10, 3),
        tasktype=PERIODIC, period=50,
    )
    bench.run(until=400)
    short_segs = bench.sim.trace.segments(actor="short")
    # short's first instance completes before long's (deadline 50 < 120)
    assert short_segs[0][1] == 0  # starts immediately despite spawn order
    assert bench.os.metrics.deadline_misses == 0


def test_edf_schedulable_set_meets_deadlines_where_rms_fails():
    """Classic result: high-utilization task sets (U above the
    Liu-Layland bound but below 1) are EDF-schedulable but miss under
    RMS. Periods 400/500/750, exec 100/100/370 -> U = 0.943."""

    def build(sched):
        bench = Harness(sched=sched)
        for name, period, exc in (("t1", 400, 100), ("t2", 500, 100), ("t3", 750, 370)):
            bench.task(
                name, periodic_body(bench, exc, 7),
                tasktype=PERIODIC, period=period,
            )
        bench.run(until=6000)
        return bench.os.metrics.deadline_misses

    assert build("edf") == 0
    assert build("rms") > 0


# ---------------------------------------------------------------------------
# RMS
# ---------------------------------------------------------------------------


def test_rms_orders_by_period():
    bench = Harness(sched="rms")
    bench.task(
        "slow", periodic_body(bench, 10, 1),
        tasktype=PERIODIC, period=1000,
    )
    bench.task(
        "fast", periodic_body(bench, 10, 1),
        tasktype=PERIODIC, period=100,
    )
    bench.run(until=2000)
    segs = bench.sim.trace.segments()
    first_actor = segs[0][0]
    assert first_actor == "fast"  # shorter period wins despite spawn order


def test_rms_periodic_beats_aperiodic():
    bench = Harness(sched="rms")
    bench.task("aper", stepper(bench, 1, 10), priority=0)
    bench.task(
        "per", periodic_body(bench, 10, 1),
        tasktype=PERIODIC, period=100,
    )
    bench.run(until=500)
    segs = bench.sim.trace.segments()
    assert segs[0][0] == "per"


def test_policy_switch_resets_slice_state():
    """Regression: start(sched_alg) migrated ready tasks but left the
    running task's slice_start from the old policy, so a mid-run switch
    to round-robin could rotate it immediately instead of granting a
    full quantum from the switch instant."""
    bench = Harness(sched="priority")
    bench.task("a", stepper(bench, 8, 100), priority=5)
    b = bench.task("b", stepper(bench, 8, 100), priority=5)

    def switch():
        # a has occupied the CPU since t=0 under fixed priority; under
        # the new policy its slice must start fresh at t=350
        bench.os.start(RoundRobin(quantum=300))
        if False:
            yield

    bench.isr_at(350, switch)
    bench.run()
    b_marks = [entry for entry in bench.log if entry[0] == "b"]
    # a keeps the CPU until its fresh quantum expires (scheduling point
    # at 700), so b's first step completes at 800 — not at 500, which a
    # stale slice_start=0 would produce
    assert b_marks[0] == ("b", 0, 800)
    assert b.stats.preemptions + b.stats.dispatches >= 1


def test_scheduler_setter_migrates_queued_tasks():
    """Regression: the ``scheduler`` setter (documented as settable
    while stopped) swapped the policy without migrating the ready queue,
    so tasks that self-activated under the locked scheduler stayed
    ``ready`` forever and nothing ran. It now takes the one
    policy-switch path ``start(sched_alg)`` uses."""
    bench = Harness(sched="priority")
    bench.task("a", stepper(bench, 1, 10), priority=2)
    bench.task("b", stepper(bench, 1, 10), priority=1)
    bench.run(until=0, start=False)
    assert bench.os.snapshot() == {"a": "ready", "b": "ready"}
    # re-installing the active policy is a no-op, not a second migration
    bench.os.scheduler = bench.os.scheduler
    assert len(bench.os.scheduler) == 2
    bench.os.scheduler = "edf"
    assert isinstance(bench.os.scheduler, EDF)
    bench.run()
    # no deadlines: EDF keys tie, FIFO by activation order — a first,
    # whatever the priorities say
    assert bench.log == [("a", 0, 10), ("b", 0, 20)]
    assert bench.os.snapshot() == {"a": "terminated", "b": "terminated"}


@pytest.mark.parametrize("policy", [FixedPriority, HierarchicalScheduler])
def test_stored_keys_follow_rekey(policy):
    """peek and tied_best order the queue by the key stored at
    insertion; rekey is the one way a queued task's key changes, and
    tied_best's head is peek's choice by construction. The hierarchical
    scheduler re-keys in the task's component (here the background
    server's fixed-priority queue)."""
    bench = Harness(sched=policy())
    tasks = [
        bench.os.task_create(name, 0, 0, 0, priority=prio)
        for name, prio in (("x", 3), ("y", 2), ("z", 2))
    ]
    x, y, z = tasks
    sched = bench.os.scheduler
    for task in tasks:
        sched.on_ready(task, 0)
    assert sched.peek(0) is y
    assert sched.tied_best(0) == [y, z]
    x.priority = 1
    # a bare priority write does not reach the queue ...
    assert sched.peek(0) is y
    sched.rekey(x, 0)
    # ... rekey does, and invalidates the memoized choice
    assert sched.peek(0) is x
    assert sched.tied_best(0) == [x]
    x.priority = 2
    sched.rekey(x, 0)
    # x keeps its place in FIFO order among equal keys
    assert sched.tied_best(0) == [x, y, z]
    assert sched.tied_best(0)[0] is sched.peek(0)
