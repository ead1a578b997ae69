"""Unit tests for the SLDL kernel's core scheduling semantics."""

import pytest

from repro.kernel import (
    PARK,
    TIMEOUT,
    DeadlockError,
    Event,
    Fork,
    Join,
    KernelError,
    Notify,
    Par,
    Park,
    SimulationError,
    Simulator,
    Wait,
    WaitFor,
    )
from repro.kernel.waitcore import Timer


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    sim.run()
    assert sim.now == 0


def test_waitfor_advances_time():
    sim = Simulator()
    seen = []

    def proc():
        yield WaitFor(5)
        seen.append(sim.now)
        yield WaitFor(7)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [5, 12]
    assert sim.now == 12


def test_waitfor_zero_yields_to_peers():
    sim = Simulator()
    order = []

    def a():
        order.append("a1")
        yield WaitFor(0)
        order.append("a2")

    def b():
        order.append("b1")
        yield WaitFor(0)
        order.append("b2")

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert sim.now == 0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        WaitFor(-1)


def test_parallel_delays_overlap():
    """Delays of concurrent processes overlap (the unscheduled-model
    property that Figure 8(a) shows)."""
    sim = Simulator()
    ends = {}

    def worker(name, delay):
        yield WaitFor(delay)
        ends[name] = sim.now

    def top():
        yield Par(worker("x", 100), worker("y", 60))

    sim.spawn(top())
    sim.run()
    assert ends == {"x": 100, "y": 60}
    assert sim.now == 100  # max, not sum


def test_deterministic_order_at_same_time():
    sim = Simulator()
    order = []

    def make(name, delay):
        def proc():
            yield WaitFor(delay)
            order.append(name)

        return proc()

    for name in ("a", "b", "c"):
        sim.spawn(make(name, 10))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_before_future_events():
    sim = Simulator()
    seen = []

    def proc():
        yield WaitFor(100)
        seen.append(sim.now)
        yield WaitFor(100)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run(until=150)
    assert seen == [100]
    assert sim.now == 150


def test_run_until_with_no_events_sets_now():
    sim = Simulator()
    sim.run(until=42)
    assert sim.now == 42


def test_run_until_in_the_past_raises():
    sim = Simulator()
    sim.run(until=150)
    with pytest.raises(ValueError, match="50 < now 150"):
        sim.run(until=50)
    assert sim.now == 150
    sim.run(until=150)  # the current time itself is not in the past
    assert sim.now == 150


def test_exceptions_surface_as_simulation_error():
    sim = Simulator()

    def bad():
        yield WaitFor(1)
        raise RuntimeError("boom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError) as err:
        sim.run()
    assert err.value.process_name == "bad"
    assert isinstance(err.value.original, RuntimeError)


def test_yielding_garbage_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_spawn_accepts_callable_and_behavior_like():
    sim = Simulator()
    hits = []

    def gen_fn():
        yield WaitFor(1)
        hits.append("callable")

    class BehaviorLike:
        name = "b"

        def main(self):
            yield WaitFor(1)
            hits.append("behavior")

    sim.spawn(gen_fn)
    sim.spawn(BehaviorLike())
    sim.run()
    assert sorted(hits) == ["behavior", "callable"]


def test_fork_and_join():
    sim = Simulator()
    log = []

    def child():
        yield WaitFor(30)
        log.append(("child", sim.now))

    def parent():
        handle = yield Fork(child(), name="c")
        yield WaitFor(10)
        log.append(("parent-mid", sim.now))
        yield Join(handle)
        log.append(("joined", sim.now))

    sim.spawn(parent())
    sim.run()
    assert log == [("parent-mid", 10), ("child", 30), ("joined", 30)]


def test_join_on_terminated_process_is_immediate():
    sim = Simulator()
    log = []

    def child():
        yield WaitFor(1)

    def parent():
        handle = yield Fork(child())
        yield WaitFor(50)
        yield Join(handle)  # long dead
        log.append(sim.now)

    sim.spawn(parent())
    sim.run()
    assert log == [50]


def test_nested_par():
    sim = Simulator()
    ends = []

    def leaf(delay):
        yield WaitFor(delay)
        ends.append(sim.now)

    def mid():
        yield Par(leaf(10), leaf(20))

    def top():
        yield Par(mid(), leaf(5))
        ends.append(("top", sim.now))

    sim.spawn(top())
    sim.run()
    assert ends == [5, 10, 20, ("top", 20)]


def test_deadlock_detection_opt_in():
    sim = Simulator()

    def stuck():
        yield Wait(Event("never"))

    sim.spawn(stuck(), name="stuck")
    sim.run()  # silent by default
    with pytest.raises(DeadlockError):
        sim2 = Simulator()
        sim2.spawn(stuck(), name="stuck")
        sim2.run(check_deadlock=True)


def test_delta_limit_catches_notify_loops():
    sim = Simulator(delta_limit=50)
    ping, pong = Event("ping"), Event("pong")

    def a():
        while True:
            yield Notify(ping)
            yield Wait(pong)

    def b():
        while True:
            yield Wait(ping)
            yield Notify(pong)

    sim.spawn(a())
    sim.spawn(b())
    with pytest.raises(KernelError):
        sim.run()


def test_schedule_at_callback_runs_before_processes():
    sim = Simulator()
    order = []

    def proc():
        yield WaitFor(10)
        order.append("proc")

    sim.spawn(proc())
    sim.schedule_at(10, lambda: order.append("callback"))
    sim.run()
    assert order == ["callback", "proc"]


def test_schedule_at_past_raises():
    sim = Simulator()

    def proc():
        yield WaitFor(10)
        sim.schedule_at(5, lambda: None)

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_timer_cancellation():
    sim = Simulator()
    fired = []
    timer = sim.schedule_at(10, lambda: fired.append(1))
    timer.cancel()
    sim.run()
    assert fired == []
    assert sim.now == 0  # cancelled timers don't advance time... (lazy pop)


def test_rearm_moves_a_queued_timer():
    """A moved timer fires once, at its new time."""
    sim = Simulator()
    fired = []
    timer = Timer(lambda: fired.append(sim.now))
    sim.rearm(timer, 10)
    sim.rearm(timer, 25)
    sim.rearm(timer, 15)
    sim.run()
    assert fired == [15]
    assert sim.stats["timer_fires"] == 1
    assert sim._timers.heap == []
    assert sim._timers.dead == 0


def test_rearm_after_fire_and_after_cancel():
    """A fired or cancelled timer is queued again by ``rearm``; every
    real fire counts once, a cancelled arm not at all."""
    sim = Simulator()
    fired = []
    timer = Timer(lambda: fired.append(sim.now))
    sim.rearm(timer, 5)
    sim.run()
    sim.rearm(timer, 8)  # after a fire
    sim.cancel_scheduled(timer)
    sim.rearm(timer, 12)  # after a cancel
    sim.run()
    assert fired == [5, 12]
    assert sim.stats["timer_fires"] == 2


def test_rearm_from_its_own_callback_makes_a_periodic_timer():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < 4:
            sim.rearm(timer, sim.now + 10)

    timer = Timer(tick, label="tick")
    sim.rearm(timer, 0)
    sim.run()
    assert fired == [0, 10, 20, 30]
    assert sim.stats["timer_fires"] == 4


def test_rearm_into_the_past_raises():
    sim = Simulator()
    timer = Timer(lambda: None)
    sim.rearm(timer, 10)
    sim.run()
    with pytest.raises(ValueError):
        sim.rearm(timer, 5)


def test_stats_counters():
    sim = Simulator()

    def proc():
        yield WaitFor(1)
        yield WaitFor(1)

    sim.spawn(proc())
    sim.run()
    assert sim.stats["spawned"] == 1
    assert sim.stats["timer_fires"] == 2
    assert sim.stats["timesteps"] == 2


# -- park / resume: the kernel half of the RTOS task hand-off -----------


def test_resume_wakes_a_parked_process_in_the_next_delta():
    sim = Simulator()
    seen = []

    def parked():
        value = yield PARK
        seen.append(("woke", value, sim.now, sim.delta))

    def resumer(target):
        yield WaitFor(4)
        seen.append(("resume", sim.now, sim.delta))
        sim.resume(target)

    target = sim.spawn(parked(), name="parked")
    sim.spawn(resumer(target), name="resumer")
    sim.run()
    (_, t, delta), woke = seen
    # the park evaluates to None and runs one delta later, at the same
    # instant — the slot an event wake would take
    assert woke == ("woke", None, t, delta + 1)
    assert t == 4


def test_timed_park_times_out_unless_resumed():
    sim = Simulator()
    seen = []

    def timed(name, timeout):
        value = yield Park(timeout=timeout)
        seen.append((name, value, sim.now))

    early = sim.spawn(timed("early", 10), name="early")
    sim.spawn(timed("late", 10), name="late")
    sim.schedule_at(3, lambda: sim.resume(early))
    sim.run()
    assert seen == [("early", None, 3), ("late", TIMEOUT, 10)]
    # the resumed park's timer was cancelled: nothing fires at t=10 for it
    assert sim.stats["timer_fires"] == 2


def test_resume_after_same_cohort_timeout_does_not_wake_twice():
    """A park whose timeout fired earlier in the same timer cohort is no
    longer parked: a later callback of that cohort resuming it is a
    no-op, and the process still steps exactly once, with TIMEOUT."""
    sim = Simulator()
    seen = []

    def timed():
        value = yield Park(timeout=5)
        seen.append((value, sim.now))
        yield WaitFor(100)
        seen.append(("after", sim.now))

    process = sim.spawn(timed(), name="timed")
    sim.run(until=0)
    # inserted after the park's timer: fires later in the t=5 cohort
    sim.schedule_at(5, lambda: sim.resume(process))
    steps = process.step_count
    sim.run(until=50)
    assert seen == [(TIMEOUT, 5)]
    assert process.step_count == steps + 1
    sim.run()
    assert seen == [(TIMEOUT, 5), ("after", 105)]


def test_resume_ignores_processes_that_are_not_parked():
    sim = Simulator()
    seen = []

    def sleeper():
        yield WaitFor(10)
        seen.append(sim.now)

    process = sim.spawn(sleeper(), name="sleeper")
    sim.schedule_at(2, lambda: sim.resume(process))
    sim.run()
    sim.resume(process)  # terminated: also a no-op
    assert seen == [10]


def test_untimed_park_is_a_deadlock_and_a_timed_one_is_not():
    sim = Simulator()

    def parked():
        yield PARK

    def timed():
        yield Park(timeout=50)

    sim.spawn(parked(), name="stuck")
    sim.spawn(timed(), name="napping")
    sim.run(until=10)
    assert [p.name for p in sim.blocked_processes()] == ["stuck"]
    with pytest.raises(DeadlockError) as err:
        sim.run(check_deadlock=True)
    assert "'stuck' parked, waiting to be resumed" in str(err.value)


def test_park_rejects_negative_timeout():
    with pytest.raises(ValueError):
        Park(timeout=-1)
