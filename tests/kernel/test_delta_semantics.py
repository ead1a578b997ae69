"""Delta-cycle semantics regression suite.

Pins down the semantics the dispatch-table rewrite must preserve: the
same-delta notify/wait pending-stamp rule, the ``Wait(timeout=0)``
immediate-TIMEOUT path, wakeup ordering, timer recycling/compaction
hygiene, and the deadlock-check treatment of timed waits.
"""

import pytest

from repro.kernel import (
    TIMEOUT,
    DeadlockError,
    Event,
    Notify,
    Simulator,
    Wait,
    WaitFor,
)

pytestmark = pytest.mark.usefixtures("kernel_engine")


# ----------------------------------------------------------------------
# pending-within-delta rule
# ----------------------------------------------------------------------

def test_same_delta_notify_then_wait_catches_notification():
    """A wait issued after a notify in the same delta does not block."""
    sim = Simulator()
    evt = Event("e")
    log = []

    def proc():
        yield Notify(evt)
        fired = yield Wait(evt)  # same delta: catches the pending notify
        log.append((sim.now, fired))

    sim.spawn(proc())
    sim.run()
    assert log == [(0, evt)]


def test_pending_notification_consumed_at_most_once_per_process():
    """Re-waiting on the same pending stamp must block (no livelock)."""
    sim = Simulator()
    evt = Event("e")
    log = []

    def proc():
        yield Notify(evt)
        yield Wait(evt)  # consumes the pending notification
        log.append("first")
        yield Wait(evt)  # same stamp already consumed: must block
        log.append("second")

    sim.spawn(proc())
    sim.run()
    assert log == ["first"]


def test_notification_does_not_persist_across_deltas():
    """A wait one delta after the notify misses the event."""
    sim = Simulator()
    evt = Event("e")
    other = Event("other")
    log = []

    def waiter():
        yield Wait(other)  # blocks in delta 0, woken in delta 1...
        yield Wait(evt)  # ...where evt's delta-0 notification expired
        log.append("woke")

    def notifier():
        yield Notify(evt)
        yield Notify(other)

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert log == []


def test_notification_does_not_persist_across_timesteps():
    sim = Simulator()
    evt = Event("e")
    log = []

    def notifier():
        yield Notify(evt)

    def waiter():
        yield WaitFor(5)
        yield Wait(evt)
        log.append("woke")

    sim.spawn(notifier())
    sim.spawn(waiter())
    sim.run()
    assert log == []


def test_zero_delay_reentry_does_not_match_stale_stamp():
    """WaitFor(0) re-entry at the same time is a fresh delta context:
    a notification from before the yield must not satisfy the wait."""
    sim = Simulator()
    evt = Event("e")
    log = []

    def proc():
        yield Notify(evt)
        yield WaitFor(0)
        yield Wait(evt)
        log.append("woke")

    sim.spawn(proc())
    sim.run()
    assert log == []


def test_wait_any_returns_the_notified_event():
    sim = Simulator()
    e1, e2 = Event("e1"), Event("e2")
    log = []

    def notifier():
        yield WaitFor(3)
        yield Notify(e2)

    def waiter():
        fired = yield Wait(e1, e2)
        log.append((sim.now, fired))

    sim.spawn(notifier())
    sim.spawn(waiter())
    sim.run()
    assert log == [(3, e2)]


# ----------------------------------------------------------------------
# timeout paths
# ----------------------------------------------------------------------

def test_wait_timeout_zero_returns_timeout_immediately():
    sim = Simulator()
    evt = Event("e")
    log = []

    def proc():
        fired = yield Wait(evt, timeout=0)
        log.append((sim.now, fired))
        yield WaitFor(1)  # the process keeps running normally afterwards
        log.append((sim.now, "alive"))

    sim.spawn(proc())
    sim.run()
    assert log == [(0, TIMEOUT), (1, "alive")]


def test_wait_timeout_zero_still_catches_same_delta_pending():
    """timeout=0 returns the event, not TIMEOUT, when one pends."""
    sim = Simulator()
    evt = Event("e")
    log = []

    def proc():
        yield Notify(evt)
        fired = yield Wait(evt, timeout=0)
        log.append(fired)

    sim.spawn(proc())
    sim.run()
    assert log == [evt]


def test_wait_timeout_fires_and_event_later_notification_is_missed():
    sim = Simulator()
    evt = Event("e")
    log = []

    def waiter():
        fired = yield Wait(evt, timeout=10)
        log.append((sim.now, fired))

    def notifier():
        yield WaitFor(20)
        yield Notify(evt)

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert log == [(10, TIMEOUT)]


def test_event_beats_timeout_and_cancels_the_timer():
    sim = Simulator()
    evt = Event("e")
    log = []

    def waiter():
        fired = yield Wait(evt, timeout=100)
        log.append((sim.now, fired))

    def notifier():
        yield WaitFor(4)
        yield Notify(evt)

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert log == [(4, evt)]
    assert sim.now == 4  # the cancelled timeout timer did not advance time


# ----------------------------------------------------------------------
# wakeup ordering and waiter bookkeeping
# ----------------------------------------------------------------------

def test_waiters_wake_in_fifo_order():
    sim = Simulator()
    evt = Event("e")
    log = []

    def waiter(tag):
        yield Wait(evt)
        log.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(waiter(tag))

    def notifier():
        yield WaitFor(1)
        yield Notify(evt)

    sim.spawn(notifier())
    sim.run()
    assert log == ["a", "b", "c"]


def test_wait_any_detaches_from_all_events():
    """Waking via one event removes the process from the other's
    waiter set (uid-keyed removal)."""
    sim = Simulator()
    e1, e2 = Event("e1"), Event("e2")

    def waiter():
        yield Wait(e1, e2)

    sim.spawn(waiter())

    def notifier():
        yield WaitFor(1)
        yield Notify(e1)

    sim.spawn(notifier())
    sim.run()
    assert e1.waiter_count == 0
    assert e2.waiter_count == 0


# ----------------------------------------------------------------------
# timer hygiene: recycling, compaction, deadlock classification
# ----------------------------------------------------------------------

def test_waitfor_loop_recycles_timer_objects():
    sim = Simulator()
    seen = set()

    def proc():
        for _ in range(50):
            yield WaitFor(1)
            seen.add(id(next(iter(sim._live)).timer))

    p = sim.spawn(proc())
    sim.run()
    # every timed wait re-arms the process's one resume timer rather
    # than allocating 50
    assert len(seen) == 1
    assert sim._n_timer_fires == 50
    assert p.terminated


def test_cancelled_timers_are_compacted():
    """Aborted timed waits must not accumulate dead heap entries."""
    sim = Simulator()
    evt = Event("go")

    def waiter():
        for _ in range(300):
            yield Wait(evt, timeout=1_000_000)  # always woken early

    def notifier():
        for _ in range(300):
            yield WaitFor(1)
            yield Notify(evt)

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    # every timeout timer was cancelled; the heap must stay bounded
    # instead of holding all 300 dead entries
    assert len(sim._timers) < 150
    assert sim._timers.dead <= len(sim._timers)


def test_dead_count_matches_the_dead_heap_entries():
    """Cancelling a timer that is not queued is a no-op: ``dead`` counts
    only the cancelled entries still in the heap."""
    sim = Simulator()
    timer = sim.schedule_at(10, lambda: None)
    sim.cancel_scheduled(timer)
    sim.cancel_scheduled(timer)  # already cancelled
    assert len(sim._timers.heap) == 1
    assert sim._timers.dead == 1
    sim.run()
    assert sim._timers.heap == []
    assert sim._timers.dead == 0

    sim = Simulator()
    fired = []
    timer = sim.schedule_at(5, lambda: fired.append(sim.now))
    sim.run()
    sim.cancel_scheduled(timer)  # already fired
    assert fired == [5]
    assert sim._timers.heap == []
    assert sim._timers.dead == 0


def test_compaction_inside_a_timer_callback_keeps_the_firing_loop():
    """A callback that cancels most pending timers compacts the heap
    while the firing loop is draining it. The timers due later in the
    instant fire exactly once, and a zero-delay timer armed by the
    callback still fires before the processes of the instant run."""
    sim = Simulator()
    evt = Event("go")
    log = []

    def waiter():
        yield Wait(evt, timeout=1_000)
        log.append("woken")

    for i in range(100):
        sim.spawn(waiter(), name=f"w{i}")
    sim.run(until=0)

    def go():
        evt.fire(sim)  # cancels 100 timeouts
        sim.schedule_at(sim.now, lambda: log.append("zero-delay"))

    sim.schedule_at(10, go)
    sim.schedule_at(10, lambda: log.append("later"))
    sim.run()
    assert log == ["later", "zero-delay"] + ["woken"] * 100
    assert sim._timers.heap == []
    assert sim._timers.dead == 0


def test_timed_process_is_not_reported_blocked():
    """TIMED processes with a live timer will wake: not deadlocked."""
    sim = Simulator()

    def sleeper():
        yield WaitFor(10)

    sim.spawn(sleeper())
    seen = []
    sim.schedule_at(5, lambda: seen.append(list(sim.blocked_processes())))
    sim.run(check_deadlock=True)  # must not raise
    assert seen == [[]]
    assert sim.now == 10


def test_timed_wait_does_not_false_positive_deadlock_check():
    """A Wait with a timeout is a timed wait, not a deadlock."""
    sim = Simulator()
    evt = Event("never")
    log = []

    def proc():
        fired = yield Wait(evt, timeout=7)
        log.append(fired)

    sim.spawn(proc())
    sim.run(check_deadlock=True)  # resolves via timeout: no deadlock
    assert log == [TIMEOUT]


def test_real_deadlock_still_detected():
    sim = Simulator()
    evt = Event("never")

    def proc():
        yield Wait(evt)

    sim.spawn(proc())
    with pytest.raises(DeadlockError):
        sim.run(check_deadlock=True)


# ----------------------------------------------------------------------
# stats snapshot/diff helper
# ----------------------------------------------------------------------

def test_stats_delta_snapshot_and_diff():
    sim = Simulator()
    evt = Event("e")

    def phase1():
        yield WaitFor(1)
        yield WaitFor(1)

    sim.spawn(phase1())
    sim.run()
    before = sim.stats_delta()
    assert before == sim.stats

    def phase2():
        yield Notify(evt)
        yield WaitFor(1)

    sim.spawn(phase2())
    sim.run()
    diff = sim.stats_delta(before)
    assert diff["spawned"] == 1
    assert diff["notifications"] == 1
    assert diff["timer_fires"] == 1
    assert diff["steps"] == 3
    # the totals keep accumulating independently of snapshots
    assert sim.stats["spawned"] == 2
    assert sim.stats["timer_fires"] == 3
