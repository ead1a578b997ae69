"""The shared wait core: same-instant semantics, Now, data structures.

These tests pin the timeout-vs-notify resolution rules that both the
kernel and the RTOS model inherit from :mod:`repro.kernel.waitcore`:

* timers fire at the **start** of a timestep, before any process of that
  instant runs — so a TIMEOUT always beats a *process-context* notify
  issued at the same instant;
* between two timers of the same instant, **insertion order** into the
  timer queue decides — a callback notify scheduled before the wait
  armed its timeout beats the TIMEOUT, one scheduled after loses.
"""

import pytest

from repro.kernel import (
    NOW,
    TIMEOUT,
    Event,
    Notify,
    Now,
    Simulator,
    Wait,
    WaitFor,
)
from repro.kernel.oracle import FifoOracle, RecordingOracle, ScheduleOracle
from repro.kernel.waitcore import Timer, TimerQueue, WaitQueue
from repro.rtos import PERIODIC, Component, HierarchicalScheduler, RTOSModel


# ----------------------------------------------------------------------
# same-instant TIMEOUT vs notify
# ----------------------------------------------------------------------

def test_timeout_beats_process_context_notify_at_same_instant():
    """Delta-cycle pin: the timer fires before processes run at t=10."""
    sim = Simulator()
    evt = Event("e")
    log = []

    def waiter():
        fired = yield Wait(evt, timeout=10)
        log.append((sim.now, fired))

    def notifier():
        yield WaitFor(10)
        yield Notify(evt)

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert log == [(10, TIMEOUT)]
    # the notify found no waiters left — it became a pending notification
    assert evt.waiter_count == 0


def test_earlier_scheduled_callback_notify_beats_timeout():
    """A callback notify armed before the wait's timer wins the race."""
    sim = Simulator()
    evt = Event("e")
    log = []

    # scheduled first: lower timer sequence number than the timeout below
    sim.schedule_at(10, lambda: evt.fire(sim))

    def waiter():
        fired = yield Wait(evt, timeout=10)
        log.append((sim.now, fired))

    sim.spawn(waiter())
    sim.run()
    assert log == [(10, evt)]


def test_later_scheduled_callback_notify_loses_to_timeout():
    """Insertion order decides: a callback armed after the wait loses."""
    sim = Simulator()
    evt = Event("e")
    log = []

    def waiter():
        fired = yield Wait(evt, timeout=10)
        log.append((sim.now, fired))

    def arm_late():
        # runs in the same delta as the waiter but after it (spawn order),
        # so its timer lands behind the timeout in the queue
        sim.schedule_at(10, lambda: evt.fire(sim))
        return
        yield

    sim.spawn(waiter())
    sim.spawn(arm_late())
    sim.run()
    assert log == [(10, TIMEOUT)]


def test_wait_any_timeout_detaches_from_all_events():
    """A timed-out wait-any leaves no stale waiter on any of its events."""
    sim = Simulator()
    e1, e2, e3 = Event("a"), Event("b"), Event("c")
    log = []

    def waiter():
        fired = yield Wait(e1, e2, e3, timeout=5)
        log.append(fired)

    sim.spawn(waiter())
    sim.run()
    assert log == [TIMEOUT]
    assert e1.waiter_count == e2.waiter_count == e3.waiter_count == 0


def test_wait_any_wake_detaches_from_losing_events():
    sim = Simulator()
    e1, e2 = Event("a"), Event("b")
    log = []

    def waiter():
        fired = yield Wait(e1, e2, timeout=50)
        log.append((sim.now, fired.name))

    def notifier():
        yield WaitFor(7)
        yield Notify(e2)

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert log == [(7, "b")]
    assert e1.waiter_count == 0


# ----------------------------------------------------------------------
# the Now command
# ----------------------------------------------------------------------

def test_now_reads_clock_without_advancing_it():
    sim = Simulator()
    log = []

    def proc():
        t0 = yield NOW
        t1 = yield Now()
        yield WaitFor(25)
        t2 = yield NOW
        log.append((t0, t1, t2))

    sim.spawn(proc())
    sim.run()
    assert log == [(0, 0, 25)]
    assert sim.now == 25


def test_now_does_not_yield_the_processor():
    """Now is synchronous: no other process runs between two NOW reads."""
    sim = Simulator()
    log = []

    def reader():
        yield NOW
        log.append("reader-a")
        yield NOW
        log.append("reader-b")
        yield WaitFor(0)
        log.append("reader-c")

    def other():
        yield WaitFor(0)
        log.append("other")

    sim.spawn(reader())
    sim.spawn(other())
    sim.run()
    # both NOW reads complete before control ever reaches `other`
    assert log.index("reader-b") < log.index("other")


# ----------------------------------------------------------------------
# wait-core data structures
# ----------------------------------------------------------------------

class _FakeWaiter:
    def __init__(self, uid):
        self.uid = uid


def test_waitqueue_fifo_and_discard():
    q = WaitQueue()
    a, b, c = _FakeWaiter(1), _FakeWaiter(2), _FakeWaiter(3)
    q.add(a)
    q.append(b)  # list-style alias used by legacy call sites
    q.add(c)
    assert a in q and b in q
    assert len(q) == 3
    q.discard(b)
    assert b not in q
    assert q.pop_all() == [a, c]
    assert not q
    assert q.pop_all() == ()
    q.remove(a)  # discard alias: removing an absent waiter is a no-op


def _fire_all(tq):
    """Fire every live timer the way the simulator does: one instant at
    a time, dead entries skipped."""
    while (time := tq.next_time()) is not None:
        for entry in tq.pop_due_live(time):
            timer = entry[2]
            if timer.entry is entry:
                timer.entry = None
                timer.callback()


def test_timerqueue_orders_by_time_then_insertion():
    fired = []
    tq = TimerQueue()
    tq.schedule_callback(10, lambda: fired.append("second"))
    tq.schedule_callback(5, lambda: fired.append("first"))
    tq.schedule_callback(10, lambda: fired.append("third"))
    assert tq.next_time() == 5
    assert len(tq) == 3
    order = [t for (t, _, _) in sorted(tq.heap)]
    assert order == [5, 10, 10]
    _fire_all(tq)
    assert fired == ["first", "second", "third"]


def test_timerqueue_cancel_is_lazy_and_compacts():
    fired = []
    tq = TimerQueue()
    # two timers per instant, so compaction must keep insertion order
    timers = [
        tq.schedule_callback(i // 2 + 1, lambda i=i: fired.append(i))
        for i in range(200)
    ]
    for t in timers[:150]:
        tq.cancel(t)
    # compaction kicked in: dead entries were physically removed
    assert len(tq.heap) < 200
    assert tq.dead * 2 <= len(tq.heap)
    assert tq.next_time() == 76
    _fire_all(tq)
    assert fired == list(range(150, 200))


def test_waitqueue_pop_all_single_waiter_fast_path():
    """The dominant wake shape (one waiter) detaches without building a
    list — and, regression for the copy-elision change, still returns
    the waiter exactly once and empties the queue."""
    q = WaitQueue()
    a = _FakeWaiter(1)
    q.add(a)
    woken = q.pop_all()
    assert tuple(woken) == (a,)
    assert not q
    assert q.pop_all() == ()


def test_waitqueue_pop_all_preserves_fifo_wake_order():
    """Wake order is enrollment order, also after mid-queue detaches
    (regression pin for the pop_all/iteration copy elision)."""
    q = WaitQueue()
    waiters = [_FakeWaiter(i) for i in range(6)]
    for w in waiters:
        q.add(w)
    q.discard(waiters[2])
    q.discard(waiters[4])
    expected = [waiters[0], waiters[1], waiters[3], waiters[5]]
    assert list(q.pop_all()) == expected
    assert not q


def test_waitqueue_iter_is_fifo_and_copy_free():
    """``__iter__`` yields enrolled waiters in FIFO order; it is a live
    view (no snapshot list), so re-enrolling after a wholesale swap must
    go through a fresh queue — exactly what the kernel does."""
    q = WaitQueue()
    waiters = [_FakeWaiter(i) for i in range(4)]
    for w in waiters:
        q.add(w)
    assert list(q) == waiters
    # iterating twice sees the same order (the view is re-created)
    assert list(q) == waiters
    # a detach between iterations is visible — it is a view, not a copy
    q.discard(waiters[1])
    assert list(q) == [waiters[0], waiters[2], waiters[3]]


# ----------------------------------------------------------------------
# re-arming a member of a same-instant cohort (oracle-armed firing)
# ----------------------------------------------------------------------

class _LastChoice(ScheduleOracle):
    def choose(self, point):
        return len(point.choices) - 1


def _cohort_run(style, action, inner):
    """Timers ``a``, ``b``, ``c`` are due at t=10; ``a``'s callback
    moves ``b`` (to 15, or within the instant, relabeled ``b2``) or
    cancels it. ``rearm`` moves one owned timer in place;
    ``reschedule`` cancels ``b`` and schedules a new timer instead."""
    sim = Simulator()
    recorder = sim.install_oracle(RecordingOracle(inner()))
    fired = []
    timers = {}

    def fire(name):
        return lambda: fired.append((name, sim.now))

    def a():
        fired.append(("a", sim.now))
        b = timers["b"]
        if action == "cancel":
            sim.cancel_scheduled(b)
            return
        when = 15 if action == "later" else sim.now
        if style == "rearm":
            b.label = "b2"
            sim.rearm(b, when)
        else:
            sim.cancel_scheduled(b)
            timers["b"] = sim.schedule_at(when, fire("b"), label="b2")

    sim.schedule_at(10, a, label="a")
    if style == "rearm":
        timers["b"] = Timer(fire("b"), label="b")
        sim.rearm(timers["b"], 10)
    else:
        timers["b"] = sim.schedule_at(10, fire("b"), label="b")
    sim.schedule_at(10, fire("c"), label="c")
    sim.run()
    assert sim._timers.heap == []
    assert sim._timers.dead == 0
    return fired, recorder.steps, sim.stats["timer_fires"]


@pytest.mark.parametrize("inner", [FifoOracle, _LastChoice],
                         ids=["fifo", "last"])
@pytest.mark.parametrize("action", ["later", "same_instant", "cancel"])
def test_moving_a_detached_cohort_member_matches_reschedule(action, inner):
    fired, steps, fires = _cohort_run("rearm", action, inner)
    assert (fired, steps, fires) == _cohort_run("reschedule", action, inner)
    names = [name for name, _ in fired]
    if inner is FifoOracle:
        # the moved member is still offered, under the label it had,
        # and skipped when chosen; its new arm fires once
        assert [step["choices"] for step in steps] == [
            ["a", "b", "c"], ["b", "c"],
        ]
        assert names.count("b") == (0 if action == "cancel" else 1)
    assert fires == len(fired)


# ----------------------------------------------------------------------
# one timer per owner: RTOS runs allocate no timer per arm
# ----------------------------------------------------------------------

def _armed_rtos_run(kind, horizon):
    """Three periodic tasks, ``b`` also waiting on an event with a
    timeout every cycle; no interrupts are pre-scheduled. ``flat`` and
    ``hier`` watch every task with a deadline and a budget watchdog,
    ``hier`` serves them from two budget servers; under ``mc`` task
    ``c`` overruns its LO budget every cycle, so the LO tasks are
    dropped and the recovery check keeps being pushed out."""
    sim = Simulator()
    sim.trace.enabled = False
    sched = "priority"
    if kind == "hier":
        sched = HierarchicalScheduler([
            Component("a", 40, 100, priority=0),
            Component("b", 30, 100, priority=1),
        ])
    os_ = RTOSModel(sim, sched=sched, preemption="immediate")
    if kind == "mc":
        os_.mc_configure(degrade="drop", recovery_window=250)
    evt = os_.event_new("tick")
    for name, period, exec_time, priority in (
        ("a", 100, 20, 1), ("b", 150, 25, 2), ("c", 200, 10, 3),
    ):
        if kind == "mc":
            hi = name == "c"
            task = os_.task_create(
                name, PERIODIC, period, [5, 30] if hi else exec_time,
                priority=priority, criticality="HI" if hi else "LO",
            )
        else:
            task = os_.task_create(name, PERIODIC, period, exec_time,
                                   priority=priority)
            os_.task_watch(task, budget=exec_time + 5)
        if kind == "hier":
            sched.assign(task, "a" if name == "a" else "b")

        def body(name=name, exec_time=exec_time):
            while True:
                if name == "b":
                    yield from os_.event_wait(evt, timeout=7)
                yield from os_.time_wait(exec_time)
                yield from os_.task_endcycle()

        sim.spawn(os_.task_body(task, body()), name=name)

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=horizon)
    return os_


@pytest.mark.parametrize("kind", ["flat", "hier", "mc"])
def test_rtos_timer_allocations_do_not_grow_with_the_horizon(
        monkeypatch, kind):
    created = []
    init = Timer.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Timer, "__init__", counting_init)
    counts = []
    for horizon in (3_000, 6_000):
        del created[:]
        os_ = _armed_rtos_run(kind, horizon)
        counts.append(len(created))
    # the longer run did arm more timers: releases, watchdogs, servers
    assert os_.metrics.dispatches > 60
    if kind == "mc":
        assert os_.metrics.mode_raises >= 1
        assert os_.metrics.jobs_degraded > 0
    assert counts[0] == counts[1]
