"""Disabled tracing at the RTOS and platform record sites.

``trace.enabled = False`` sets two things at once: the plain flag
``Trace.on``, which the record sites that run once per job or more
often test first, and the swap of ``record``/``segment`` for ``_noop``,
which every other caller goes through. The first tests check that an
untraced run calls no recorder from :mod:`repro.rtos` or
:mod:`repro.platform`; the last two that the flag and the swap agree,
also when tracing is switched in the middle of a run.
"""

import collections
import sys

import pytest

from repro.apps import fig3
from repro.kernel import TIMEOUT, Simulator, WaitFor
from repro.kernel.trace import ListSink, Trace, _noop
from repro.platform import InterruptController, IrqLine
from repro.rtos import (
    APERIODIC,
    PERIODIC,
    Component,
    HierarchicalScheduler,
    RTOSModel,
)

_RECORDERS = {Trace.record.__code__, Trace.segment.__code__, _noop.__code__}
_LAYERS = ("repro.rtos.", "repro.platform.")


def _recorder_calls(sim, until):
    """Run ``sim`` until ``until`` and count, per calling function, the
    recorder calls made from the RTOS and platform packages."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in _RECORDERS:
            caller = frame.f_back
            module = caller.f_globals.get("__name__", "")
            if module.startswith(_LAYERS):
                calls[f"{module}.{caller.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        sim.run(until=until)
    finally:
        sys.setprofile(None)
    return calls


def _untraced(sched, preemption):
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched=sched, preemption=preemption, name="cpu.os")
    return sim, os_


def _periodic(os_, task, step, steps):
    def body():
        while True:
            for _ in range(steps):
                yield from os_.time_wait(step)
            yield from os_.task_endcycle()

    return os_.task_body(task, body())


def _boot(sim, os_):
    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")


def _irq_taskset(preemption):
    """Three periodic tasks (utilization 1.1, so the lowest misses) and
    an IRQ-driven handler task woken through an RTOS event."""
    sim, os_ = _untraced("priority", preemption)
    for rank, (period, step) in enumerate([(400, 40), (700, 70), (1000, 60)]):
        name = f"t{rank}"
        task = os_.task_create(name, PERIODIC, period, 4 * step,
                               priority=rank + 1)
        sim.spawn(_periodic(os_, task, step, 4), name=name)
    event = os_.event_new("irq-data")
    handler = os_.task_create("handler", APERIODIC, 0, 30, priority=0)

    def handler_body():
        while True:
            yield from os_.event_wait(event)
            yield from os_.time_wait(30)

    sim.spawn(os_.task_body(handler, handler_body()), name="handler")
    line = IrqLine(sim, "irq0")

    def isr():
        yield from os_.event_notify(event)
        os_.interrupt_return()

    InterruptController(sim, "cpu.pic").register(line, isr)
    for at in range(130, 20_000, 330):
        sim.schedule_at(at, line.raise_irq)
    _boot(sim, os_)
    return sim, os_, handler


@pytest.mark.parametrize("preemption", ["step", "immediate"])
def test_untraced_taskset_calls_no_recorder(preemption):
    sim, os_, handler = _irq_taskset(preemption)
    calls = _recorder_calls(sim, 20_000)
    snap = os_.metrics.snapshot(sim.now)
    # every hot site was reached: dispatch, switch, segment, release,
    # miss, preemption, event wait/notify and the IRQ path
    assert snap["context_switches"] > 100
    assert snap["preemptions"] > 10
    assert snap["deadline_misses"] > 0
    assert snap["interrupts"] > 50
    assert handler.stats.dispatches > 50
    assert calls == {}


def test_untraced_budget_throttle_calls_no_recorder():
    """A one-PE hierarchical system whose server throttles under
    immediate preemption (the preempt names the server)."""
    sim = Simulator()
    sim.trace.enabled = False
    comp_a = Component("A", budget=600, period=1000, priority=0)
    comp_b = Component("B", budget=400, period=1000, priority=1)
    sched = HierarchicalScheduler([comp_a, comp_b], top="priority")
    os_ = RTOSModel(sim, sched=sched, preemption="immediate", name="pe.os")
    hog = os_.task_create("hog", PERIODIC, 1000, 900)
    lite = os_.task_create("lite", PERIODIC, 1000, 300)
    sched.assign(hog, comp_a)
    sched.assign(lite, comp_b)
    sim.spawn(_periodic(os_, hog, 300, 3), name="hog")
    sim.spawn(_periodic(os_, lite, 100, 3), name="lite")
    _boot(sim, os_)
    calls = _recorder_calls(sim, 10_000)
    assert comp_a.stats.throttles >= 5
    assert hog.stats.preemptions >= 5
    assert calls == {}


def test_untraced_event_timeouts_call_no_recorder():
    """Timed single and multi-event waits that expire."""
    sim, os_ = _untraced("priority", "step")
    first, second = os_.event_new("a"), os_.event_new("b")
    waiter = os_.task_create("waiter", APERIODIC, 0, 0)
    woke = []

    def body():
        while True:
            woke.append((yield from os_.event_wait(first, timeout=50)))
            woke.append(
                (yield from os_.event_wait_any([first, second], timeout=70)))
            yield from os_.time_wait(10)

    sim.spawn(os_.task_body(waiter, body()), name="waiter")
    _boot(sim, os_)
    calls = _recorder_calls(sim, 2_000)
    assert len(woke) > 20 and set(woke) == {TIMEOUT}
    assert calls == {}


# ----------------------------------------------------------------------
# the flag and the swap agree
# ----------------------------------------------------------------------

def _assert_agree(trace):
    """``on`` equals ``enabled``; the no-op swap is in place exactly
    when tracing is off."""
    off = not trace.enabled
    assert trace.on is trace.enabled
    assert (trace.record is _noop) is off
    assert (trace.segment is _noop) is off


#: switch-off and switch-on instants of the Figure-8 architecture run;
#: nothing records at either
OFF, ON = 200, 550


def test_switching_mid_run_keeps_records_outside_the_window(monkeypatch):
    full = fig3.run_architecture().trace.records
    assert not [r for r in full if r.time in (OFF, ON)]
    window = [r for r in full if OFF < r.time < ON]
    # the window holds records of guarded RTOS/platform sites and of
    # unguarded ones (app marks, the bus)
    assert {"sched", "exec", "irq"} <= {r.category for r in window}
    assert {"user", "chan"} <= {r.category for r in window}

    def switch(trace, value):
        trace.enabled = value
        _assert_agree(trace)

    class SwitchingSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.schedule_at(OFF, lambda: switch(self.trace, False))
            self.schedule_at(ON, lambda: switch(self.trace, True))

    monkeypatch.setattr(fig3, "Simulator", SwitchingSimulator)
    kept = fig3.run_architecture().trace.records
    assert kept == [r for r in full if not OFF < r.time < ON]


@pytest.mark.parametrize("enabled", [True, False, 0, 1])
def test_flag_follows_enabled_through_sink_and_clear(enabled):
    trace = Trace()
    _assert_agree(trace)
    trace.enabled = enabled
    _assert_agree(trace)
    trace.record(0, "user", "a", "m")
    trace.sink = ListSink()
    _assert_agree(trace)
    trace.record(1, "user", "a", "m")
    trace.segment("a", 0, 1)
    assert len(trace) == (2 if enabled else 0)
    trace.clear()
    _assert_agree(trace)
    assert len(trace) == 0
    trace.enabled = not enabled
    _assert_agree(trace)
