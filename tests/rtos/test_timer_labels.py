"""Every RTOS-layer timer keeps its label.

Timer labels name same-instant timer choices in recorded schedules,
deadlock paths and explorer fingerprints. Some timer kinds rarely share
an instant with another timer, so recorded schedules seldom show them.
Each case below arms one kind in a small model and checks the label the
explorer fingerprint lists for it while it is pending.
"""

import pytest

from repro.explore.fingerprint import _timer_entries
from repro.kernel import Simulator, WaitFor
from repro.rtos import APERIODIC, PERIODIC, Component, HierarchicalScheduler
from repro.rtos import RTOSModel


def _pending_labels(sim, horizon, seen):
    """Run to ``horizon`` one time unit at a time, collecting the labels
    of the timers pending after each instant."""
    for until in range(horizon + 1):
        sim.run(until=until)
        seen.update(label for _, label in _timer_entries(sim))
    return seen


def _boot(sim, os_, seen):
    """Unlock the scheduler after t=0's activations; note the timers
    pending right after ``start`` (the deferred dispatch)."""

    def boot():
        yield WaitFor(0)
        os_.start()
        seen.update(label for _, label in _timer_entries(sim))

    sim.spawn(boot(), name="boot")


def _spawn(os_, name, body, tasktype=APERIODIC, period=0, wcet=1,
           priority=1, **kwargs):
    task = os_.task_create(name, tasktype, period, wcet, priority=priority,
                           **kwargs)
    os_.sim.spawn(os_.task_body(task, body()), name=name)
    return task


def _busy(os_, exec_time, cycles=None):
    """Periodic body: ``exec_time`` per cycle; aperiodic when
    ``cycles`` is None (one job, then terminate)."""

    def body():
        if cycles is None:
            yield from os_.time_wait(exec_time)
            return
        for _ in range(cycles):
            yield from os_.time_wait(exec_time)
            yield from os_.task_endcycle()

    return body


def _flat(preemption="step"):
    sim = Simulator()
    sim.trace.enabled = False
    return sim, RTOSModel(sim, preemption=preemption, name="pe.os")


def dispatch_model():
    sim, os_ = _flat()
    _spawn(os_, "t", _busy(os_, 10))
    return sim, os_, 20


def release_model():
    sim, os_ = _flat()
    _spawn(os_, "t", _busy(os_, 10, cycles=3), PERIODIC, period=100)
    return sim, os_, 150


def event_timeout_model():
    sim, os_ = _flat()
    evt = os_.event_new("never")

    def body():
        yield from os_.event_wait(evt, timeout=40)

    _spawn(os_, "waiter", body)
    return sim, os_, 50


def deadline_watchdog_model():
    sim, os_ = _flat()
    task = _spawn(os_, "t", _busy(os_, 10, cycles=2), PERIODIC, period=100)
    os_.task_watch(task)
    return sim, os_, 150


def budget_watchdog_model():
    sim, os_ = _flat()
    task = _spawn(os_, "t", _busy(os_, 30), wcet=30)
    os_.task_watch(task, budget=50)
    return sim, os_, 40


def _mc(recovery_window=None):
    """A LO task dropped after a HI task overruns its LO budget."""
    sim, os_ = _flat(preemption="immediate")
    os_.mc_configure(degrade="drop", recovery_window=recovery_window)
    _spawn(os_, "lo", _busy(os_, 5, cycles=4), PERIODIC, period=50,
           wcet=5, priority=1, criticality="LO")
    _spawn(os_, "hi", _busy(os_, 20, cycles=2), PERIODIC, period=200,
           wcet=[10, 30], priority=2, criticality="HI")
    return sim, os_


def mc_chain_model():
    sim, os_ = _mc()
    return sim, os_, 120


def mc_recovery_model():
    sim, os_ = _mc(recovery_window=500)
    return sim, os_, 120


def _hier(*components, preemption="immediate"):
    sim = Simulator()
    sim.trace.enabled = False
    sched = HierarchicalScheduler(components)
    os_ = RTOSModel(sim, sched=sched, preemption=preemption, name="pe.os")
    return sim, os_, sched


def _hier_task(os_, sched, comp, name, body, priority=1):
    task = _spawn(os_, name, body, priority=priority)
    sched.assign(task, comp)
    return task


def exhaust_on_dispatch_model():
    comp = Component("b", 20, 100)
    sim, os_, sched = _hier(comp)
    _hier_task(os_, sched, comp, "t", _busy(os_, 10))
    return sim, os_, 20


def exhaust_rearm_model():
    # ``t`` is dispatched at 90 with the whole budget of window 0; when
    # its exhaustion timer fires at 120, window 1 (from 100) has budget
    # left, so the timer re-arms from ``_exhausted``
    top = Component("a", None, None, priority=0)
    comp = Component("b", 30, 100, priority=1)
    sim, os_, sched = _hier(top, comp)
    _hier_task(os_, sched, top, "hog", _busy(os_, 90))
    _hier_task(os_, sched, comp, "t", _busy(os_, 200))
    return sim, os_, 135


def replenish_model():
    comp = Component("b", 20, 100)
    sim, os_, sched = _hier(comp)
    _hier_task(os_, sched, comp, "t", _busy(os_, 50))
    return sim, os_, 110


CASES = {
    "dispatch": (dispatch_model, "dispatch:pe.os"),
    "release": (release_model, "TaskManager.endcycle.<locals>.<lambda>"),
    "event_timeout": (event_timeout_model, "timeout:waiter"),
    "deadline_watchdog": (
        deadline_watchdog_model,
        "FailureMonitor._arm_deadline.<locals>.<lambda>",
    ),
    "budget_watchdog": (
        budget_watchdog_model,
        "FailureMonitor._arm_budget.<locals>.<lambda>",
    ),
    "mc_chain": (
        mc_chain_model, "MCController.suppress_release.<locals>.<lambda>",
    ),
    "mc_recovery": (mc_recovery_model, "MCController._recovery_check"),
    "exhaust_on_dispatch": (
        exhaust_on_dispatch_model,
        "HierarchicalScheduler.on_dispatch.<locals>.<lambda>",
    ),
    "exhaust_rearm": (
        exhaust_rearm_model,
        "HierarchicalScheduler._exhausted.<locals>.<lambda>",
    ),
    "replenish": (
        replenish_model,
        "HierarchicalScheduler._ensure_replenish.<locals>.<lambda>",
    ),
}


#: the label of every RTOS-layer timer kind
RTOS_LABELS = {label for _, label in CASES.values()}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_timer_kind_keeps_its_label(kind):
    build, label = CASES[kind]
    sim, os_, horizon = build()
    seen = set()
    _boot(sim, os_, seen)
    # resume timers are named after their process
    processes = {process.name for process in sim._live}
    _pending_labels(sim, horizon, seen)
    assert label in seen
    assert seen <= RTOS_LABELS | processes
