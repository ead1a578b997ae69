"""Mixed-criticality mode controller tests (:mod:`repro.rtos.mc`).

The scenario shared by most tests: two LO tasks (period 100, wcet 10)
under a HI task (period 200, ``wcet=[30, 80]``) whose second job
deliberately executes 80 — blowing the LO-mode budget of 30 at t=251.
The controller must raise the mode, re-budget the HI task, degrade the
LO tasks by the configured policy, and (with a recovery window) step
back down after an overrun-free window. Everything is deterministic.
"""

import inspect

import pytest

from repro.kernel import Simulator, WaitFor
from repro.rtos import PERIODIC, RTOSModel
from repro.rtos.errors import RTOSError
from repro.rtos.mc import LEVELS, MCController


def mode_transitions(trace):
    """``(time, prev, level, trigger)`` of every raise/recover record."""
    return [
        (r.time, r.data["prev"], r.data["level"], r.data.get("trigger"))
        for r in trace.by_category("mode") if r.info in ("raise", "recover")
    ]


def run_mc(degrade="drop", recovery_window=None, horizon=1_000):
    """The canonical overrun scenario; returns (os_, tasks, cycles, events)
    with ``events`` the mode transitions read from the trace."""
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority", preemption="immediate")
    os_.mc_configure(degrade=degrade, recovery_window=recovery_window)
    lo1 = os_.task_create("lo1", PERIODIC, 100, 10, priority=1,
                          criticality="LO")
    lo2 = os_.task_create("lo2", PERIODIC, 100, 10, priority=2,
                          criticality="LO")
    hi = os_.task_create("hi", PERIODIC, 200, [30, 80], priority=3,
                         criticality="HI")
    cycles = {"lo1": 0, "lo2": 0, "hi": 0}

    def lo_body(name):
        while True:
            yield from os_.time_wait(10)
            cycles[name] += 1
            yield from os_.task_endcycle()

    def hi_body():
        n = 0
        while True:
            n += 1
            # job 2 is the overrun: 80 > the LO-mode budget of 30
            yield from os_.time_wait(80 if n == 2 else 30)
            cycles["hi"] += 1
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(lo1, lo_body("lo1")), name="lo1")
    sim.spawn(os_.task_body(lo2, lo_body("lo2")), name="lo2")
    sim.spawn(os_.task_body(hi, hi_body()), name="hi")

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=horizon)
    return os_, (lo1, lo2, hi), cycles, mode_transitions(sim.trace)


# ----------------------------------------------------------------------
# mode raising and degradation policies
# ----------------------------------------------------------------------

@pytest.mark.usefixtures("kernel_engine")
def test_overrun_raises_mode_and_shields_hi():
    os_, (lo1, lo2, hi), cycles, events = run_mc(degrade="drop")
    # the second HI job blows its LO budget at t = 200 + 10 + 10 + 31
    assert events == [(251, "LO", "HI", "hi")]
    assert os_.mc_mode() == "HI"
    assert os_.metrics.mode_raises == 1
    assert os_.metrics.mode_recoveries == 0
    monitor = os_.monitor
    # exactly one overrun sensed, and the HI task was re-budgeted to 80
    assert monitor.overrun_counts.get(hi.uid, 0) == 1
    assert monitor.budgets[hi.uid] == 80
    # the raise shields the HI task: zero deadline misses end to end
    assert monitor.miss_counts.get(hi.uid, 0) == 0
    assert cycles["hi"] == 5


@pytest.mark.parametrize("kernel_engine", ["reference"])
@pytest.mark.parametrize("degrade,lo_cycles,degraded", [
    ("drop", 3, 16),      # every LO release after the raise is swallowed
    ("skip", 6, 8),       # every 2nd release still runs (DEGRADE_FACTOR)
    ("elastic", 7, 8),    # spacing stretched to period * DEGRADE_FACTOR
])
def test_degradation_policies(kernel_engine, degrade, lo_cycles, degraded):
    os_, _, cycles, events = run_mc(degrade=degrade)
    assert events == [(251, "LO", "HI", "hi")]
    assert cycles["lo1"] == lo_cycles
    assert cycles["lo2"] == lo_cycles
    assert cycles["hi"] == 5
    assert os_.metrics.jobs_degraded == degraded


@pytest.mark.usefixtures("kernel_engine")
def test_recovery_hysteresis():
    os_, (lo1, lo2, hi), cycles, events = run_mc(
        degrade="drop", recovery_window=400
    )
    # raise at 251, then 400 overrun-free time units step the mode back
    assert events == [(251, "LO", "HI", "hi"), (651, "HI", "LO", None)]
    assert os_.mc_mode() == "LO"
    assert os_.metrics.mode_raises == 1
    assert os_.metrics.mode_recoveries == 1
    # recovery restores the optimistic budget...
    assert os_.monitor.budgets[hi.uid] == 30
    # ...and the LO tasks resume on the original period grid
    assert cycles["lo1"] == 6
    assert os_.monitor.miss_counts.get(hi.uid, 0) == 0


def test_sticky_without_recovery_window():
    os_, _, _, events = run_mc(recovery_window=None, horizon=2_000)
    assert len(events) == 1  # one raise, never steps back down
    assert os_.mc_mode() == "HI"


def test_mode_trace_records_raise_degrade_and_recover():
    os_, _, _, _ = run_mc(degrade="drop", recovery_window=400)
    kinds = [r.info for r in os_.sim.trace if r.category == "mode"]
    assert "raise" in kinds and "recover" in kinds and "degrade" in kinds


# ----------------------------------------------------------------------
# configuration surface and validation
# ----------------------------------------------------------------------

def test_unarmed_model_reports_no_mode():
    sim = Simulator()
    os_ = RTOSModel(sim)
    assert os_.mc is None
    assert os_.mc_mode() is None


def test_task_create_wcet_vector_arms_mc_lazily():
    sim = Simulator()
    os_ = RTOSModel(sim)
    task = os_.task_create("hi", PERIODIC, 200, [30, 80], criticality="HI")
    assert os_.mc is not None
    assert task.criticality == "HI"
    assert task.wcet_levels == (30, 80)
    assert task.wcet == 30  # the TCB scalar is the base-level budget
    # above-base tasks get the budget watchdog at the current-mode level
    assert os_.monitor.budgets[task.uid] == 30


def test_configure_twice_raises():
    sim = Simulator()
    os_ = RTOSModel(sim)
    os_.mc_configure()
    with pytest.raises(RTOSError, match="already configured"):
        os_.mc_configure()


@pytest.mark.parametrize("kwargs,match", [
    (dict(degrade="DROP"), "unknown degradation policy"),
    (dict(recovery_window=-5), "recovery_window"),
    (dict(degrade="explode"), "unknown degradation policy"),
    (dict(recovery_window=0), "recovery_window"),
])
def test_bad_configuration_rejected(kwargs, match):
    sim = Simulator()
    os_ = RTOSModel(sim)
    with pytest.raises(RTOSError, match=match):
        os_.mc_configure(**kwargs)


def test_configure_takes_degrade_and_recovery_window_only():
    params = inspect.signature(RTOSModel.mc_configure).parameters
    assert list(params) == ["self", "degrade", "recovery_window"]
    assert not hasattr(RTOSModel, "on_mode_change")
    assert not hasattr(MCController, "on_mode_change")


def test_decreasing_wcet_vector_rejected():
    sim = Simulator()
    os_ = RTOSModel(sim)
    with pytest.raises(RTOSError, match="non-decreasing"):
        os_.task_create("t", PERIODIC, 100, [80, 30], criticality="HI")
    assert os_.tasks == [] and os_.mc is None  # nothing half-created


@pytest.mark.parametrize("criticality,wcet", [
    ("HI", [10, 20, 30]),
    ("LO", [10, 10, 10, 10]),
])
def test_more_than_two_budgets_rejected(criticality, wcet):
    sim = Simulator()
    os_ = RTOSModel(sim)
    with pytest.raises(RTOSError, match="at most one wcet budget per level"):
        os_.task_create("x", PERIODIC, 100, wcet, criticality=criticality)
    assert os_.tasks == [] and os_.mc is None
    # the refused task's name stays free
    task = os_.task_create("x", PERIODIC, 100, [10, 20], criticality="HI")
    assert task.wcet_levels == (10, 20)


def test_single_budget_stands_for_both_levels():
    sim = Simulator()
    os_ = RTOSModel(sim)
    task = os_.task_create("t", PERIODIC, 100, [7], criticality="HI")
    assert task.wcet_levels == (7, 7)


def test_unknown_criticality_rejected():
    sim = Simulator()
    os_ = RTOSModel(sim)
    with pytest.raises(RTOSError, match="unknown criticality"):
        os_.task_create("t", PERIODIC, 100, 10, criticality="ULTRA")
    assert os_.tasks == [] and os_.mc is None


def test_default_lattice_is_lo_hi():
    assert LEVELS == ("LO", "HI")
    sim = Simulator()
    os_ = RTOSModel(sim)
    mc = os_.mc_configure()
    assert mc.snapshot()["levels"] == ["LO", "HI"]
    assert mc.mode == "LO"
    assert "MCController" in repr(mc)


def test_snapshot_shape():
    os_, (lo1, lo2, hi), _, _ = run_mc(degrade="skip")
    snap = os_.mc.snapshot()
    assert snap["mode"] == "HI"
    assert snap["degrade"] == "skip"
    assert snap["mode_raises"] == 1
    assert snap["tasks"]["hi"]["criticality"] == "HI"
    assert snap["tasks"]["hi"]["wcet_levels"] == [30, 80]
    assert snap["tasks"]["lo1"]["degraded"] is True
    assert snap["tasks"]["hi"]["degraded"] is False


def test_init_resets_mode_and_counters():
    os_, _, _, _ = run_mc(degrade="drop")
    assert os_.mc.mode_index == 1
    os_.init()
    assert os_.mc.mode == "LO"
    assert all(i.attempts == 0 for i in os_.mc._by_uid.values())


# ----------------------------------------------------------------------
# direct registration
# ----------------------------------------------------------------------

def test_register_requires_positive_budgets():
    sim = Simulator()
    os_ = RTOSModel(sim)
    mc = os_.mc_configure()
    task = os_.task_create("t", PERIODIC, 100, 10)
    with pytest.raises(RTOSError, match="positive"):
        mc.register(task, "HI", (0, 5))


def test_controller_requires_model():
    sim = Simulator()
    os_ = RTOSModel(sim)
    mc = MCController(os_)
    task = os_.task_create("t", PERIODIC, 100, 10)
    assert mc.register(task, "HI", (10, 40)) is task
    assert mc.snapshot()["tasks"]["t"]["wcet_levels"] == [10, 40]
    with pytest.raises(RTOSError, match="unknown criticality"):
        mc.register(task, "NOPE")
