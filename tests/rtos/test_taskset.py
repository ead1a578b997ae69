"""The periodic task-set builder and the boot process.

:func:`~repro.rtos.taskset.spawn_periodic` turns analysis specs into
running tasks: a ``TaskSpec`` is a plain task, an ``MCTaskSpec`` is
enrolled with the mode controller when the model has one and is a
``log``-watched plain task when it has none. :func:`periodic_body`
splits each job into delay steps, and ``RTOSModel.spawn_boot`` starts
scheduling once the t=0 activations have settled.
"""

import pytest

from repro.analysis.schedulability import MCTaskSpec, TaskSpec
from repro.kernel import Simulator
from repro.rtos import RTOSError, RTOSModel, TaskState
from repro.rtos.taskset import periodic_body, spawn_periodic


def _model(mc=False):
    sim = Simulator()
    os_ = RTOSModel(sim, preemption="immediate")
    if mc:
        os_.mc_configure()
    return sim, os_


class _StubOS:
    """Records the delays and cycle ends a body asks for."""

    def __init__(self):
        self.calls = []

    def time_wait(self, delay):
        self.calls.append(delay)
        yield

    def task_endcycle(self):
        self.calls.append("end")
        yield


def _first_calls(exec_time, step, count):
    os_ = _StubOS()
    body = periodic_body(os_, exec_time, step)
    for _ in range(count):
        next(body)
    return os_.calls


def test_body_splits_each_job_into_steps():
    assert _first_calls(25, 10, 8) == [10, 10, 5, "end", 10, 10, 5, "end"]
    assert _first_calls(20, 10, 3) == [10, 10, "end"]
    assert _first_calls(25, None, 4) == [25, "end", 25, "end"]


def test_task_spec_is_a_plain_task_even_under_a_mode_controller():
    _, os_ = _model(mc=True)
    (task,) = spawn_periodic(os_, [TaskSpec("t", 100, 10, priority=1)])
    assert (task.name, task.period, task.wcet, task.priority) == (
        "t", 100, 10, 1)
    assert task.criticality is None and task.wcet_levels is None
    assert os_.monitor is None


def test_mc_spec_enrolls_at_its_criticality():
    _, os_ = _model(mc=True)
    lo, hi = spawn_periodic(os_, [
        MCTaskSpec("lo", 100, 10, priority=1),
        MCTaskSpec("hi", 200, 20, 40, criticality="HI", priority=2),
    ])
    assert (lo.criticality, lo.wcet_levels, lo.wcet) == ("LO", (10, 10), 10)
    assert (hi.criticality, hi.wcet_levels, hi.wcet) == ("HI", (20, 40), 20)
    # the HI task's budget watchdog is the mode controller's sensor
    assert os_.monitor.budgets == {hi.uid: 20}
    assert os_.monitor.policies == {lo.uid: "log", hi.uid: "log"}


def test_mc_spec_without_a_mode_controller_is_a_watched_plain_task():
    _, os_ = _model()
    (task,) = spawn_periodic(os_, [
        MCTaskSpec("hi", 200, 20, 40, criticality="HI", priority=1),
    ])
    assert os_.mc is None
    assert (task.wcet, task.criticality, task.wcet_levels) == (20, None, None)
    assert os_.monitor.policies == {task.uid: "log"}
    assert os_.monitor.budgets == {}


def test_deadline_is_passed_only_where_it_differs_from_the_period():
    _, os_ = _model()
    short, implicit, mc_short = spawn_periodic(os_, [
        TaskSpec("short", 100, 10, deadline=80),
        TaskSpec("implicit", 100, 10),
        MCTaskSpec("mc_short", 100, 10, deadline=60),
    ])
    assert short.rel_deadline == 80
    assert implicit.rel_deadline is None
    assert mc_short.rel_deadline == 60


def test_overrun_runs_hi_tasks_at_wcet_hi_only():
    sim, os_ = _model()
    lo, hi = spawn_periodic(os_, [
        MCTaskSpec("lo", 100, 10, 30, priority=1),
        MCTaskSpec("hi", 200, 20, 40, criticality="HI", priority=2),
    ], overrun=True)
    os_.spawn_boot()
    sim.run(until=200)
    # two LO jobs at wcet_lo, though its wcet_hi is larger; one HI job
    # at wcet_hi, finishing after the first LO job
    assert lo.stats.exec_time == 20
    assert hi.stats.exec_time == 40
    assert hi.stats.response_times == [50]


def test_boot_starts_scheduling_after_the_t0_activations():
    sim, os_ = _model()
    seen = []
    start = os_.start

    def spy():
        seen.append((sim.now, [task.state for task in os_.tasks]))
        start()

    os_.start = spy
    boot = os_.spawn_boot()  # spawned before the tasks, still runs after
    low, high = spawn_periodic(os_, [
        TaskSpec("low", 100, 10, priority=2),
        TaskSpec("high", 100, 20, priority=1),
    ])
    sim.run(until=100)
    assert boot.name == "boot"
    assert seen == [(0, [TaskState.READY, TaskState.READY])]
    assert high.stats.response_times == [20]
    assert low.stats.response_times == [30]


def test_non_positive_step_is_rejected_before_the_run():
    # a job of zero-length steps would spin in time_wait(0) forever
    for step in (0, -5):
        sim, os_ = _model()
        with pytest.raises(RTOSError, match="delay step must be > 0"):
            spawn_periodic(os_, [TaskSpec("t", 100, 10, priority=1)],
                           step=step)
        assert os_.tasks == [] and sim.stats["spawned"] == 0
        with pytest.raises(RTOSError, match="delay step must be > 0"):
            periodic_body(os_, 10, step)
    sim, os_ = _model()
    (task,) = spawn_periodic(os_, [TaskSpec("t", 100, 10, priority=1)],
                             step=1)
    assert task.name == "t"


def test_entry_points_reject_a_non_positive_granularity():
    from repro.farm.workloads import fault_campaign_run, periodic_taskset_run
    from repro.faults.campaign import run_campaign_point

    for run in (periodic_taskset_run, run_campaign_point, fault_campaign_run):
        with pytest.raises(RTOSError, match="delay step must be > 0"):
            run(granularity=0)
