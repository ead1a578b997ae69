"""Task management: creation, activation, termination, sleep, kill, par."""

import pytest

from repro.kernel import Par, Simulator, WaitFor
from repro.rtos import (
    APERIODIC,
    PERIODIC,
    RTOSError,
    RTOSModel,
    TaskState,
)
from tests.rtos.conftest import Harness


def test_serialization_delays_accumulate():
    """Two equal-priority tasks on one RTOS: their delays must add up
    (serialized execution), unlike the overlapping unscheduled model."""
    bench = Harness(sched="fifo")

    def body(task):
        def _b():
            yield from bench.os.time_wait(100)
            bench.mark(task.name)

        return _b()

    a = bench.task("a", lambda t: body(t))
    b = bench.task("b", lambda t: body(t))
    bench.run()
    # FIFO: a runs [0,100), b runs [100,200)
    assert bench.log == [("a", 100), ("b", 200)]


def test_task_create_validations():
    sim = Simulator()
    os_ = RTOSModel(sim)
    with pytest.raises(RTOSError):
        os_.task_create("x", 99, 0, 0)
    with pytest.raises(RTOSError):
        os_.task_create("p", PERIODIC, 0, 0)


def test_duplicate_live_task_name_rejected():
    # two live tasks named "w" used to share one span/report/snapshot row
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority")
    os_.task_create("w", PERIODIC, 100, 30, priority=0)
    with pytest.raises(RTOSError, match="'w' is taken"):
        os_.task_create("w", PERIODIC, 150, 40, priority=1)
    assert [t.name for t in os_.tasks] == ["w"]


def test_task_name_free_after_terminate_kill_and_init():
    bench = Harness()
    evt = bench.os.event_new("evt")

    def done(task):
        yield from bench.os.time_wait(10)

    def victim(task):
        yield from bench.os.event_wait(evt)

    def killer(task):
        yield from bench.os.time_wait(20)
        yield from bench.os.task_kill(v)

    t = bench.task("t", done, priority=1)
    v = bench.task("v", victim, priority=2)
    bench.task("k", killer, priority=3)
    bench.run()
    assert t.state is v.state is TaskState.TERMINATED
    again = bench.os.task_create("t", APERIODIC, 0, 0)
    bench.os.task_create("v", APERIODIC, 0, 0)
    with pytest.raises(RTOSError):
        bench.os.task_create("t", APERIODIC, 0, 0)
    bench.os.init()
    assert bench.os.task_create("t", APERIODIC, 0, 0) is not again


def test_task_states_through_lifecycle():
    bench = Harness()
    states = []

    def body(task):
        states.append(task.state)  # RUNNING once activated

        def _b():
            yield from bench.os.time_wait(10)

        return _b()

    task = bench.task("t", body)
    assert task.state is TaskState.NEW
    bench.run()
    assert task.state is TaskState.TERMINATED
    assert task.stats.dispatches >= 1
    assert task.stats.exec_time == 10


def test_rtos_call_from_non_task_rejected():
    bench = Harness()

    def rogue():
        yield from bench.os.time_wait(5)

    bench.sim.spawn(rogue(), name="rogue")
    with pytest.raises(Exception) as err:
        bench.run()
    assert "not a task" in str(err.value)


def test_tasks_do_not_run_before_start():
    bench = Harness()

    def body(task):
        def _b():
            bench.mark("ran")
            yield from bench.os.time_wait(1)

        return _b()

    bench.task("t", body)
    bench.sim.run(until=100)  # never called start()
    assert bench.log == []
    bench.os.start()
    bench.sim.run()
    assert bench.log == [("ran", 100)]


def test_sleep_and_activate_by_other_task():
    bench = Harness()

    def sleeper(task):
        def _b():
            bench.mark("sleeping")
            yield from bench.os.task_sleep()
            bench.mark("woke")

        return _b()

    def waker(task):
        def _b():
            yield from bench.os.time_wait(50)
            yield from bench.os.task_activate(s)

        return _b()

    s = bench.task("sleeper", sleeper, priority=1)
    bench.task("waker", waker, priority=2)
    bench.run()
    assert bench.log == [("sleeping", 0), ("woke", 50)]


def test_activate_terminated_task_raises():
    bench = Harness()

    def short(task):
        def _b():
            yield from bench.os.time_wait(1)

        return _b()

    def late(task):
        def _b():
            yield from bench.os.time_wait(10)
            yield from bench.os.task_activate(s)

        return _b()

    s = bench.task("short", short, priority=1)
    bench.task("late", late, priority=2)
    with pytest.raises(Exception) as err:
        bench.run()
    assert "terminated" in str(err.value)


def test_activate_already_ready_is_noop():
    bench = Harness()

    def a_body(task):
        def _b():
            yield from bench.os.task_activate(b)  # b is already READY
            yield from bench.os.time_wait(10)
            bench.mark("a")

        return _b()

    def b_body(task):
        def _b():
            yield from bench.os.time_wait(5)
            bench.mark("b")

        return _b()

    a = bench.task("a", a_body, priority=1)
    b = bench.task("b", b_body, priority=2)
    bench.run()
    assert bench.log == [("a", 10), ("b", 15)]
    assert b.stats.activations == 1


def test_task_kill_unblocks_event_waiter():
    bench = Harness()

    def victim(task):
        def _b():
            yield from bench.os.event_wait(evt)
            bench.mark("never")

        return _b()

    def killer(task):
        def _b():
            yield from bench.os.time_wait(20)
            yield from bench.os.task_kill(v)
            bench.mark("killed")

        return _b()

    evt = None
    bench_os = bench.os
    evt = bench_os.event_new("evt")
    v = bench.task("victim", victim, priority=1)
    bench.task("killer", killer, priority=2)
    bench.run()
    assert bench.log == [("killed", 20)]
    assert v.state is TaskState.TERMINATED
    assert not evt.queue


def test_task_kill_mid_delay_takes_effect_at_step_end():
    """Kill granularity matches the delay-model granularity."""
    bench = Harness()

    def victim(task):
        def _b():
            yield from bench.os.time_wait(100)
            bench.mark("step1")
            yield from bench.os.time_wait(100)
            bench.mark("never")

        return _b()

    def killer(task):
        def _b():
            yield from bench.os.time_wait(150)
            yield from bench.os.task_kill(v)

        return _b()

    v = bench.task("victim", victim, priority=2)
    bench.task("killer", killer, priority=1)
    # killer (high prio) runs first: [0,150); victim starts at 150
    bench.run()
    assert bench.log == []  # victim killed before finishing its first step
    assert v.state is TaskState.TERMINATED


def test_tasks_whose_process_has_not_run_can_be_dispatched_and_killed():
    """A task handle exists before its process first runs. Another task
    may activate it — the dispatcher then hands it the CPU before its
    body started, and the body finds itself running when it
    self-activates — or kill it; neither has a process to wake."""
    bench = Harness()
    late = bench.os.task_create("late", APERIODIC, 0, 0, priority=1)
    never = bench.os.task_create("never", APERIODIC, 0, 0, priority=1)

    def starter(task):
        def _b():
            yield from bench.os.task_activate(late)
            yield from bench.os.task_kill(never)
            bench.mark("starter-done")

        return _b()

    def late_body():
        yield from bench.os.time_wait(10)
        bench.mark("late-done")

    def spawn_late():
        yield WaitFor(30)
        bench.sim.spawn(bench.os.task_body(late, late_body()), name="late")

    bench.task("starter", starter, priority=5)
    bench.sim.spawn(spawn_late(), name="spawner")
    bench.run()
    assert bench.log == [("late-done", 40), ("starter-done", 40)]
    assert late.state is TaskState.TERMINATED
    assert never.killed and never.process is None


def test_self_kill_is_terminate():
    bench = Harness()

    def body(task):
        def _b():
            yield from bench.os.time_wait(5)
            yield from bench.os.task_kill(task)
            bench.mark("unreachable")

        return _b()

    t = bench.task("t", body)
    bench.run()
    assert bench.log == []
    assert t.state is TaskState.TERMINATED


def test_par_start_end_fork_join():
    """The Figure 5/6 pattern: parent suspends across a par of children."""
    bench = Harness()
    os_ = bench.os

    def child_gen(task, delay):
        def _b():
            yield from os_.time_wait(delay)
            bench.mark(task.name)

        return _b()

    c1 = os_.task_create("c1", APERIODIC, 0, 0, priority=2)
    c2 = os_.task_create("c2", APERIODIC, 0, 0, priority=3)

    def parent(task):
        def _b():
            yield from os_.time_wait(10)
            yield from os_.par_start()
            yield Par(
                os_.task_body(c1, child_gen(c1, 100)),
                os_.task_body(c2, child_gen(c2, 50)),
            )
            yield from os_.par_end()
            bench.mark("parent")

        return _b()

    p = bench.task("parent", parent, priority=1)
    bench.run()
    # children serialized by priority: c1 [10,110), c2 [110,160)
    assert bench.log == [("c1", 110), ("c2", 160), ("parent", 160)]
    assert p.state is TaskState.TERMINATED


def test_par_end_with_foreign_handle_rejected():
    bench = Harness()
    os_ = bench.os
    other = os_.task_create("other", APERIODIC, 0, 0)

    def parent(task):
        def _b():
            yield from os_.par_start()
            yield from os_.par_end(other)

        return _b()

    bench.task("parent", parent)
    with pytest.raises(Exception) as err:
        bench.run()
    assert "foreign" in str(err.value)


def test_parent_does_not_consume_cpu_while_children_run():
    bench = Harness()
    os_ = bench.os
    c = os_.task_create("c", APERIODIC, 0, 0, priority=5)

    def child_gen():
        yield from os_.time_wait(100)

    def parent(task):
        def _b():
            yield from os_.par_start()
            yield Par(os_.task_body(c, child_gen()))
            yield from os_.par_end()

        return _b()

    p = bench.task("parent", parent, priority=1)
    bench.run()
    assert p.stats.exec_time == 0
    assert c.stats.exec_time == 100
    assert bench.os.metrics.busy_time == 100
