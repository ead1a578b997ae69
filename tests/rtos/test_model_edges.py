"""Edge cases and error paths of the RTOS model."""

import pytest

from repro.kernel import Simulator, WaitFor
from repro.rtos import APERIODIC, PERIODIC, RTOSModel, TaskState
from tests.rtos.conftest import Harness


def test_init_resets_everything():
    bench = Harness()
    bench.os.event_new()
    bench.task("t", lambda task: iter(()))
    bench.run()
    bench.os.init()
    assert bench.os.tasks == []
    assert bench.os.events == []
    assert bench.os.metrics.context_switches == 0
    assert bench.os.running_task is None


def _logged_task(os_, log, name, tasktype, period, step, priority):
    """Spawn a task that logs each execution step it starts."""
    task = os_.task_create(name, tasktype, period, step, priority=priority)

    def body():
        while True:
            log.append((name, os_.sim.now))
            yield from os_.time_wait(step)
            if tasktype != PERIODIC:
                return
            yield from os_.task_endcycle()

    os_.sim.spawn(os_.task_body(task, body()), name=name)
    return task


def _boot(sim, os_):
    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")


def test_init_drops_tasks_queued_before_it():
    """A task that self-activated under the locked scheduler is dropped
    by init: it is never dispatched afterwards."""
    sim = Simulator()
    os_ = RTOSModel(sim)
    log = []
    _logged_task(os_, log, "old", APERIODIC, 0, 10, priority=1)
    sim.run(until=0)  # "old" is queued, the scheduler still locked
    os_.init()
    _logged_task(os_, log, "new", APERIODIC, 0, 10, priority=2)
    _boot(sim, os_)
    sim.run()
    assert log == [("new", 0)]
    assert sim.now == 10


def test_init_disarms_releases_of_dropped_tasks():
    """The periodic release armed before init does not release the
    dropped task later."""
    sim = Simulator()
    os_ = RTOSModel(sim)
    log = []
    _logged_task(os_, log, "old_periodic", PERIODIC, 100, 10, priority=1)
    _boot(sim, os_)
    sim.run(until=50)  # first cycle done, release armed at 100
    os_.init()
    _logged_task(os_, log, "new", APERIODIC, 0, 500, priority=2)
    _boot(sim, os_)
    sim.run()
    assert log == [("old_periodic", 0), ("new", 50)]
    assert sim.now == 550


def test_time_wait_negative_rejected():
    bench = Harness()

    def body(task):
        def _b():
            yield from bench.os.time_wait(-5)

        return _b()

    bench.task("t", body)
    with pytest.raises(Exception) as err:
        bench.run()
    assert "negative delay" in str(err.value)


def test_time_wait_zero_is_schedule_point():
    bench = Harness()

    def hi(task):
        def _b():
            yield from bench.os.event_wait(evt)
            bench.mark("hi")

        return _b()

    def lo(task):
        def _b():
            yield from bench.os.event_notify(evt)
            yield from bench.os.time_wait(0)  # must let hi run
            bench.mark("lo")

        return _b()

    evt = bench.os.event_new()
    bench.task("hi", hi, priority=1)
    bench.task("lo", lo, priority=5)
    bench.run()
    assert [e[0] for e in bench.log] == ["hi", "lo"]


def test_unknown_preemption_mode_rejected():
    with pytest.raises(ValueError):
        RTOSModel(Simulator(), preemption="lazy")


def test_running_task_and_self_task_introspection():
    bench = Harness()
    seen = {}

    def body(task):
        def _b():
            seen["self"] = bench.os.self_task()
            seen["running"] = bench.os.running_task
            yield from bench.os.time_wait(1)

        return _b()

    t = bench.task("t", body)
    bench.run()
    assert seen["self"] is t
    assert seen["running"] is t
    assert bench.os.running_task is None  # idle after termination


def test_self_task_is_none_for_isr():
    bench = Harness()
    seen = {}

    def isr():
        seen["task"] = bench.os.self_task()
        yield WaitFor(0)

    bench.isr_at(5, isr)
    bench.run()
    assert seen["task"] is None


def test_periodic_response_includes_queueing():
    """A periodic task that is released while a long task runs has its
    queueing delay included in the response time."""
    bench = Harness()

    def hog(task):
        def _b():
            yield from bench.os.time_wait(150)

        return _b()

    def periodic(task):
        def _b():
            for _ in range(2):
                yield from bench.os.time_wait(10)
                yield from bench.os.task_endcycle()

        return _b()

    bench.task("hog", hog, priority=1)
    p = bench.task("periodic", periodic, priority=2,
                   tasktype=PERIODIC, period=100)
    bench.run()
    # first instance released at 0, starts at 150 -> response 160
    assert p.stats.response_times[0] == 160
    assert p.stats.deadline_misses >= 1


def test_two_rtos_models_on_one_simulator_are_independent():
    """Two PEs share the kernel but never each other's CPU."""
    sim = Simulator()
    os_a = RTOSModel(sim, name="a.os")
    os_b = RTOSModel(sim, name="b.os")
    log = []

    def body(os_, name):
        def _b():
            yield from os_.time_wait(100)
            log.append((name, sim.now))

        return _b()

    for os_, name in ((os_a, "a"), (os_b, "b")):
        task = os_.task_create(name, APERIODIC, 0, 0, priority=1)
        sim.spawn(os_.task_body(task, body(os_, name)), name=name)

    def boot():
        yield WaitFor(0)
        os_a.start()
        os_b.start()

    sim.spawn(boot())
    sim.run()
    # both finish at 100: the PEs run in parallel
    assert sorted(log) == [("a", 100), ("b", 100)]
    assert os_a.metrics.busy_time == 100
    assert os_b.metrics.busy_time == 100


def test_cross_model_call_rejected():
    """A task of PE a calling PE b's RTOS is a modeling error."""
    sim = Simulator()
    os_a = RTOSModel(sim, name="a.os")
    os_b = RTOSModel(sim, name="b.os")

    def body():
        yield from os_b.time_wait(10)  # wrong model!

    task = os_a.task_create("t", APERIODIC, 0, 0)
    sim.spawn(os_a.task_body(task, body()), name="t")

    def boot():
        yield WaitFor(0)
        os_a.start()
        os_b.start()

    sim.spawn(boot())
    with pytest.raises(Exception) as err:
        sim.run()
    assert "not a task" in str(err.value)


def test_kill_parent_waiting_in_par():
    """Killing a PARENT_WAIT task takes effect at par_end; children
    complete normally."""
    from repro.kernel import Par

    bench = Harness()
    os_ = bench.os
    child = os_.task_create("child", APERIODIC, 0, 0, priority=3)

    def child_body():
        yield from os_.time_wait(100)
        bench.mark("child-done")

    def parent(task):
        def _b():
            yield from os_.par_start()
            yield Par(os_.task_body(child, child_body()))
            yield from os_.par_end()
            bench.mark("parent-resumed")

        return _b()

    def killer(task):
        def _b():
            yield from os_.time_wait(50)
            yield from os_.task_kill(p)

        return _b()

    # parent runs first (prio 1) and forks; killer (prio 2) then kills
    # the suspended parent while the child (prio 3) still executes
    p = bench.task("parent", parent, priority=1)
    bench.task("killer", killer, priority=2)
    bench.run()
    assert ("child-done", 150) in bench.log
    assert not any(e[0] == "parent-resumed" for e in bench.log)
    assert p.state is TaskState.TERMINATED


def test_round_robin_requires_dispatch_bookkeeping():
    """After a slice expires with no competitor, the task continues."""
    from repro.rtos import RoundRobin

    bench = Harness(sched=RoundRobin(quantum=10))

    def solo(task):
        def _b():
            for i in range(5):
                yield from bench.os.time_wait(10)
            bench.mark("done")

        return _b()

    bench.task("solo", solo)
    bench.run()
    assert bench.log == [("done", 50)]
    assert bench.os.metrics.preemptions == 0


def test_edf_tie_breaks_fifo():
    bench = Harness(sched="edf")

    def body(task):
        def _b():
            yield from bench.os.time_wait(10)
            bench.mark(task.name)

        return _b()

    # equal deadlines (no deadline at all): creation order wins
    bench.task("first", body)
    bench.task("second", body)
    bench.run()
    assert [e[0] for e in bench.log] == ["first", "second"]


def test_aperiodic_with_explicit_deadline_under_edf():
    bench = Harness(sched="edf")

    def body(task):
        def _b():
            yield from bench.os.time_wait(10)
            bench.mark(task.name)

        return _b()

    bench.task("loose", body, rel_deadline=10_000)
    bench.task("tight", body, rel_deadline=50)
    bench.run()
    assert [e[0] for e in bench.log] == ["tight", "loose"]


def test_start_is_idempotent():
    bench = Harness()

    def body(task):
        def _b():
            yield from bench.os.time_wait(10)
            bench.mark("ran")

        return _b()

    bench.task("t", body)
    bench.run()
    bench.os.start()  # second start: no effect
    bench.sim.run()
    assert bench.log == [("ran", 10)]
