"""The automatic refinement tool: same behaviors, two models."""

import pytest

from repro.channels import Queue, Semaphore
from repro.kernel import (
    TIMEOUT,
    Event,
    Fork,
    Join,
    Notify,
    Par,
    Simulator,
    Wait,
    WaitFor,
)
from repro.refinement import (
    DynamicSchedulingRefinement,
    RefinementSpec,
)
from repro.rtos import RTOSModel


def run_spec(app_factory):
    """Execute the application factory on the raw SLDL kernel."""
    sim = Simulator()
    log = []
    sim.spawn(app_factory(sim, log), name="top")
    sim.run()
    return sim, log


def run_refined(app_factory, spec=None, sched="priority"):
    """Execute the same factory refined onto an RTOS model."""
    sim = Simulator()
    log = []
    os_ = RTOSModel(sim, sched=sched)
    ref = DynamicSchedulingRefinement(os_, spec)
    wrapped, task = ref.refine_task(app_factory(sim, log), name="Task_PE")
    sim.spawn(wrapped, name="Task_PE")

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run()
    return sim, log, os_, ref


def simple_app(sim, log):
    def _app():
        yield WaitFor(100)
        log.append(("step", sim.now))
        yield WaitFor(50)
        log.append(("done", sim.now))

    return _app()


def test_waitfor_becomes_time_wait():
    _, spec_log = run_spec(simple_app)
    _, ref_log, os_, _ = run_refined(simple_app)
    assert spec_log == ref_log == [("step", 100), ("done", 150)]
    assert os_.metrics.busy_time == 150


def parallel_app(sim, log):
    def worker(name, delay):
        yield WaitFor(delay)
        log.append((name, sim.now))

    def _app():
        yield WaitFor(10)
        yield Par(worker("b2", 100), worker("b3", 60))
        log.append(("joined", sim.now))

    return _app()


def test_par_children_become_tasks_and_serialize():
    _, spec_log = run_spec(parallel_app)
    # unscheduled: delays overlap
    assert spec_log == [("b3", 70), ("b2", 110), ("joined", 110)]

    spec = RefinementSpec(priorities={"Task_PE": 0})
    _, ref_log, os_, ref = run_refined(parallel_app, spec)
    # refined: children serialized -> 10 + 100 + 60 total
    assert ref_log[-1] == ("joined", 170)
    assert {t.name for t in ref.tasks} >= {"Task_PE"}
    assert len(ref.tasks) == 3
    assert os_.metrics.busy_time == 170


def test_par_child_priorities_control_order():
    spec = RefinementSpec(
        priorities={"Task_PE.child0": 5, "Task_PE.child1": 1}
    )
    _, ref_log, _, _ = run_refined(parallel_app, spec)
    # child1 (b3, prio 1) runs first: b3@70, then b2@170
    assert ref_log == [("b3", 70), ("b2", 170), ("joined", 170)]

    spec = RefinementSpec(
        priorities={"Task_PE.child0": 1, "Task_PE.child1": 5}
    )
    _, ref_log, _, _ = run_refined(parallel_app, spec)
    assert ref_log == [("b2", 110), ("b3", 170), ("joined", 170)]


def event_app(sim, log):
    evt = Event("sync")

    def producer():
        yield WaitFor(30)
        yield Notify(evt)
        log.append(("notified", sim.now))

    def consumer():
        fired = yield Wait(evt)
        log.append(("woke", fired.name, sim.now))

    def _app():
        yield Par(producer(), consumer())

    return _app()


def test_events_map_to_rtos_events():
    _, spec_log = run_spec(event_app)
    spec2 = RefinementSpec(
        priorities={"Task_PE.child0": 2, "Task_PE.child1": 1}
    )
    _, ref_log, os_, ref = run_refined(event_app, spec2)
    assert ("woke", "sync", 30) in spec_log
    assert ("woke", "sync", 30) in ref_log
    # exactly one RTOS event was allocated for the SLDL event
    assert len(ref.event_map) == 1
    assert len(os_.events) == 1


def channel_app(sim, log):
    """Specification channels work unchanged inside the refined model."""
    q = Queue(capacity=2, name="c1")

    def producer():
        for i in range(3):
            yield WaitFor(10)
            yield from q.send(i)

    def consumer():
        for _ in range(3):
            item = yield from q.recv()
            log.append(("got", item, sim.now))

    def _app():
        yield Par(producer(), consumer())

    return _app()


def test_spec_channels_work_in_refined_model():
    _, spec_log = run_spec(channel_app)
    assert [e[1] for e in spec_log] == [0, 1, 2]
    spec = RefinementSpec(auto_priority="order")
    _, ref_log, os_, _ = run_refined(channel_app, spec)
    assert [e[1] for e in ref_log] == [0, 1, 2]
    # serialized: producer's delays accumulate before each send
    assert ref_log[-1][2] == 30


def nested_par_app(sim, log):
    def leaf(name, d):
        yield WaitFor(d)
        log.append((name, sim.now))

    def mid():
        yield Par(leaf("x", 10), leaf("y", 20))

    def _app():
        yield Par(mid(), leaf("z", 5))

    return _app()


def test_nested_par_refines_recursively():
    _, ref_log, _, ref = run_refined(nested_par_app)
    names = sorted(e[0] for e in ref_log)
    assert names == ["x", "y", "z"]
    # Task_PE + 2 children + 2 grandchildren
    assert len(ref.tasks) == 5


def looped_par_app(sim, log):
    def worker(name, delay):
        yield WaitFor(delay)
        log.append((name, sim.now))

    def _app():
        for _ in range(3):
            yield Par(worker("b2", 100), worker("b3", 60))
        log.append(("done", sim.now))

    return _app()


def test_par_in_loop_recreates_child_tasks():
    # each iteration re-creates Task_PE.child0/child1: a terminated
    # child's name must be free again
    _, ref_log, os_, ref = run_refined(looped_par_app)
    assert ref_log[-1] == ("done", 480)
    assert [t.name for t in ref.tasks].count("Task_PE.child0") == 3
    assert os_.metrics.busy_time == 480


def wait_any_app(sim, log):
    a, b = Event("a"), Event("b")

    def signaller():
        yield WaitFor(40)
        yield Notify(b)

    def waiter():
        fired = yield Wait(a, b)
        log.append(("woke", fired.name, sim.now))

    def _app():
        yield Par(signaller(), waiter())

    return _app()


def test_wait_any_refines_to_event_wait_any():
    """A multi-event Wait resolves to the same SLDL event in both models."""
    _, spec_log = run_spec(wait_any_app)
    spec = RefinementSpec(priorities={"Task_PE.child0": 2, "Task_PE.child1": 1})
    _, ref_log, os_, ref = run_refined(wait_any_app, spec)
    assert spec_log == [("woke", "b", 40)]
    assert ref_log == [("woke", "b", 40)]
    # both SLDL events got an RTOS stand-in, the fired one reverse-maps
    assert len(ref.event_map) == 2


def timed_wait_app(sim, log):
    evt = Event("never")

    def _app():
        fired = yield Wait(evt, timeout=70)
        log.append(("result", fired is TIMEOUT, sim.now))

    return _app()


def test_timed_wait_refines_with_timeout_sentinel():
    from repro.kernel import TIMEOUT as sentinel

    _, spec_log = run_spec(timed_wait_app)
    _, ref_log, _, _ = run_refined(timed_wait_app)
    assert spec_log == [("result", True, 70)]
    assert ref_log == [("result", True, 70)]
    assert sentinel is TIMEOUT


def fork_join_app(sim, log):
    def child(name, delay):
        yield WaitFor(delay)
        log.append((name, sim.now))

    def _app():
        h1 = yield Fork(child("f1", 30), "f1")
        h2 = yield Fork(child("f2", 50), "f2")
        yield WaitFor(10)
        log.append(("parent", sim.now))
        yield Join(h1)
        yield Join(h2)
        log.append(("joined", sim.now))

    return _app()


def test_fork_join_refines_to_task_fork_join():
    _, spec_log = run_spec(fork_join_app)
    # unscheduled: children run concurrently with the parent
    assert spec_log == [("parent", 10), ("f1", 30), ("f2", 50), ("joined", 50)]

    spec = RefinementSpec(auto_priority="order")
    _, ref_log, os_, ref = run_refined(fork_join_app, spec)
    # refined: serialized on one CPU — parent (prio 0) runs its 10 first,
    # then f1 (prio 1) its 30, then f2 (prio 2) its 50
    assert ref_log == [("parent", 10), ("f1", 40), ("f2", 90), ("joined", 90)]
    assert {t.name for t in ref.tasks} == {"Task_PE", "f1", "f2"}
    from repro.rtos import TaskState

    assert all(t.state is TaskState.TERMINATED for t in ref.tasks)


def test_join_on_foreign_handle_rejected():
    def app(sim, log):
        def _app():
            yield Join(object())

        return _app()

    with pytest.raises(Exception) as err:
        run_refined(app)
    assert "Join" in str(err.value)


def test_refined_isr_signals_task():
    """Figure 3(b): ISR refined to notify through the RTOS and return
    via interrupt_return, with a semaphore channel in between."""
    sim = Simulator()
    os_ = RTOSModel(sim)
    ref = DynamicSchedulingRefinement(os_)
    sem = Semaphore(0, name="sem")  # specification-model semaphore!
    log = []

    def driver_behavior():
        yield from sem.acquire()
        log.append(("driver", sim.now))

    wrapped, _ = ref.refine_task(driver_behavior(), name="driver")
    sim.spawn(wrapped, name="driver")

    def isr_handler():
        yield from sem.release()

    refined_isr = ref.refine_isr(isr_handler)

    def external():
        yield WaitFor(80)
        yield from refined_isr()

    sim.spawn(external(), name="hw")

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot())
    sim.run()
    assert log == [("driver", 80)]
    assert os_.metrics.interrupts == 1


def test_isr_may_not_block():
    sim = Simulator()
    os_ = RTOSModel(sim)
    ref = DynamicSchedulingRefinement(os_)

    def bad_isr():
        yield Wait(Event("x"))

    refined = ref.refine_isr(bad_isr)

    def runner():
        yield from refined()

    sim.spawn(runner())
    with pytest.raises(Exception) as err:
        sim.run()
    assert "ISR" in str(err.value)


def test_refinement_spec_validation():
    with pytest.raises(ValueError):
        RefinementSpec(auto_priority="random")


def test_auto_priority_by_order():
    spec = RefinementSpec(auto_priority="order")
    assert spec.params_for("a", 0).priority == 0
    assert spec.params_for("b", 3).priority == 3
    spec2 = RefinementSpec(priorities={"a": 7}, auto_priority="order")
    assert spec2.params_for("a", 0).priority == 7
