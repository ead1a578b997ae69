"""Refined-flavor channels under the RTOS model (Figure 7 semantics)."""

import pytest

from repro.channels import (
    RTOSHandshake,
    RTOSMailbox,
    RTOSMutex,
    RTOSQueue,
    RTOSSemaphore,
)
from repro.kernel import FifoOracle
from tests.rtos.conftest import Harness


def test_rtos_semaphore_isr_release_wakes_task():
    """The Figure-3 pattern: ISR releases a semaphore the driver task
    blocks on."""
    bench = Harness()
    sem = RTOSSemaphore(bench.os, init=0, name="sem")

    def driver(task):
        def _b():
            yield from sem.acquire()
            bench.mark("driver-woke")
            yield from bench.os.time_wait(20)

        return _b()

    bench.task("driver", driver, priority=1)

    def isr():
        yield from sem.release()
        bench.os.interrupt_return()

    bench.isr_at(75, isr)
    bench.run()
    assert bench.log == [("driver-woke", 75)]
    assert bench.os.metrics.interrupts == 1


def test_rtos_queue_between_tasks():
    bench = Harness()
    q = RTOSQueue(bench.os, capacity=2, name="q")

    def producer(task):
        def _b():
            for i in range(4):
                yield from bench.os.time_wait(10)
                yield from q.send(i)

        return _b()

    def consumer(task):
        def _b():
            for _ in range(4):
                item = yield from q.recv()
                bench.mark("got", item)

        return _b()

    bench.task("consumer", consumer, priority=1)
    bench.task("producer", producer, priority=2)
    bench.run()
    assert [(e[0], e[1]) for e in bench.log] == [("got", i) for i in range(4)]
    assert q.sent == q.received == 4


def test_rtos_handshake_same_timestep_rendezvous():
    """Sender notifies before the receiver waits within one timestep;
    the same-timestep pending rule must preserve the rendezvous."""
    bench = Harness()
    hs = RTOSHandshake(bench.os, name="hs")

    def sender(task):
        def _b():
            yield from bench.os.time_wait(10)
            yield from hs.send("data")
            bench.mark("sent")

        return _b()

    def receiver(task):
        def _b():
            yield from bench.os.time_wait(10)
            item = yield from hs.recv()
            bench.mark("received", item)

        return _b()

    bench.task("sender", sender, priority=1)
    bench.task("receiver", receiver, priority=2)
    bench.run()
    assert ("received", "data", 20) in bench.log
    assert ("sent", 20) in bench.log


def test_rtos_mailbox_from_isr():
    bench = Harness()
    mb = RTOSMailbox(bench.os, name="mb")

    def worker(task):
        def _b():
            for _ in range(2):
                msg = yield from mb.collect()
                bench.mark("msg", msg)

        return _b()

    bench.task("worker", worker)

    def isr(payload):
        def _gen():
            yield from mb.post(payload)
            bench.os.interrupt_return()

        return _gen

    bench.isr_at(10, isr("a"))
    bench.isr_at(20, isr("b"))
    bench.run()
    assert bench.log == [("msg", "a", 10), ("msg", "b", 20)]


def priority_inversion_bench(priority_inheritance, preemption="step",
                             work_before_lock=0, oracle=None):
    """Classic Mars-Pathfinder shape: low locks, high blocks on the lock,
    medium starves low. Returns the completion time of the high task.

    ``work_before_lock`` is execution time ``high`` spends between waking
    and ``lock()`` (0: none, and no scheduling point either); ``oracle``
    is installed on the simulator (a FifoOracle must not change the
    outcome)."""
    bench = Harness(preemption=preemption)
    if oracle is not None:
        bench.sim.install_oracle(oracle)
    mtx = RTOSMutex(bench.os, name="mtx",
                    priority_inheritance=priority_inheritance)

    def low(task):
        def _b():
            yield from mtx.lock()
            # hold the lock across many small steps so medium can starve
            # us (or not, under priority inheritance)
            for _ in range(10):
                yield from bench.os.time_wait(10)
            yield from mtx.unlock()
            yield from bench.os.time_wait(10)

        return _b()

    def medium(task):
        def _b():
            yield from bench.os.event_wait(evt)
            for _ in range(20):
                yield from bench.os.time_wait(10)
            bench.mark("medium-done")

        return _b()

    def high(task):
        def _b():
            yield from bench.os.event_wait(evt)
            if work_before_lock:
                yield from bench.os.time_wait(work_before_lock)
            yield from mtx.lock()
            yield from bench.os.time_wait(10)
            yield from mtx.unlock()
            bench.mark("high-done")

        return _b()

    evt = bench.os.event_new()
    bench.task("high", high, priority=1)
    bench.task("medium", medium, priority=5)
    bench.task("low", low, priority=9)

    def isr():
        # wake high and medium while low holds the lock
        yield from bench.os.event_notify(evt)
        bench.os.interrupt_return()

    bench.isr_at(30, isr)
    bench.run()
    done = {e[0]: e[-1] for e in bench.log}
    return done["high-done"]


def test_priority_inversion_without_inheritance():
    """Medium runs before low can release: high is delayed behind
    medium's entire execution."""
    assert priority_inversion_bench(False) > 250


@pytest.mark.parametrize("preemption,work_before_lock", [
    ("step", 0), ("step", 5), ("immediate", 0), ("immediate", 5),
])
def test_priority_inheritance_bounds_inversion(preemption, work_before_lock):
    """With inheritance, low finishes its critical section at medium's
    expense; high completes much earlier.

    With ``work_before_lock``, the scheduler has already chosen between
    the ready tasks (medium, low) by the time high boosts low: the boost
    must still win low the CPU, with or without an oracle armed."""
    t_pi = priority_inversion_bench(True, preemption, work_before_lock)
    t_nopi = priority_inversion_bench(False, preemption, work_before_lock)
    assert t_pi < t_nopi
    # low's remaining critical section (high wakes at 30 while low holds
    # the lock until 100), high's own 10, and its work before the lock
    assert t_pi == 110 + work_before_lock
    armed = priority_inversion_bench(True, preemption, work_before_lock,
                                     oracle=FifoOracle())
    assert armed == t_pi


def test_rtos_mutex_serializes_critical_sections():
    bench = Harness()
    mtx = RTOSMutex(bench.os, name="mtx")
    inside = []

    def worker(task):
        def _b():
            yield from mtx.lock()
            inside.append(task.name)
            assert len(inside) == 1
            yield from bench.os.time_wait(25)
            inside.remove(task.name)
            yield from mtx.unlock()

        return _b()

    for i in range(3):
        bench.task(f"w{i}", worker, priority=i + 1)
    bench.run()
    assert bench.sim.now == 75
    assert not mtx.locked()
