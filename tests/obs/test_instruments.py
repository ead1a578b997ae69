"""Service and channel instrumentation through the metrics registry."""

import pytest

from repro.kernel import Simulator, WaitFor
from repro.channels import Handshake, Mailbox, Queue, Semaphore
from repro.farm.workloads import DEFAULT_GRANULARITY, task_specs
from repro.obs.metrics import MetricsRegistry
from repro.rtos import APERIODIC, PERIODIC, RTOSModel
from repro.rtos.taskset import spawn_periodic


@pytest.fixture
def sim():
    return Simulator()


def _registry_model(sim, **kwargs):
    registry = MetricsRegistry()
    os_ = RTOSModel(sim, registry=registry, **kwargs)
    return registry, os_


def _boot(sim, os_):
    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")


def test_rtos_services_record_metrics(sim):
    registry, os_ = _registry_model(sim, sched="priority")

    def body(task):
        for _ in range(3):
            yield from os_.time_wait(100)
            yield from os_.task_endcycle()

    for index, name in enumerate(("hi", "lo")):
        task = os_.task_create(name, PERIODIC, 1_000, 100, priority=index)
        sim.spawn(os_.task_body(task, body(task)), name=name)
    _boot(sim, os_)
    sim.run(until=5_000)

    snap = registry.snapshot()
    prefix = os_.name
    assert snap[f"{prefix}.ready_depth"]["samples"] > 0
    assert f"{prefix}.time_wait_calls" not in snap  # the digest counts calls
    assert snap[f"{prefix}.time_wait_delay"]["count"] == 6
    assert snap[f"{prefix}.time_wait_delay"]["max"] == 100
    # per-task response-time histograms, one per endcycle
    assert snap[f"{prefix}.response_time.hi"]["count"] == 3
    assert snap[f"{prefix}.response_time.lo"]["count"] == 3


def test_event_wait_latency_histogram(sim):
    registry, os_ = _registry_model(sim)
    evt = os_.event_new("e")

    def waiter():
        yield from os_.event_wait(evt)

    def notifier():
        yield from os_.time_wait(250)
        yield from os_.event_notify(evt)

    for index, (name, body) in enumerate(
        (("waiter", waiter), ("notifier", notifier))
    ):
        task = os_.task_create(name, APERIODIC, 0, 0, priority=index)
        sim.spawn(os_.task_body(task, body()), name=name)
    _boot(sim, os_)
    sim.run()

    latency = registry.snapshot()[f"{os_.name}.event_wait_latency"]
    assert latency["count"] == 1
    assert latency["total"] == 250


def _observed_run(registry_arg):
    """Two periodic tasks and an event wait; observed at construction
    (``registry=``) or by ``observe()`` after it."""
    sim = Simulator()
    registry = MetricsRegistry()
    if registry_arg:
        os_ = RTOSModel(sim, registry=registry)
    else:
        os_ = RTOSModel(sim)
        assert os_.obs is None
        assert os_.observe(registry) is os_.obs
    evt = os_.event_new("e")

    def body(notify):
        for _ in range(3):
            yield from os_.time_wait(100)
            if notify:
                yield from os_.event_notify(evt)
            else:
                yield from os_.event_wait(evt)
            yield from os_.task_endcycle()

    for index, name in enumerate(("hi", "lo")):
        task = os_.task_create(name, PERIODIC, 1_000, 100, priority=index)
        sim.spawn(os_.task_body(task, body(notify=index == 1)), name=name)
    _boot(sim, os_)
    sim.run(until=5_000)
    return registry.snapshot()


def test_observe_after_construction_matches_registry_arg():
    snap = _observed_run(registry_arg=False)
    assert snap == _observed_run(registry_arg=True)
    assert snap["rtos.event_wait_latency"]["count"] == 3
    assert snap["rtos.response_time.lo"]["count"] == 3


def test_response_histograms_match_task_stats(sim):
    registry, os_ = _registry_model(sim)

    def body():
        yield from os_.time_wait(120)

    task = os_.task_create("once", APERIODIC, 0, 0, priority=1)
    sim.spawn(os_.task_body(task, body()), name="once")
    _boot(sim, os_)
    sim.run()

    hist = registry.snapshot()[f"{os_.name}.response_time.once"]
    assert hist["count"] == len(task.stats.response_times)
    assert hist["total"] == sum(task.stats.response_times)


# ----------------------------------------------------------------------
# channel instrumentation
# ----------------------------------------------------------------------

def test_queue_metrics(sim):
    registry = MetricsRegistry()
    q = Queue(capacity=2, name="q")
    q.attach_metrics(registry)

    def producer():
        for i in range(4):
            yield from q.send(i)

    def consumer():
        for _ in range(4):
            yield WaitFor(10)
            yield from q.recv()

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    snap = registry.snapshot()
    assert snap["chan.q.sent"]["value"] == 4
    assert snap["chan.q.received"]["value"] == 4
    assert snap["chan.q.occupancy"]["max"] == 2
    assert snap["chan.q.occupancy"]["value"] == 0


def test_mailbox_metrics(sim):
    registry = MetricsRegistry()
    box = Mailbox(name="box")
    box.attach_metrics(registry)

    def poster():
        yield from box.post("a")
        yield from box.post("b")

    def collector():
        yield WaitFor(5)
        yield from box.collect()
        box.try_collect()

    sim.spawn(poster())
    sim.spawn(collector())
    sim.run()
    snap = registry.snapshot()
    assert snap["chan.box.sent"]["value"] == 2
    assert snap["chan.box.received"]["value"] == 2
    assert snap["chan.box.occupancy"]["max"] == 2


def test_semaphore_metrics(sim):
    registry = MetricsRegistry()
    sem = Semaphore(init=0, name="s")
    sem.attach_metrics(registry)

    def taker():
        yield from sem.acquire()

    def giver():
        yield WaitFor(10)
        yield from sem.release()

    sim.spawn(taker())
    sim.spawn(giver())
    sim.run()
    snap = registry.snapshot()
    assert snap["chan.s.contended"]["value"] >= 1
    assert snap["chan.s.tokens"]["value"] == 0
    assert snap["chan.s.tokens"]["max"] == 1


def test_handshake_metrics(sim):
    registry = MetricsRegistry()
    hs = Handshake(name="h")
    hs.attach_metrics(registry)

    def sender():
        yield from hs.send("x")

    def receiver():
        yield WaitFor(3)
        yield from hs.recv()

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert registry.snapshot()["chan.h.transfers"]["value"] == 1


def test_channels_without_registry_stay_null():
    from repro.kernel.channel import Channel

    q = Queue(name="bare")
    assert q._obs is None
    # base-class attach_metrics is a documented no-op returning None
    assert Channel.attach_metrics(q, MetricsRegistry()) is None


def _ablation_run(registry):
    """The ablation task set with or without a metrics registry."""
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, registry=registry)
    tasks = spawn_periodic(os_, task_specs(), step=DEFAULT_GRANULARITY)
    os_.spawn_boot()
    sim.run(until=1_000_000)
    return (
        os_.metrics.snapshot(sim.now),
        [(t.name, t.stats.response_times) for t in tasks],
        sim.stats,
    )


def test_attached_registry_leaves_simulated_results_unchanged():
    registry = MetricsRegistry()
    observed = _ablation_run(registry)
    assert any(name.endswith(".ready_depth") for name in registry.names())
    assert observed == _ablation_run(None)
