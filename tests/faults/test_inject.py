"""FaultInjector hook points in the RTOS model."""

import itertools

from repro.faults import FaultInjector, FaultPlan
from repro.kernel import TIMEOUT, Simulator, WaitFor
from repro.obs.metrics import MetricsRegistry
from repro.rtos import APERIODIC, PERIODIC, RTOSModel, TaskState

from tests.faults.conftest import FaultBench, fault_records
from tests.integration.test_golden_traces import format_trace


# ----------------------------------------------------------------------
# unarmed / empty-plan identity
# ----------------------------------------------------------------------

def test_empty_plan_armed_is_trace_identical_to_unarmed():
    """Arming an injector with no specs must not change the timeline."""
    def build(arm):
        bench = FaultBench()
        bench.periodic("t1", 200_000, 50_000)
        bench.periodic("t2", 300_000, 80_000)
        if arm:
            FaultInjector(bench.sim, FaultPlan(), seed=42).arm(model=bench.os)
        bench.run(until=1_200_000)
        return bench

    plain, armed = build(False), build(True)
    assert format_trace(armed.sim.trace) == format_trace(plain.sim.trace)


# ----------------------------------------------------------------------
# exec-time faults
# ----------------------------------------------------------------------

def test_exec_jitter_scales_execution_deterministically():
    def run(plan):
        bench = FaultBench(trace=False)
        task = bench.periodic("t1", 200_000, 50_000)
        inj = FaultInjector(bench.sim, plan, seed=0).arm(model=bench.os)
        bench.run(until=1_000_000)
        return task, inj

    base, _ = run([])
    task, inj = run([{"kind": "exec_jitter", "task": "t1", "scale": 2.0}])
    # every 10k step doubled: the cycle takes 100k instead of 50k
    assert task.stats.worst_response == 2 * base.stats.worst_response
    # five perturbed steps per completed cycle (the cycle in flight at
    # the horizon may add a few more)
    assert inj.counts["exec_jitter"] >= task.stats.cycles_completed * 5


def test_exec_jitter_probabilistic_draws_are_seeded():
    def counts(seed):
        bench = FaultBench(trace=False)
        bench.periodic("t1", 200_000, 50_000)
        inj = FaultInjector(
            bench.sim,
            [{"kind": "exec_jitter", "scale": 1.5, "prob": 0.5}],
            seed=seed,
        ).arm(model=bench.os)
        bench.run(until=2_000_000)
        return inj.counts.get("exec_jitter", 0)

    assert counts(1) == counts(1)  # reproducible
    assert 0 < counts(1)  # prob 0.5 over dozens of steps


def test_injections_count_into_rtos_metrics():
    bench = FaultBench(trace=False)
    bench.periodic("t1", 200_000, 50_000)
    inj = FaultInjector(
        bench.sim, [{"kind": "exec_jitter", "scale": 2.0}], seed=0
    ).arm(model=bench.os)
    bench.run(until=600_000)
    assert bench.os.metrics.faults_injected == sum(inj.counts.values()) > 0


def _armed_run(order):
    """One small MC task set, its subsystems armed in ``order``."""
    sim = Simulator()
    os_ = RTOSModel(sim, name="cpu.os")
    registry = MetricsRegistry()
    plan = [{"kind": "exec_jitter", "scale": 1.25, "prob": 0.5}]
    arm = {
        "observe": lambda: os_.observe(registry),
        "faults": lambda: FaultInjector(sim, plan, seed=7).arm(model=os_),
        "spans": lambda: os_.trace_spans(True),
        "mc": lambda: os_.mc_configure(),
    }
    for name in order:
        arm[name]()
    hi = os_.task_create("hi", PERIODIC, 400, [100, 180], priority=0,
                         criticality="HI")
    lo = os_.task_create("lo", PERIODIC, 500, 150, priority=1)

    def body(work, step):
        while True:
            for _ in range(work // step):
                yield from os_.time_wait(step)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(hi, body(100, 25)), name="hi")
    sim.spawn(os_.task_body(lo, body(150, 50)), name="lo")

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=5_000)
    return list(sim.trace), os_.metrics.snapshot(), registry.snapshot()


def test_arming_order_does_not_change_the_run():
    """observe, arm, trace_spans and mc_configure commute: every hook
    reads the subsystems the model owns when it fires, so a fault
    injected before ``observe`` still reaches the registry."""
    orders = itertools.permutations(("observe", "faults", "spans", "mc"))
    first, *rest = [_armed_run(order) for order in orders]
    assert len(rest) == 23
    assert all(outcome == first for outcome in rest)
    _, metrics, snap = first
    assert snap["faults.exec_jitter"]["value"] == metrics["faults_injected"]
    assert metrics["mode_raises"] > 0


def test_task_crash_terminates_only_the_victim(bench):
    t1 = bench.periodic("t1", 200_000, 50_000)
    t2 = bench.periodic("t2", 300_000, 80_000)
    inj = FaultInjector(
        bench.sim, [{"kind": "task_crash", "task": "t1", "at": 470_000}],
        seed=0,
    ).arm(model=bench.os)
    bench.run(until=1_200_000)
    assert t1.state is TaskState.TERMINATED
    assert t2.state is not TaskState.TERMINATED
    assert t1.stats.cycles_completed == 3  # releases at 0/200k/400k ran
    assert inj.counts["task_crash"] == 1
    assert len(fault_records(bench.sim.trace, "task_crash")) == 1


def test_task_crash_unknown_task_is_a_noop(bench):
    bench.periodic("t1", 200_000, 50_000)
    inj = FaultInjector(
        bench.sim, [{"kind": "task_crash", "task": "ghost", "at": 100_000}],
        seed=0,
    ).arm(model=bench.os)
    bench.run(until=500_000)
    assert inj.counts == {}


def test_task_hang_wedges_while_holding_the_cpu(bench):
    t1 = bench.periodic("t1", 100_000, 50_000)
    inj = FaultInjector(
        bench.sim, [{"kind": "task_hang", "task": "t1", "at": 120_000}],
        seed=0,
    ).arm(model=bench.os)
    bench.run(until=1_000_000)
    # first cycle completed; the second wedged mid-execution, one-shot
    assert inj.counts["task_hang"] == 1
    assert t1.stats.cycles_completed == 1
    assert t1.state is not TaskState.TERMINATED
    # a hung task is still reapable: condemn unwinds it with TaskKilled
    bench.os.task_condemn(t1)
    bench.sim.run()
    assert t1.state is TaskState.TERMINATED


# ----------------------------------------------------------------------
# event-notify faults
# ----------------------------------------------------------------------

def _event_bench(specs):
    bench = FaultBench()
    os_ = bench.os
    evt = os_.event_new("e")
    results = []
    waiter = os_.task_create("waiter", APERIODIC, 0, 0, priority=1)

    def waiter_body():
        res = yield from os_.event_wait(evt, timeout=50_000)
        results.append(res)

    bench.sim.spawn(os_.task_body(waiter, waiter_body()), name="waiter")

    def notifier():
        yield WaitFor(10_000)
        yield from os_.event_notify(evt)

    bench.sim.spawn(notifier(), name="notifier")
    inj = FaultInjector(bench.sim, specs, seed=0).arm(model=os_)
    bench.run(until=200_000)
    return evt, results, inj


def test_lost_notify_drops_delivery():
    evt, results, inj = _event_bench(
        [{"kind": "lost_notify", "event": "e"}]
    )
    assert results == [TIMEOUT]  # the waiter only woke via its timeout
    assert inj.counts["lost_notify"] == 1
    assert evt.notify_count == 1  # the notify happened, delivery didn't


def test_lost_notify_other_event_untouched():
    evt, results, inj = _event_bench(
        [{"kind": "lost_notify", "event": "other"}]
    )
    assert results == [evt]
    assert inj.counts == {}


def test_dup_notify_delivers_twice_and_stays_safe():
    evt, results, inj = _event_bench([{"kind": "dup_notify", "event": "e"}])
    assert results == [evt]  # normal delivery still wakes the waiter
    assert inj.counts["dup_notify"] == 1
