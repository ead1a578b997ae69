"""Property-based tests of budget-watchdog soundness (hypothesis).

The mixed-criticality machinery hangs off one guarantee: the
execution-budget watchdog is *sound* — a task that never exceeds its
armed budget within one cycle never trips it, no matter how it is
preempted, under flat or hierarchical scheduling.  A false positive here would raise criticality modes (and
degrade LO work) for well-behaved tasksets, so the property is
load-bearing for the whole :mod:`repro.rtos.mc` layer.

The watchdog charges *execution* time only: preemption by higher-
priority tasks, component budget exhaustion and overload (back-to-back
releases) must all leave a within-budget task's overrun count at zero.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Simulator, WaitFor
from repro.rtos import PERIODIC, Component, HierarchicalScheduler, RTOSModel

# the watched task: (exec chunks, budget slack, period headroom)
watched_specs = st.tuples(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=40),    # budget - exec time
    st.integers(min_value=1, max_value=300),   # period - budget
)

# interfering tasks: [(period, exec)] — more urgent, so they preempt
interferer_specs = st.lists(
    st.tuples(
        st.integers(min_value=40, max_value=400),   # period
        st.integers(min_value=1, max_value=30),     # exec
    ),
    min_size=0, max_size=3,
)

TOPOLOGIES = st.sampled_from(["flat", "hier"])


def _run_watched(topology, watched, noise):
    chunks, budget_slack, period_headroom = watched
    exec_time = sum(chunks)
    budget = exec_time + budget_slack
    period = budget + period_headroom
    sim = Simulator()
    sim.trace.enabled = False
    sched = None
    if topology == "hier":
        components = [
            Component("noise", budget=50, period=120, priority=0,
                      policy="priority"),
            Component("app", budget=60, period=100, priority=1,
                      policy="priority"),
        ]
        sched = HierarchicalScheduler(components, top="priority")
        os_ = RTOSModel(sim, sched=sched, preemption="immediate")
    else:
        components = None
        os_ = RTOSModel(sim, sched="priority", preemption="immediate")

    task = os_.task_create("watched", PERIODIC, period, exec_time,
                           priority=10)
    monitor = os_.task_watch(task, policy="log", budget=budget)
    if components is not None:
        sched.assign(task, components[1])

    def watched_body():
        while True:
            for chunk in chunks:
                yield from os_.time_wait(chunk)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, watched_body()), name=task.name)

    for index, (noise_period, noise_exec) in enumerate(noise):
        other = os_.task_create(f"noise{index}", PERIODIC, noise_period,
                                noise_exec, priority=index)
        if components is not None:
            sched.assign(other, components[0])

        def noise_body(noise_exec=noise_exec):
            while True:
                yield from os_.time_wait(noise_exec)
                yield from os_.task_endcycle()

        sim.spawn(os_.task_body(other, noise_body()), name=other.name)

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=6 * period)
    return monitor, task


@given(TOPOLOGIES, watched_specs, interferer_specs)
@settings(max_examples=60, deadline=None)
def test_within_budget_never_trips_watchdog(topology, watched, noise):
    monitor, task = _run_watched(topology, watched, noise)
    # the task executed at least one full cycle, so the watchdog armed
    assert monitor.releases.get(task.uid, 0) >= 1
    # soundness: execution within budget never counts as an overrun,
    # whatever the preemption pattern did to the wall-clock span
    assert monitor.overrun_counts.get(task.uid, 0) == 0
    # and the per-cycle charge ledger never exceeded the armed budget
    assert monitor.budget_used.get(task.uid, 0) <= monitor.budgets[task.uid]


@given(watched_specs)
@settings(max_examples=30, deadline=None)
def test_overrun_watchdog_completeness(watched):
    """Dual property: exceeding the budget by one tick always trips it."""
    chunks, _, period_headroom = watched
    exec_time = sum(chunks)
    budget = exec_time - 1
    if budget <= 0:
        return
    period = exec_time + period_headroom
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched="priority", preemption="immediate")
    task = os_.task_create("watched", PERIODIC, period, exec_time,
                           priority=1)
    monitor = os_.task_watch(task, policy="log", budget=budget)

    def body():
        while True:
            for chunk in chunks:
                yield from os_.time_wait(chunk)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, body()), name=task.name)

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=3 * period)
    assert monitor.overrun_counts.get(task.uid, 0) >= 1
