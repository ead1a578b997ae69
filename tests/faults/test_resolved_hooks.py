"""Resolved fault hooks decide exactly as the per-spec loops did.

:class:`FaultInjector` resolves its plan once into one entry tuple per
hook. :class:`ReferenceInjector` keeps the earlier evaluation: each
hook scans the plan by kind and reads every field from the spec on
every call (its methods are that code, unchanged). Driven with the
same random plan and call sequence, both must return the same values,
count and trace the same faults, consume the RNG stream identically
and present the same ``fault`` decision points to an oracle.

The last tests check the hook sites: an RTOS model armed with a plan
that holds no spec for a hook makes no call into the injector there.
"""

import collections
import random
import sys
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.kernel import Simulator
from repro.kernel.oracle import (
    DecisionPoint,
    RecordingOracle,
    ScheduleOracle,
)
from repro.rtos import APERIODIC, PERIODIC, RTOSModel

from tests.integration.test_golden_traces import format_trace


class ReferenceInjector:
    """The per-spec hook loops: every call scans the plan by kind."""

    def __init__(self, sim, plan, seed=0):
        self.sim = sim
        self.plan = plan
        self.rng = random.Random(seed)
        self.counts = {}
        self.model = None
        self._spent = set()

    def _record(self, kind, actor, **data):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        model = self.model
        if model is not None:
            model.metrics.faults_injected += 1
        self.sim.trace.record(self.sim.now, "fault", actor, kind, **data)
        if model is not None and model.obs is not None:
            model.obs.registry.counter(f"faults.{kind}").inc()

    def _roll(self, spec, kind, actor):
        prob = spec.params["prob"]
        if prob >= 1.0:
            return True
        if prob <= 0.0:
            return False
        oracle = self.sim.oracle
        if oracle is not None:
            return oracle.pick(DecisionPoint(
                "fault", ("skip", kind), actor=actor, time=self.sim.now,
            )) == 1
        return self.rng.random() < prob

    def perturb_exec(self, task, nsec):
        now = self.sim.now
        for spec in self.plan.of_kind("task_hang"):
            if spec.task != task.name or now < spec.at:
                continue
            if id(spec) in self._spent:
                continue
            self._spent.add(id(spec))
            self._record("task_hang", task.name)
            return None
        for spec in self.plan.of_kind("exec_jitter"):
            if spec.task is not None and spec.task != task.name:
                continue
            if not spec.in_window(now) or not self._roll(
                spec, "exec_jitter", task.name
            ):
                continue
            perturbed = int(nsec * spec.params["scale"]) + spec.params["offset"]
            if perturbed < 0:
                perturbed = 0
            if perturbed != nsec:
                self._record(
                    "exec_jitter", task.name, requested=nsec, actual=perturbed
                )
                nsec = perturbed
        return nsec

    def lose_notify(self, event):
        now = self.sim.now
        for spec in self.plan.of_kind("lost_notify"):
            if spec.event is not None and spec.event != event.name:
                continue
            if spec.in_window(now) and self._roll(
                spec, "lost_notify", event.name
            ):
                self._record("lost_notify", event.name)
                return True
        return False

    def duplicate_notify(self, event):
        now = self.sim.now
        for spec in self.plan.of_kind("dup_notify"):
            if spec.event is not None and spec.event != event.name:
                continue
            if spec.in_window(now) and self._roll(
                spec, "dup_notify", event.name
            ):
                self._record("dup_notify", event.name)
                return True
        return False


class CoinOracle(ScheduleOracle):
    """Seeded random choices, so both branches of a fault point occur."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)

    def choose(self, point):
        return self.rng.randrange(len(point.choices))


# ----------------------------------------------------------------------
# random plans and call sequences
# ----------------------------------------------------------------------

NAMES = ("a", "b", "c")
PROBS = (0.0, 0.37, 1.0)
#: call times, window bounds and hang times are multiples of one tick,
#: so calls land exactly on the bounds often
TICK = 5
ticks = st.integers(0, 30).map(lambda n: n * TICK)


@st.composite
def windows(draw):
    start = draw(ticks)
    end = draw(st.one_of(st.none(), ticks.map(lambda n: start + n)))
    return {"start": start, "end": end}


def _filtered(field):
    return st.fixed_dictionaries({
        field: st.one_of(st.none(), st.sampled_from(NAMES[:2])),
        "prob": st.sampled_from(PROBS),
    })


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(
        ("exec_jitter", "task_hang", "lost_notify", "dup_notify")
    ))
    if kind == "task_hang":
        return FaultSpec(kind, task=draw(st.sampled_from(NAMES[:2])),
                         at=draw(ticks))
    field = "task" if kind == "exec_jitter" else "event"
    params = dict(draw(_filtered(field)), **draw(windows()))
    if kind == "exec_jitter":
        params["scale"] = draw(st.sampled_from((0.0, 0.5, 1.0, 1.25, 2.0)))
        params["offset"] = draw(st.integers(-60, 60))
    return FaultSpec(kind, **params)


@st.composite
def plans(draw):
    drawn = draw(st.lists(specs(), min_size=1, max_size=6))
    # the same spec object may sit in a plan twice (one-shot hangs are
    # spent per object)
    repeats = draw(st.lists(st.integers(0, 5), max_size=2))
    return FaultPlan(drawn + [drawn[i % len(drawn)] for i in repeats])


calls = st.lists(
    st.tuples(
        st.sampled_from(("exec", "lost", "dup")),
        st.sampled_from(NAMES),
        st.sampled_from((0, TICK, 2 * TICK)),  # advance before the call
        st.integers(0, 1_000),  # requested delay (exec)
    ),
    min_size=20,
    max_size=60,
)


def _call(injector, hook, name, nsec):
    target = SimpleNamespace(name=name)
    if hook == "exec":
        return injector.perturb_exec(target, nsec)
    if hook == "lost":
        return injector.lose_notify(target)
    return injector.duplicate_notify(target)


def _fault_records(sim):
    return [r for r in sim.trace if r.category == "fault"]


def _drive(plan, seed, sequence, oracle_seed=None):
    pair = []
    for cls in (FaultInjector, ReferenceInjector):
        sim = Simulator()
        if oracle_seed is not None:
            sim.install_oracle(RecordingOracle(CoinOracle(oracle_seed)))
        pair.append(cls(sim, plan, seed=seed))
    resolved, reference = pair
    now = 0
    for hook, name, advance, nsec in sequence:
        now += advance
        resolved.sim.now = reference.sim.now = now
        got = _call(resolved, hook, name, nsec)
        want = _call(reference, hook, name, nsec)
        assert got == want, (hook, name, now)
        assert resolved.counts == reference.counts
        assert _fault_records(resolved.sim) == _fault_records(reference.sim)
        assert resolved.rng.getstate() == reference.rng.getstate()
    return resolved, reference


@given(plans(), st.integers(0, 2**32 - 1), calls)
@settings(max_examples=100, deadline=None)
def test_resolved_hooks_match_the_per_spec_loops(plan, seed, sequence):
    _drive(plan, seed, sequence)


@given(plans(), st.integers(0, 2**32 - 1), calls, st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_resolved_hooks_present_the_same_oracle_decisions(
        plan, seed, sequence, oracle_seed):
    resolved, reference = _drive(plan, seed, sequence, oracle_seed)
    assert resolved.sim.oracle.steps == reference.sim.oracle.steps
    assert resolved.sim.oracle.trail == reference.sim.oracle.trail


# ----------------------------------------------------------------------
# the RTOS hook sites call only the hooks a plan holds specs for
# ----------------------------------------------------------------------

def _notify_taskset(plan):
    """Two periodic tasks in delay steps; the first notifies an event
    each job, which wakes an aperiodic handler task."""
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority", preemption="step", name="cpu.os")
    event = os_.event_new("data")
    producer = os_.task_create("producer", PERIODIC, 1_000, 300, priority=1)
    worker = os_.task_create("worker", PERIODIC, 1_500, 500, priority=3)
    handler = os_.task_create("handler", APERIODIC, 0, 50, priority=2)

    def producer_body():
        while True:
            for _ in range(3):
                yield from os_.time_wait(100)
            yield from os_.event_notify(event)
            yield from os_.task_endcycle()

    def worker_body():
        while True:
            for _ in range(5):
                yield from os_.time_wait(100)
            yield from os_.task_endcycle()

    def handler_body():
        while True:
            yield from os_.event_wait(event)
            yield from os_.time_wait(50)

    sim.spawn(os_.task_body(producer, producer_body()), name="producer")
    sim.spawn(os_.task_body(worker, worker_body()), name="worker")
    sim.spawn(os_.task_body(handler, handler_body()), name="handler")
    if plan is not None:
        FaultInjector(sim, plan, seed=3).arm(model=os_)
    os_.spawn_boot()
    return sim, os_


def _hook_calls(plan, until=30_000):
    """Run the task set and count, per injector method, the calls made
    into :mod:`repro.faults.inject` from :mod:`repro.rtos`."""
    sim, os_ = _notify_taskset(plan)
    counted = collections.Counter()

    def profile(frame, event, arg):
        if (event == "call"
                and frame.f_globals.get("__name__") == "repro.faults.inject"):
            caller = frame.f_back.f_globals.get("__name__", "")
            if caller.startswith("repro.rtos."):
                counted[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        sim.run(until=until)
    finally:
        sys.setprofile(None)
    return counted, sim, os_


def _outputs(sim, os_):
    return format_trace(sim.trace), os_.metrics.snapshot(sim.now)


def test_empty_plan_makes_no_hook_call():
    counted, sim, os_ = _hook_calls(FaultPlan())
    assert counted == {}
    assert os_.faults is not None
    plain_sim, plain_os = _notify_taskset(None)
    plain_sim.run(until=30_000)
    assert _outputs(sim, os_) == _outputs(plain_sim, plain_os)
    snap = os_.metrics.snapshot(sim.now)
    assert snap["dispatches"] > 50
    assert os_.tasks[2].stats.dispatches > 20  # the handler was woken


def test_plan_calls_only_the_hooks_it_holds_specs_for():
    # a jitter that never fires: every time_wait asks, no notify does
    jitter = FaultPlan([FaultSpec("exec_jitter", prob=0.0)])
    counted, _, _ = _hook_calls(jitter)
    assert set(counted) == {"perturb_exec"}
    assert counted["perturb_exec"] > 100
    # a notify fault that never fires: no time_wait asks
    notify = FaultPlan([FaultSpec("lost_notify", prob=0.0)])
    counted, _, _ = _hook_calls(notify)
    assert set(counted) == {"lose_notify", "duplicate_notify"}
    assert counted["lose_notify"] == counted["duplicate_notify"] > 20
    # neither plan fires, so both runs keep the unarmed timeline
    plain_sim, plain_os = _notify_taskset(None)
    plain_sim.run(until=30_000)
    for plan in (jitter, notify):
        armed_sim, armed_os = _notify_taskset(plan)
        armed_sim.run(until=30_000)
        assert _outputs(armed_sim, armed_os) == _outputs(plain_sim, plain_os)
