"""Explorable models: small simulations with declared invariants.

A :class:`Model` packages one freshly-built simulation with everything
the explorer needs: the horizon to run to, which processes are daemons
(infrastructure that blocks forever by design — ISR dispatchers — and
must not count as deadlocked), the invariants to check after each run,
and the state the fingerprint must capture beyond the kernel's view
(``events``, ``state_extra``).

The builders below are the standard exploration corpus — each returns a
*fresh* model (new simulator, new processes), so the builder itself is
the run factory the explorer re-executes:

* :func:`pingpong` — two kernel processes in a notify/wait rendezvous
  loop; bug-free, exercises ``ready`` decisions.
* :func:`ties3` — three kernel processes on a shared ``waitfor``
  deadline; bug-free but tie-rich (``timer`` + ``ready`` cohorts of
  three), the pruning showcase.
* :func:`lostnotify` — two RTOS tasks around a probabilistic
  ``lost_notify`` fault: the ``fault`` branch where delivery is lost
  deadlocks the waiter (seeded bug, found by exploration).
* :func:`lostirq` — an RTOS task samples on an interrupt whose arrival
  jitters across ``[8, 10]``; the RTOS notify-pending window expires at
  end of timestep, so early arrival slots lose the wakeup and deadlock
  the sampler (seeded missed-wakeup bug across kernel, RTOS *and*
  platform decision kinds).
* :func:`mc3` — a three-task mixed-criticality workload whose HI task
  probabilistically overruns its LO budget; the MC mode switch must
  shield it in *every* branch (bug-free: the ``no_hi_miss`` invariant
  holds exhaustively).
"""

from repro.analysis.schedulability import MCTaskSpec, TaskSpec
from repro.explore.invariants import expect, no_hi_miss
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultSpec
from repro.kernel import Event, Notify, Simulator, Wait, WaitFor
from repro.platform.interrupt import (
    InterruptController,
    InterruptSource,
    IrqLine,
)
from repro.rtos import APERIODIC, RTOSModel
from repro.rtos.taskset import spawn_periodic


class Model:
    """One explorable simulation configuration (fresh per run).

    Attributes beyond the constructor parameters may be attached freely
    by builders (logs, counters, the RTOS model handle); invariants read
    them. ``state_extra`` — when invariants depend on such state — must
    surface it as a stable hashable so fingerprint-equal states really
    do share invariant verdicts (see :mod:`repro.explore.fingerprint`).
    """

    def __init__(self, name, sim, horizon=None, daemons=(), invariants=(),
                 events=(), state_extra=None, include_now=False):
        self.name = name
        self.sim = sim
        self.horizon = horizon
        self.daemons = frozenset(daemons)
        self.invariants = tuple(invariants)
        self.events = tuple(events)
        #: callable(model) -> hashable extra state for the fingerprint
        self.state_extra = state_extra
        self.include_now = include_now

    def fingerprint_extra(self):
        if self.state_extra is None:
            return None
        return self.state_extra(self)

    def __repr__(self):
        return f"Model({self.name!r})"


def pingpong():
    """Two kernel processes exchanging notifications; bug-free."""
    sim = Simulator()
    sim.trace.enabled = False
    ping_evt = Event("ping")
    pong_evt = Event("pong")
    log = []

    def ping():
        for _ in range(2):
            yield WaitFor(5)
            yield Notify(ping_evt)
            yield Wait(pong_evt)

    def pong():
        for i in range(2):
            yield Wait(ping_evt)
            log.append(i)
            yield Notify(pong_evt)

    sim.spawn(ping(), name="ping")
    sim.spawn(pong(), name="pong")
    model = Model(
        "pingpong", sim, horizon=100,
        events=(ping_evt, pong_evt),
        state_extra=lambda m: tuple(m.log),
    )
    model.log = log
    model.invariants = (
        expect(
            lambda m: len(m.log) == 2,
            lambda m: f"pong handled {len(m.log)} of 2 notifications",
        ),
    )
    return model


def ties3(rounds=1):
    """Three processes sharing every ``waitfor`` deadline; bug-free.

    Every timestep wakes a three-timer cohort and then a three-process
    ready set — maximal tie density, so the interleaving count explodes
    under naive DFS while almost all orders converge to the same state.
    """
    sim = Simulator()
    sim.trace.enabled = False
    counts = {"a": 0, "b": 0, "c": 0}

    def worker(key):
        for _ in range(rounds):
            yield WaitFor(10)
            counts[key] += 1

    for key in ("a", "b", "c"):
        sim.spawn(worker(key), name=key)
    model = Model(
        "ties3", sim, horizon=20 * rounds,
        state_extra=lambda m: tuple(sorted(m.counts.items())),
    )
    model.counts = counts
    model.rounds = rounds
    model.invariants = (
        expect(
            lambda m: all(v == m.rounds for v in m.counts.values()),
            lambda m: f"unbalanced rounds: {sorted(m.counts.items())}",
        ),
    )
    return model


def lostnotify():
    """RTOS waiter vs a probabilistic lost-notify fault (seeded bug).

    Under exploration the ``prob=0.5`` fault is a branch, not a coin
    flip: the ``skip`` branch rendezvouses, the ``lost_notify`` branch
    leaves the waiter blocked forever — a deadlock violation whose
    decision path names the fault.
    """
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched="priority", preemption="step")
    evt = os_.event_new("data")
    waiter = os_.task_create("waiter", APERIODIC, 0, 0, priority=1)
    notifier = os_.task_create("notifier", APERIODIC, 0, 0, priority=2)

    def waiter_body():
        yield from os_.event_wait(evt)

    def notifier_body():
        yield from os_.time_wait(5)
        yield from os_.event_notify(evt)

    sim.spawn(os_.task_body(waiter, waiter_body()), name="waiter")
    sim.spawn(os_.task_body(notifier, notifier_body()), name="notifier")
    FaultInjector(
        sim, [FaultSpec("lost_notify", event="data", prob=0.5)]
    ).arm(model=os_)
    os_.spawn_boot()
    model = Model("lostnotify", sim, horizon=100, events=(evt,))
    model.os = os_
    return model


def lostirq():
    """Jittered interrupt vs an RTOS wait window (seeded missed wakeup).

    The sampler task sleeps until ``t=10`` and then waits for the ADC
    event; the interrupt is programmed at ``t=8`` with jitter 2, so its
    arrival slot is a decision point over ``{8, 9, 10}``. An RTOS
    notification pends only for the remainder of its timestep: slots 8
    and 9 notify before anyone waits and the wakeup is lost — the
    sampler blocks forever. Slot 10 rendezvouses. Exhaustive
    exploration must find the two violating schedules.
    """
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched="priority", preemption="step")
    evt = os_.event_new("sample")
    line = IrqLine(sim, "adc")
    pic = InterruptController(sim, "pic")
    handled = []

    def isr():
        yield from os_.event_notify(evt)

    pic.register(line, isr)
    InterruptSource(sim, line, times=(8,), jitter=2)
    sampler = os_.task_create("sampler", APERIODIC, 0, 0, priority=1)

    def body():
        yield from os_.time_wait(10)
        yield from os_.event_wait(evt)
        handled.append(sim.now)

    sim.spawn(os_.task_body(sampler, body()), name="sampler")
    os_.spawn_boot()
    model = Model(
        "lostirq", sim, horizon=100,
        daemons=("pic.isr.adc",),
        events=(evt,),
        state_extra=lambda m: tuple(m.handled),
    )
    model.os = os_
    model.handled = handled
    return model


def mc3():
    """Three-task MC workload under probabilistic overrun (bug-free).

    Two LO tasks (period 20, wcet 4) outrank one HI task (period 40,
    ``wcet=[10, 20]``) — the classic mixed-criticality shape where the
    HI task only survives its pessimistic budget because the mode
    switch sheds LO load. An ``exec_jitter`` fault doubles the HI
    execution with ``prob=0.5``, so every HI cycle branches into a
    within-budget and an overrunning schedule. The ``no_hi_miss``
    invariant must hold on *every* branch: overrun ⇒ budget watchdog ⇒
    mode raise ⇒ LO releases dropped ⇒ the HI job still meets its
    deadline — the runtime half of the AMC certificate, checked
    exhaustively.
    """
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched="priority", preemption="immediate")
    os_.mc_configure(degrade="drop")
    # the LO tasks stay unenrolled (plain TaskSpecs): enrolled, they
    # would get deadline watchdogs and more schedules to explore
    spawn_periodic(os_, (
        TaskSpec("lo1", 20, 4, priority=1),
        TaskSpec("lo2", 20, 4, priority=2),
        MCTaskSpec("hi", 40, 10, 20, criticality="HI", priority=3),
    ))
    FaultInjector(
        sim, [FaultSpec("exec_jitter", task="hi", scale=2.0, prob=0.5)]
    ).arm(model=os_)
    os_.spawn_boot()
    model = Model(
        "mc3", sim, horizon=80,
        # the mode index shapes continuations (release suppression) and
        # the monitor counters decide the invariant — both are invisible
        # to the kernel fingerprint, so surface them explicitly
        state_extra=lambda m: (
            m.os.mc.mode_index,
            tuple(sorted(m.os.monitor.miss_counts.items())),
            tuple(sorted(m.os.monitor.overrun_counts.items())),
            tuple(sorted(m.os.monitor.budgets.items())),
            tuple(sorted(m.os.monitor.budget_used.items())),
        ),
    )
    model.os = os_
    model.invariants = (no_hi_miss,)
    return model


#: name -> zero-argument fresh-model factory (the exploration corpus)
MODELS = {
    "pingpong": pingpong,
    "ties3": ties3,
    "lostnotify": lostnotify,
    "lostirq": lostirq,
    "mc3": mc3,
}


def build(name):
    """Build a fresh instance of the named corpus model."""
    try:
        factory = MODELS[name]
    except KeyError:
        known = ", ".join(sorted(MODELS))
        raise KeyError(f"unknown model {name!r} (known: {known})") from None
    return factory()
