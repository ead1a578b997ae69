"""Seeded span-analytics demo models (``pi-demo`` / ``fault-demo``).

:func:`run_inversion` is the classic three-task priority-inversion
scenario (the Mars-Pathfinder shape): a low-priority task holds a
mutex, the high-priority task blocks on it, and a medium-priority task
— needing no shared resource at all — preempts the holder and
stretches the high-priority task's wait. Without priority inheritance
(``pi=False``, the default) every round produces one inversion
incident that :class:`~repro.obs.analyzers.InversionDetector` names
exactly (task, holder, resource, inverting task, duration); with
``pi=True`` the holder inherits the blocked task's priority, the
medium task cannot preempt it, and no incident is detected — the same
ablation as ``examples/scheduler_comparison.py``, but read off the
causal span stream instead of response-time tables.

:func:`run_fault_demo` is an overloaded, watched, fault-injected
periodic task set (the campaign shape of :mod:`repro.faults`): a
deterministic overrun plus a seeded mid-run crash under a ``kill``
watchdog policy — the trace the CI obs-smoke job feeds to
``python -m repro.obs report`` to prove killed/hung tasks close their
spans with terminal watchdog edges.

:func:`run_mc_demo` is the mixed-criticality shape of
:mod:`repro.rtos.mc`: two LO tasks outrank one HI task whose execution
alternates between its optimistic and pessimistic budget, so every
other HI job overruns, raises the mode, sheds the LO load and (after
the hysteresis window) recovers — the trace carries ``mode`` records
and the report grows criticality-mode, watchdog and MC sections.

All runners follow the ``fig3`` runner contract (``trace=``,
``registry=``) so the obs CLI treats them as bundled models; all arm
the span sources by default (``spans=False`` opts out).
"""

from repro.analysis.schedulability import MCTaskSpec, TaskSpec
from repro.apps.fig3 import Fig3Result
from repro.channels.mutex import RTOSMutex
from repro.kernel import Simulator
from repro.rtos import APERIODIC, PERIODIC, RTOSModel
from repro.rtos.taskset import spawn_periodic

__all__ = ["run_inversion", "run_fault_demo", "run_mc_demo"]

#: one inversion round: lo holds the lock this long...
HOLD = 40
#: ...the medium task computes this long inside the window
MID_WORK = 30
#: round period (every task resynchronizes on this)
ROUND = 200


def run_inversion(rounds=3, pi=False, sched="priority", trace=None,
                  registry=None, spans=True):
    """Run the seeded priority-inversion scenario; returns a
    :class:`~repro.apps.fig3.Fig3Result`.

    Per round: ``lo`` locks the mutex at the round start and computes
    for :data:`HOLD` units in granularity-5 steps; ``hi`` wakes 10
    units in and blocks on the lock; ``mid`` wakes 12 units in and
    computes :data:`MID_WORK` units, preempting ``lo`` (unless ``pi``
    boosted it). ``hi``'s block span therefore ends with a ``notify``
    edge from ``lo`` — a lower-urgency holder — and ``mid`` is the
    inverting task the detector must name.
    """
    sim = Simulator(trace=trace)
    os_ = RTOSModel(sim, sched=sched, name="pi.os")
    if spans:
        os_.trace_spans(True)
    if registry is not None:
        os_.observe(registry)
    mutex = RTOSMutex(os_, name="shared", priority_inheritance=pi)
    pause = os_.event_new("pause.evt")  # never notified: pure delays

    hi = os_.task_create("hi", APERIODIC, 0, 5, priority=10)
    mid = os_.task_create("mid", APERIODIC, 0, MID_WORK, priority=20)
    lo = os_.task_create("lo", APERIODIC, 0, HOLD, priority=30)

    def compute(amount, step=5):
        while amount > 0:
            chunk = min(step, amount)
            yield from os_.time_wait(chunk)
            amount -= chunk

    def hi_body():
        yield from os_.task_activate(hi)
        for round_start in range(0, rounds * ROUND, ROUND):
            yield from os_.event_wait(
                pause, timeout=max(0, round_start + 10 - sim.now))
            yield from mutex.lock()
            yield from compute(5)
            yield from mutex.unlock()
        yield from os_.task_terminate()

    def mid_body():
        yield from os_.task_activate(mid)
        for round_start in range(0, rounds * ROUND, ROUND):
            yield from os_.event_wait(
                pause, timeout=max(0, round_start + 12 - sim.now))
            yield from compute(MID_WORK)
        yield from os_.task_terminate()

    def lo_body():
        yield from os_.task_activate(lo)
        for round_start in range(0, rounds * ROUND, ROUND):
            if sim.now < round_start:
                yield from os_.event_wait(pause, timeout=round_start - sim.now)
            yield from mutex.lock()
            yield from compute(HOLD)
            yield from mutex.unlock()
        yield from os_.task_terminate()

    sim.spawn(os_.task_body(hi, hi_body()), name="hi")
    sim.spawn(os_.task_body(mid, mid_body()), name="mid")
    sim.spawn(os_.task_body(lo, lo_body()), name="lo")
    os_.spawn_boot()
    sim.run(until=rounds * ROUND + ROUND)
    return Fig3Result(sim=sim, trace=sim.trace, os=os_,
                      tasks={"hi": hi, "mid": mid, "lo": lo})


#: fault-demo task set: utilization ~1.17 — overloaded by design
_FAULT_TASKS = (
    TaskSpec("t1", 4_000, 1_000, priority=1),
    TaskSpec("t2", 5_000, 1_200, priority=2),
    TaskSpec("t3", 7_500, 5_000, priority=3),
)
_FAULT_HORIZON = 60_000


def run_fault_demo(sched="priority", seed=1, horizon=_FAULT_HORIZON,
                   trace=None, registry=None, spans=True):
    """Overloaded watched task set with a seeded crash; returns a
    :class:`~repro.apps.fig3.Fig3Result`.

    ``t3`` systematically overruns (the task set is infeasible), all
    tasks run under a ``kill`` deadline watchdog, and ``t1`` crashes
    mid-run through the fault injector — so the trace contains
    deadline misses, watchdog kills and an injected-fault kill, each
    of which must close its task's spans with a terminal edge.
    """
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan

    sim = Simulator(trace=trace)
    os_ = RTOSModel(sim, sched=sched, name="fault.os")
    if spans:
        os_.trace_spans(True)
    if registry is not None:
        os_.observe(registry)
    tasks = {
        task.name: task
        for task in spawn_periodic(os_, _FAULT_TASKS, step=500, watch="kill")
    }

    # the crash must land *inside* a t1 job (t1 is the highest-priority
    # task: released every 4000, executing [r, r+1000]) so the injected
    # kill closes an open job span rather than hitting an idle task
    plan = FaultPlan((
        {"kind": "task_crash", "task": "t1", "at": horizon // 2 + 2_500},
    ))
    FaultInjector(sim, plan, seed=seed).arm(model=os_)
    os_.spawn_boot()
    sim.run(until=horizon)
    return Fig3Result(sim=sim, trace=sim.trace, os=os_, tasks=tasks)


#: mc-demo task set; the HI task's body alternates between its budgets
_MC_TASKS = (
    MCTaskSpec("lo1", 2_000, 400, criticality="LO", priority=1),
    MCTaskSpec("lo2", 2_000, 400, criticality="LO", priority=2),
    MCTaskSpec("hi", 4_000, 1_000, 2_000, criticality="HI", priority=3),
)
_MC_HORIZON = 40_000
#: overrun-free time before the mode steps back down
_MC_RECOVERY = 6_000


def run_mc_demo(sched="priority", horizon=_MC_HORIZON, degrade="drop",
                recovery_window=_MC_RECOVERY, trace=None, registry=None,
                spans=True):
    """Mixed-criticality raise/recover demo; returns a
    :class:`~repro.apps.fig3.Fig3Result`.

    Two LO tasks outrank the HI task (the classic MC shape: the HI
    task only meets its deadline at the pessimistic budget because the
    mode switch sheds LO load). The HI body alternates between its LO
    budget (1000) and its HI budget (2000), so every other job
    overruns: budget watchdog -> mode raise -> LO releases degraded ->
    hysteresis recovery once the window passes -- a full raise/recover
    cycle roughly every two HI periods, with zero HI deadline misses.
    """
    sim = Simulator(trace=trace)
    os_ = RTOSModel(sim, sched=sched, preemption="immediate", name="mc.os")
    if spans:
        os_.trace_spans(True)
    if registry is not None:
        os_.observe(registry)
    os_.mc_configure(degrade=degrade, recovery_window=recovery_window)
    *lo_specs, hi_spec = _MC_TASKS
    tasks = {task.name: task for task in spawn_periodic(os_, lo_specs)}
    hi = tasks["hi"] = os_.task_create(
        "hi", PERIODIC, hi_spec.period, [hi_spec.wcet_lo, hi_spec.wcet_hi],
        priority=hi_spec.priority, criticality=hi_spec.criticality,
    )

    def hi_body():
        cycle = 0
        while True:
            yield from os_.time_wait(
                hi_spec.wcet_hi if cycle % 2 else hi_spec.wcet_lo
            )
            cycle += 1
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(hi, hi_body()), name="hi")
    os_.spawn_boot()
    sim.run(until=horizon)
    return Fig3Result(sim=sim, trace=sim.trace, os=os_, tasks=tasks)
