"""The RTOS model — the paper's core contribution (Section 4).

:class:`RTOSModel` is a channel layered between the application and the
SLDL kernel (paper Figure 2(b)). It exposes the complete interface of
Figure 4 — extended with multi-event waits, timed waits and
``task_fork``/``task_join`` (the full SLDL command set) — and serializes
task execution on top of the concurrent SLDL: at any simulated instant
at most one task of a PE is *running*; the SLDL processes of all other
tasks are parked in the kernel. Whenever task states change inside an
RTOS call, the scheduler is invoked and the selected task is dispatched
by resuming its parked process (Section 4.3). The paper releases a
per-task dispatch event instead; the resumed process runs in the same
delta that event's wake would use, so the timelines are the same with
one kernel round trip less per dispatch.

Internally the model is a facade over four composable OS services, one
per Figure-4 interface group:

* :class:`~repro.rtos.dispatch.Dispatcher` — CPU ownership, the
  pluggable scheduler, preemption modes, context-switch accounting;
* :class:`~repro.rtos.taskmgr.TaskManager` — task management;
* :class:`~repro.rtos.eventmgr.EventManager` — event handling (on the
  shared wait core of :mod:`repro.kernel.waitcore`);
* :class:`~repro.rtos.timemgr.TimeManager` — time modeling.

The facade adds no generator frames: blocking calls return the service's
generator directly, so the call depth (and simulation speed) matches the
former monolithic implementation.

Calling convention
------------------
The model is used from inside SLDL processes. Calls that may block or
reschedule are generators and must be delegated to with ``yield from``::

    def task_b2_main():
        yield from os.task_activate(b2)
        yield from os.time_wait(500)
        yield from os.task_terminate()

``init``, ``start``, ``spawn_boot``, ``interrupt_return``, ``task_create``,
``event_new`` and ``event_del`` never block and are plain methods.

Preemption modes
----------------
``preemption="step"`` (the paper's model): an interrupt at t4 can make a
higher-priority task ready, but the running task keeps the CPU until the
end of its current delay step (t4′) — accuracy is bounded by the
granularity of the task delay model, exactly as discussed in Section 4.3.

``preemption="immediate"`` (extension, in the spirit of later
result-oriented-modeling work): the in-flight ``time_wait`` of the
running task — a timed park — is aborted at t4 by resuming its
process, and the remaining delay is resumed after the task is
re-dispatched. Used by the accuracy ablation benches.
"""

from repro.kernel.channel import Channel
from repro.kernel.commands import WaitFor
from repro.rtos.dispatch import Dispatcher
from repro.rtos.eventmgr import EventManager
from repro.rtos.errors import RTOSError, TaskKilled
from repro.rtos.metrics import RTOSMetrics
from repro.rtos.sched import make_scheduler
from repro.rtos.taskmgr import TaskManager
from repro.rtos.timemgr import TimeManager


class RTOSModel(Channel):
    """Abstract RTOS for one processing element.

    Parameters
    ----------
    sim:
        The :class:`~repro.kernel.simulator.Simulator` this model runs on.
    sched:
        Scheduling policy — anything :func:`repro.rtos.sched.make_scheduler`
        accepts (``"priority"``, ``"rr"``, ``"edf"``, an int constant, a
        :class:`~repro.rtos.sched.base.Scheduler` instance, ...).
    preemption:
        ``"step"`` (paper) or ``"immediate"`` (extension), see module doc.
    switch_overhead:
        Simulated time each context switch costs on the target CPU
        (kernel save/restore + scheduler). The paper's model treats the
        RTOS as free; this extension — the refinement direction later
        TLM work took — lets the architecture model account for the
        kernel overhead the implementation model exhibits. Overhead
        time accrues in ``metrics.overhead_time`` (not in task
        execution times).
    name:
        Label used in traces (one model per PE, e.g. ``"DSP.os"``).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`, the same as
        calling :meth:`observe` right after construction: the OS services
        record ready-queue depth, event-wait latency, the ``time_wait``
        delay distribution and per-task response times into it
        (the distributions as :class:`~repro.obs.metrics.LatencyDigest`
        histograms). Detached (the default), every instrumentation site
        costs two attribute loads and a ``None`` compare.

    The model is the only owner of its optional subsystems — ``obs``
    (:meth:`observe`), ``faults`` (set by
    :meth:`~repro.faults.inject.FaultInjector.arm`), ``monitor``
    (:meth:`task_watch`), ``mc`` (:meth:`mc_configure`) and ``spans``
    (:meth:`trace_spans`). The OS services and the subsystems
    themselves read them through their ``model`` back-reference at each
    hook site, so the order in which they are armed does not matter.
    """

    def __init__(self, sim, sched="priority", preemption="step", name="rtos",
                 switch_overhead=0, registry=None):
        super().__init__(name)
        if preemption not in ("step", "immediate"):
            raise ValueError(f"unknown preemption mode: {preemption!r}")
        if switch_overhead < 0:
            raise ValueError(f"negative switch overhead: {switch_overhead}")
        self.sim = sim
        self.trace = sim.trace
        self.metrics = RTOSMetrics()
        #: optional subsystems (see the class doc); unarmed = zero-cost
        self.obs = None
        self.faults = None
        self.monitor = None
        self.mc = None
        self.spans = False
        self._dispatcher = Dispatcher(self, make_scheduler(sched),
                                      preemption, int(switch_overhead))
        self._tasks = TaskManager(self, self._dispatcher)
        self._events = EventManager(self, self._dispatcher, self._tasks)
        self._time = TimeManager(self, self._dispatcher, self._tasks)
        # cross-service wiring (see the services' docstrings)
        self._dispatcher.tasks = self._tasks
        self._tasks.events = self._events
        if registry is not None:
            self.observe(registry)

    def observe(self, registry):
        """Attach a metrics registry to the OS services.

        Creates this model's :class:`~repro.obs.instruments.RTOSObs`
        bundle (instrument names prefixed with the model's ``name``),
        which the dispatcher, task manager, event manager and time
        manager record into. Returns the bundle. Idempotent per registry.
        """
        from repro.obs.instruments import RTOSObs

        self.obs = RTOSObs(registry, self.name)
        return self.obs

    # ------------------------------------------------------------------
    # fault injection / failure monitoring (see repro.faults)
    # ------------------------------------------------------------------

    def task_watch(self, tid, policy="log", handler=None, budget=None):
        """Watch ``tid`` with a deadline-miss/overrun reaction policy.

        Lazily creates this model's
        :class:`~repro.faults.detect.FailureMonitor` and registers the
        task: every release arms a deadline watchdog timer (one tick
        past the absolute deadline, so on-time completion never flags);
        with ``budget=`` an execution-budget watchdog additionally fires
        when the task accumulates more than ``budget`` execution time in
        one cycle. ``policy`` is ``"log"`` (count + trace), ``"notify"``
        (call ``handler(task, kind, now)``), ``"kill"`` (terminate the
        task) or ``"skip-cycle"`` (abandon blown periodic releases).
        Returns the monitor.
        """
        if self.monitor is None:
            from repro.faults.detect import FailureMonitor

            self.monitor = FailureMonitor(self)
        self.monitor.watch(tid, policy=policy, handler=handler, budget=budget)
        return self.monitor

    def task_unwatch(self, tid):
        """Stop watching ``tid`` (its timers are disarmed)."""
        if self.monitor is not None:
            self.monitor.unwatch(tid)

    def task_condemn(self, tid):
        """Forcibly terminate ``tid`` from ISR/timer-callback context.

        The non-generator core of :meth:`task_kill` — no scheduling
        point for a calling task, so it is safe in contexts that cannot
        ``yield`` (watchdog policies, fault injection, ISRs). The victim
        unwinds with :class:`TaskKilled` at its next RTOS interaction.
        """
        self._tasks.condemn(tid)

    # ------------------------------------------------------------------
    # mixed-criticality modes (see repro.rtos.mc)
    # ------------------------------------------------------------------

    def mc_configure(self, degrade="drop", recovery_window=None):
        """Arm the mixed-criticality mode controller of this model.

        Creates a :class:`~repro.rtos.mc.MCController` over the two
        criticality levels ``"LO"`` and ``"HI"``. Tasks enroll via
        ``task_create(criticality=..., wcet=[lo, hi])`` or
        :meth:`MCController.register`; a HI task exceeding its LO budget
        raises the system mode to HI, re-budgets the HI tasks and
        degrades the LO tasks by the ``degrade`` policy (``"drop"``, or
        ``"skip"`` and ``"elastic"``, which slow them by
        :data:`~repro.rtos.mc.DEGRADE_FACTOR`). ``recovery_window`` arms
        hysteresis recovery: that much overrun-free time returns the
        mode to LO. Every transition is a ``"mode"`` trace record.
        Returns the controller. Unarmed models pay only ``is None``
        guards, so golden traces stay byte-identical.
        """
        if self.mc is not None:
            raise RTOSError("mixed-criticality modes already configured")
        from repro.rtos.mc import MCController

        self.mc = MCController(self, degrade=degrade,
                               recovery_window=recovery_window)
        return self.mc

    def mc_mode(self):
        """Current criticality mode name (``None`` when MC is unarmed)."""
        return self.mc.mode if self.mc is not None else None

    # ------------------------------------------------------------------
    # span sources (see repro.obs.spans)
    # ------------------------------------------------------------------

    def trace_spans(self, enabled=True):
        """Arm (or disarm) the span sources in the OS services.

        Armed, the services emit the records precise span
        reconstruction needs: ``task_endcycle`` records the cycle
        completion, overrun releases are recorded, ``task_create``
        carries the static task parameters (priority/period/wcet), and
        ``event_notify`` names its source (task, ``isr:<process>`` or
        ``kernel``). Disarmed (the default) no extra record or data key
        is emitted, so golden traces stay byte-identical — the services
        test the model's ``spans`` flag, one guard per hook site like
        every other subsystem. :class:`~repro.obs.spans.SpanBuilder`
        works on unarmed streams too, with inferred completions and wake
        sources.
        """
        self.spans = bool(enabled)
        return self

    # ------------------------------------------------------------------
    # operating system management
    # ------------------------------------------------------------------

    def init(self):
        """Initialize (or reset) the kernel data structures.

        Tasks and events created before are dropped: the ready queue is
        emptied, a pending dispatch decision is cancelled and the
        dropped tasks' releases and event timeouts are disarmed. Their
        processes stay parked, like those of blocked tasks.
        """
        self._tasks.reset()
        self._events.reset()
        self._dispatcher.reset()
        self.metrics.reset()
        if self.monitor is not None:
            self.monitor.reset()
        if self.mc is not None:
            self.mc.reset()

    def start(self, sched_alg=None):
        """Start multi-task scheduling, optionally selecting the policy.

        Until ``start`` is called, activated tasks queue up but none is
        dispatched — mirroring an RTOS that boots with the scheduler
        locked.
        """
        self._dispatcher.start(sched_alg)

    def spawn_boot(self):
        """Spawn the process ``boot``, which calls :meth:`start` after
        the t=0 activations (one ``WaitFor(0)``); returns it. Call it
        where the boot belongs in the spawn order, after the tasks and
        any fault injector, since that order decides same-instant ties.
        """

        def boot():
            yield WaitFor(0)
            self.start()

        return self.sim.spawn(boot(), name="boot")

    def interrupt_return(self):
        """Notify the kernel that an interrupt service routine finished.

        Performs the post-interrupt scheduling decision: if the ISR made a
        higher-urgency task ready, the running task is preempted
        (immediately or at its next scheduling point, per the preemption
        mode); an idle CPU dispatches directly.
        """
        self.metrics.interrupts += 1
        if self.trace.on:
            self.trace.record(self.sim.now, "irq", self.name, "return")
        self._dispatcher.resched_from_outside()

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------

    def task_create(self, name, tasktype, period, wcet, priority=None,
                    rel_deadline=None, criticality=None):
        """Allocate a task control block; returns the task handle.

        ``tasktype`` is :data:`~repro.rtos.task.PERIODIC` or
        :data:`~repro.rtos.task.APERIODIC`. ``priority`` is an explicit
        fixed priority (lower = more urgent); the paper assigns priorities
        during refinement, so it is optional here and defaults to
        :data:`~repro.rtos.task.DEFAULT_PRIORITY`. ``rel_deadline``
        overrides the implicit deadline (= period) used by EDF.

        ``name`` must not be held by another task of this model that
        has not terminated (:class:`RTOSError` otherwise): spans,
        reports and ``snapshot()`` key tasks by name. A terminated
        task's name is free again, and :meth:`init` frees every name.

        Mixed-criticality extension: ``criticality`` is ``"LO"`` or
        ``"HI"`` and ``wcet`` may be a budget pair (``wcet=[lo, hi]``,
        ``lo <= hi``; more than two budgets raise :class:`RTOSError`,
        and a refused task is not created); either enrolls the task with
        the model's :class:`~repro.rtos.mc.MCController` (armed with
        defaults when :meth:`mc_configure` was not called first). The
        scalar ``wcet`` of the TCB is then the LO budget.
        """
        vector = isinstance(wcet, (list, tuple))
        if criticality is not None or vector:
            from repro.rtos.mc import budget_pair

            # refuse a bad level or budget before the TCB exists
            criticality, wcet_levels = budget_pair(
                name, criticality, wcet if vector else (wcet,))
            if vector:
                wcet = wcet_levels[0]
        task = self._tasks.create(name, tasktype, period, wcet, priority,
                                  rel_deadline)
        if criticality is not None:
            if self.mc is None:
                self.mc_configure()
            self.mc.register(task, criticality, wcet_levels)
        return task

    def task_activate(self, tid):
        """Activate a task (generator).

        Two uses, as in the paper:

        * *self-activation* — the first statement of a task body
          (Figure 5): binds the calling SLDL process to the TCB, releases
          the task and **blocks until the scheduler dispatches it**;
        * *activating another task* — moves a ``SLEEPING``/``NEW`` task
          into the ready queue; the caller continues (it may be preempted
          by the activated task at this scheduling point).
        """
        return self._tasks.activate(tid)

    def task_terminate(self):
        """Terminate the calling task (generator); does not return the CPU
        to the caller."""
        return self._tasks.terminate()

    def task_sleep(self):
        """Suspend the calling task until someone ``task_activate``-s it."""
        return self._tasks.sleep()

    def task_endcycle(self):
        """End the current execution cycle of the calling task.

        Periodic tasks: record response time / deadline miss, then wait
        for the next release (``release_time + period``). Aperiodic
        tasks: equivalent to going to sleep until re-activated.
        """
        return self._tasks.endcycle()

    def task_kill(self, tid):
        """Forcibly terminate another task (generator).

        The victim's process unwinds with :class:`TaskKilled` at its next
        RTOS interaction (granularity: its current delay step — consistent
        with the model's preemption granularity). Killing yourself is
        equivalent to ``task_terminate``.
        """
        return self._tasks.kill(tid)

    def task_fork(self, tid):
        """Release a created child task from the calling task (generator).

        Beyond-paper extension (full SLDL command set): the dynamic
        counterpart of an SLDL ``Fork``. The child's SLDL process is
        spawned by the caller; ``task_fork`` makes the child's TCB ready
        so the *scheduler* decides when it runs. Returns ``tid`` as the
        join handle.
        """
        return self._tasks.fork(tid)

    def task_join(self, targets):
        """Block the calling task until the target task(s) terminate
        (generator). Beyond-paper counterpart of an SLDL ``Join``;
        accepts one task handle or an iterable of handles.
        """
        return self._tasks.join(targets)

    def par_start(self):
        """Suspend the calling (parent) task before forking children.

        The parent then performs the SLDL-level ``par`` (zero simulated
        time) and each child gates itself via ``task_activate``. Returns
        the parent's task handle (paper: ``proc par_start(void)``).
        """
        return self._tasks.par_start()

    def par_end(self, parent=None):
        """Resume the calling parent task after its ``par`` joined."""
        return self._tasks.par_end(parent)

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------

    def event_new(self, name=None):
        """Allocate an RTOS event (paper type ``evt``)."""
        return self._events.new(name)

    def event_del(self, event):
        """Deallocate an RTOS event; it must have no waiting tasks and
        no undelivered same-instant notification."""
        self._events.delete(event)

    def event_wait(self, event, timeout=None):
        """Block the calling task until ``event`` is notified (generator).

        Returns the event. With ``timeout=`` (beyond-paper extension) the
        wait additionally expires after that much simulated time and
        returns the kernel's :data:`~repro.kernel.commands.TIMEOUT`
        sentinel; ``timeout=0`` polls.
        """
        return self._events.wait(event, timeout)

    def event_wait_any(self, events, timeout=None):
        """Block until any event of ``events`` is notified (generator).

        Beyond-paper extension mirroring the kernel's multi-event
        ``Wait(e1, e2, ...)``. Returns the event that woke the task, or
        :data:`~repro.kernel.commands.TIMEOUT`.
        """
        return self._events.wait_any(events, timeout)

    def event_notify(self, event):
        """Move all tasks waiting on ``event`` into the ready queue.

        Callable from task context (generator — the caller reaches a
        scheduling point and may be preempted by a woken task) and from
        ISR/bootstrap context (no task is bound to the calling process;
        the running task is preempted per the preemption mode).
        """
        return self._events.notify(event)

    # ------------------------------------------------------------------
    # time modeling
    # ------------------------------------------------------------------

    def time_wait(self, nsec):
        """Model task execution time (replacement for SLDL ``waitfor``).

        A wrapper around the kernel's timed wait that gives the RTOS a
        scheduling point whenever time increases, enabling preemption
        modeling (Section 4.3). In ``step`` mode the delay is one
        indivisible step and a potential task switch happens at its end;
        in ``immediate`` mode the delay can be interrupted by a
        preemption and its remainder is consumed after re-dispatch.
        """
        return self._time.time_wait(nsec)

    # ------------------------------------------------------------------
    # helpers for task wrappers
    # ------------------------------------------------------------------

    def task_body(self, task, body):
        """Wrap ``body`` (a generator) into a complete task process.

        Adds the Figure-5 frame — ``task_activate`` on entry,
        ``task_terminate`` on exit — and converts :class:`TaskKilled`
        into a clean unwind. The returned generator is what gets spawned
        (directly or inside a ``par``) on the SLDL kernel.
        """

        def _runner():
            try:
                yield from self._tasks.activate(task)
                yield from body
                yield from self._tasks.terminate()
            except TaskKilled:
                self._tasks.finalize_killed(task)

        return _runner()

    @property
    def running_task(self):
        """The task currently occupying the CPU (None when idle)."""
        return self._dispatcher.running

    def self_task(self):
        """Task bound to the calling process (None in ISR context)."""
        return self._tasks.current_task()

    # ------------------------------------------------------------------
    # state exposed for tests, benches and refinement tooling
    # ------------------------------------------------------------------

    @property
    def tasks(self):
        """All task control blocks created on this model."""
        return self._tasks.tasks

    @property
    def events(self):
        """All live RTOS events allocated on this model."""
        return self._events.events

    @property
    def scheduler(self):
        """The active scheduling policy (settable while stopped).

        Setting it takes the path of ``start(sched_alg)``: tasks already
        in the ready queue migrate into the new policy.
        """
        return self._dispatcher.scheduler

    @scheduler.setter
    def scheduler(self, scheduler):
        self._dispatcher.switch_policy(scheduler)

    @property
    def preemption(self):
        """Preemption mode, ``"step"`` or ``"immediate"``."""
        return self._dispatcher.preemption

    @preemption.setter
    def preemption(self, mode):
        if mode not in ("step", "immediate"):
            raise ValueError(f"unknown preemption mode: {mode!r}")
        self._dispatcher.preemption = mode

    @property
    def switch_overhead(self):
        """Modeled context-switch cost (simulated time units)."""
        return self._dispatcher.switch_overhead

    @switch_overhead.setter
    def switch_overhead(self, overhead):
        if overhead < 0:
            raise ValueError(f"negative switch overhead: {overhead}")
        self._dispatcher.switch_overhead = int(overhead)

    # -- diagnostics ---------------------------------------------------

    def snapshot(self):
        """State of all tasks, for tests and debugging."""
        return {t.name: t.state.value for t in self._tasks.tasks}
