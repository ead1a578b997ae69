"""The dispatcher OS service: CPU ownership and scheduling decisions.

One :class:`Dispatcher` serializes the tasks of one PE on top of the
concurrent SLDL kernel (paper Section 4.3): at any simulated instant at
most one task is *running*; the processes of all others are parked in
the kernel (:class:`~repro.kernel.commands.Park`). Every RTOS call that
changes task states funnels through the dispatcher, which consults the
pluggable scheduler and hands the CPU to exactly one task by resuming
its process (:meth:`~repro.kernel.simulator.Simulator.resume`). The
resumed process runs in the next delta, the slot a per-task dispatch
event's wake would use, so the hand-off costs one kernel round trip
and no SLDL event. Immediate-mode preemption aborts the running task's
parked delay the same way.

The dispatcher owns the policy-level state (scheduler instance,
preemption mode, modeled context-switch overhead) and the CPU-occupancy
state (running task, last occupant, boot flag). The other OS services —
:class:`~repro.rtos.taskmgr.TaskManager`,
:class:`~repro.rtos.eventmgr.EventManager`,
:class:`~repro.rtos.timemgr.TimeManager` — delegate all blocking and
rescheduling here, so the "who gets the CPU next" logic exists once.
"""

from repro.kernel.commands import PARK, WaitFor
from repro.kernel.oracle import DecisionPoint
from repro.kernel.waitcore import Timer
from repro.rtos.errors import TaskKilled
from repro.rtos.sched import make_scheduler
from repro.rtos.task import TaskState


class Dispatcher:
    """Scheduling core of one PE's RTOS model."""

    __slots__ = (
        "model",
        "sim",
        "trace",
        "metrics",
        "name",
        "scheduler",
        "preemption",
        "switch_overhead",
        "tasks",
        "running",
        "last_occupant",
        "started",
        "_dispatch_timer",
    )

    def __init__(self, model, scheduler, preemption, switch_overhead):
        self.model = model
        self.sim = model.sim
        self.trace = model.trace
        self.metrics = model.metrics
        self.name = model.name
        self.scheduler = scheduler
        scheduler.bind(self)
        self.preemption = preemption
        self.switch_overhead = switch_overhead
        #: wired by the facade: the PE's TaskManager (policy migration
        #: on a live scheduler switch needs the task list)
        self.tasks = None
        self.running = None
        self.last_occupant = None
        self.started = False
        #: the deferred dispatch decision, pending while its entry is
        #: set; the label names it in oracle trails and recorded
        #: schedules
        self._dispatch_timer = Timer(
            self._deferred_dispatch, f"dispatch:{self.name}"
        )

    def reset(self):
        """Forget all occupancy state and the ready queue, and cancel a
        pending dispatch decision (RTOSModel.init)."""
        self.running = None
        self.last_occupant = None
        self.started = False
        self.sim.cancel_scheduled(self._dispatch_timer)
        scheduler = self.scheduler
        for task in scheduler.ready_tasks:
            scheduler.remove(task)

    def start(self, sched_alg=None):
        """Unlock the scheduler, optionally switching the policy live."""
        if sched_alg is not None:
            self.switch_policy(sched_alg)
        self.started = True
        self.dispatch_if_idle()

    def switch_policy(self, spec):
        """Install the policy ``spec`` names (the one policy-switch path).

        Anything :func:`~repro.rtos.sched.make_scheduler` accepts. Tasks
        already queued migrate into the new policy's ready queue, which
        stores their keys under the new policy.
        """
        new_scheduler = make_scheduler(spec)
        if new_scheduler is self.scheduler:
            return
        now = self.sim.now
        # migrate tasks that queued up before the policy switch
        for task in self.scheduler.ready_tasks:
            new_scheduler.on_ready(task, now)
        # the old policy's time-slicing state is meaningless under the
        # new one: the current occupant starts a fresh slice, everyone
        # else gets theirs at their next dispatch
        for task in self.tasks.tasks:
            if task is self.running:
                new_scheduler.on_dispatch(task, now)
            else:
                task.slice_start = None
        self.scheduler = new_scheduler
        new_scheduler.bind(self)

    # ------------------------------------------------------------------
    # dispatch decisions
    # ------------------------------------------------------------------

    def release_to_ready(self, task):
        """Insert ``task`` into the scheduler's ready queue."""
        task.state = TaskState.READY
        self.scheduler.on_ready(task, self.sim.now)

    def dispatch_if_idle(self):
        """Request a dispatch decision for an idle CPU.

        The decision is deferred to the end of the current simulated
        instant (all delta activity settled) so that a burst of
        same-instant activations — e.g. the children forked by a ``par``
        (Figure 6) — is scheduled by priority, not by the incidental
        order the activations executed in.
        """
        if not self.started or self.running is not None:
            return
        timer = self._dispatch_timer
        if timer.entry is None:
            self.sim.rearm(timer, self.sim.now)

    def _deferred_dispatch(self):
        if not self.started or self.running is not None:
            return
        scheduler = self.scheduler
        oracle = self.sim.oracle
        if oracle is None:
            candidate = scheduler.peek(self.sim.now)
        else:
            candidate = self._pick_tied(scheduler, oracle)
        if candidate is None:
            return
        scheduler.remove(candidate)
        self._dispatch(candidate)

    def _pick_tied(self, scheduler, oracle):
        """Oracle-armed dispatch pick among key-tied ready tasks.

        ``tied_best(now)[0]`` equals ``peek(now)``'s choice, so index 0
        (FIFO) reproduces the default dispatch byte-for-byte.
        """
        now = self.sim.now
        tied = scheduler.tied_best(now)
        if not tied:
            return None
        if len(tied) == 1:
            return tied[0]
        index = oracle.pick(DecisionPoint(
            "dispatch", tuple(t.name for t in tied),
            actor=self.name, time=now,
        ))
        return tied[index]

    def _dispatch(self, task):
        now = self.sim.now
        scheduler = self.scheduler
        task.state = TaskState.RUNNING
        self.running = task
        task.stats.dispatches += 1
        self.metrics.dispatches += 1
        obs = self.model.obs
        if obs is not None:
            # depth *after* removing the dispatched task: tasks left
            # waiting for the CPU at this dispatch decision
            obs.ready_depth.set(len(scheduler))
        scheduler.on_dispatch(task, now)
        if self.trace.on:
            self.trace.record(now, "sched", self.name, "dispatch", task=task.name)
        self.resume(task)

    def resume(self, task):
        """Wake ``task``'s process if it is parked (next delta).

        A task activated by another task may be dispatched before its
        own process first ran; that process then finds itself running
        when it self-activates, and there is nothing to wake.
        """
        process = task.process
        if process is not None:
            self.sim.resume(process)

    def yield_cpu(self, task, new_state):
        """The calling/affected task gives up the CPU."""
        now = self.sim.now
        run_start = task.run_start
        if run_start is not None:
            ran = now - run_start
            if self.trace.on:
                self.trace.segment(task.name, run_start, now)
            task.stats.exec_time += ran
            self.metrics.busy_time += ran
            monitor = self.model.monitor
            if monitor is not None:
                monitor.on_yield(task, now)
            task.run_start = None
        self.scheduler.on_yield(task, now)
        if new_state is TaskState.READY:
            self.release_to_ready(task)
        else:
            task.state = new_state
        if self.running is task:
            self.running = None
        self.dispatch_if_idle()

    # ------------------------------------------------------------------
    # blocking protocol (generators driven by task processes)
    # ------------------------------------------------------------------

    def wait_until_running(self, task):
        """Block the calling process until ``task`` owns the CPU.

        Accounts context switches and, when configured, consumes the
        modeled switch overhead before the task's execution resumes.
        """
        while True:
            while self.running is not task:
                if task.killed:
                    raise TaskKilled(task.name)
                yield PARK
            if task.killed:
                raise TaskKilled(task.name)
            previous = self.last_occupant
            if previous is not task:
                if previous is not None:
                    self.metrics.context_switches += 1
                    if self.trace.on:
                        self.trace.record(
                            self.sim.now, "sched", self.name, "switch",
                            frm=previous.name, to=task.name,
                        )
                self.last_occupant = task
                if self.switch_overhead and previous is not None:
                    started = self.sim.now
                    yield WaitFor(self.switch_overhead)
                    self.metrics.overhead_time += self.sim.now - started
                    if self.running is not task:
                        # preempted during the switch itself (immediate
                        # mode): queue up again
                        continue
            break
        task.run_start = self.sim.now
        monitor = self.model.monitor
        if monitor is not None:
            monitor.on_dispatch(task)

    def schedule_point(self, task):
        """Scheduling point reached by the running task (generator)."""
        if task.killed:
            raise TaskKilled(task.name)
        if self.running is not task:
            # lost the CPU asynchronously (immediate mode)
            yield from self.wait_until_running(task)
            return
        scheduler = self.scheduler
        now = self.sim.now
        candidate = scheduler.peek(now)
        if candidate is None:
            if not scheduler.expired(task, now):
                return
            # server budget exhausted and nothing else eligible: the
            # CPU idles until the next replenishment (the supply model
            # the analysis assumes — no silent budget overdraft)
            task.stats.preemptions += 1
            self.metrics.preemptions += 1
            if self.trace.on:
                self.trace.record(
                    now, "sched", self.name, "preempt",
                    task=task.name, by="budget",
                )
            self.yield_cpu(task, TaskState.READY)
            yield from self.wait_until_running(task)
            return
        if not scheduler.preempts(candidate, task, now):
            return
        task.stats.preemptions += 1
        self.metrics.preemptions += 1
        if self.trace.on:
            self.trace.record(
                self.sim.now, "sched", self.name, "preempt",
                task=task.name, by=candidate.name,
            )
        self.yield_cpu(task, TaskState.READY)
        yield from self.wait_until_running(task)

    def resched(self, current):
        """Rescheduling decision after a state change (generator).

        ``current`` is the task bound to the calling process, or None for
        ISR/bootstrap contexts.
        """
        if current is not None and current is self.running:
            yield from self.schedule_point(current)
        else:
            self.resched_from_outside()

    def resched_from_outside(self):
        """Scheduling decision from ISR/timer/bootstrap context."""
        if self.running is None:
            self.dispatch_if_idle()
            return
        running = self.running
        candidate = self.scheduler.peek(self.sim.now)
        if candidate is None or not self.scheduler.preempts(candidate, running, self.sim.now):
            return
        if self.preemption == "immediate":
            running.stats.preemptions += 1
            self.metrics.preemptions += 1
            if self.trace.on:
                self.trace.record(
                    self.sim.now, "sched", self.name, "preempt",
                    task=running.name, by=candidate.name,
                )
            self.yield_cpu(running, TaskState.READY)
            # abort the parked delay of the running task
            self.resume(running)
        # step mode: the running task switches at its next scheduling
        # point (paper: t4 -> t4', Figure 8(b))

    def preempt_running(self, server):
        """Force the running task off the CPU (immediate mode only).

        Unlike :meth:`resched_from_outside` this does not require a
        better-keyed candidate: the hierarchical scheduler calls it when
        the running task's server exhausts its budget, at which point the
        task must stop even if nothing else is ready. The task re-enters
        the ready queue and competes again once its server replenishes.
        The preempt record names the cause ``budget:<server>``.
        """
        running = self.running
        if running is None:
            return
        running.stats.preemptions += 1
        self.metrics.preemptions += 1
        if self.trace.on:
            self.trace.record(
                self.sim.now, "sched", self.name, "preempt",
                task=running.name, by=f"budget:{server}",
            )
        self.yield_cpu(running, TaskState.READY)
        self.resume(running)
