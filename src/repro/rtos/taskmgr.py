"""The task-management OS service (paper Figure 4, *task management*).

Owns the task control blocks of one PE and implements every Figure-4
call that creates, activates, suspends or terminates tasks, plus the
beyond-paper ``task_fork`` / ``task_join`` pair used by the refinement of
SLDL ``Fork``/``Join`` commands. All CPU handover goes through the
:class:`~repro.rtos.dispatch.Dispatcher`; event enrollments of killed
tasks are cleaned up through the
:class:`~repro.rtos.eventmgr.EventManager`.
"""

import functools
import itertools

from repro.kernel.waitcore import Timer
from repro.rtos.errors import RTOSError, TaskKilled
from repro.rtos.task import (
    APERIODIC,
    DEFAULT_PRIORITY,
    PERIODIC,
    Task,
    TaskState,
)

#: label of a periodic task's release timer when ``task_endcycle`` arms
#: it. Recorded schedules, deadlock paths and explorer fingerprints name
#: timers by label, so the string must not change.
_RELEASE_LABEL = "TaskManager.endcycle.<locals>.<lambda>"


class TaskManager:
    """Task lifecycle service of one PE's RTOS model."""

    __slots__ = ("model", "sim", "trace", "metrics", "name", "dispatcher",
                 "events", "tasks", "names", "by_process", "_uid_seq")

    def __init__(self, model, dispatcher):
        self.model = model
        self.sim = model.sim
        self.trace = model.trace
        self.metrics = model.metrics
        self.name = model.name
        self.dispatcher = dispatcher
        #: wired by the facade: the PE's EventManager (kill-time detach)
        self.events = None
        self.tasks = []
        #: names of this model's tasks that have not terminated
        self.names = set()
        self.by_process = {}
        #: per-model uid counter: task uids depend only on creation order
        #: *within* this model, never on other models in the process
        self._uid_seq = itertools.count()

    def _observe_response(self, task, response):
        """Record one response time in both stat layers."""
        task.stats.response_times.append(response)
        obs = self.model.obs
        if obs is not None:
            obs.response(task.name).observe(response)

    def reset(self):
        """Drop all task state and disarm the dropped tasks' releases
        (RTOSModel.init)."""
        for task in self.tasks:
            if task.release_timer is not None:
                self.sim.cancel_scheduled(task.release_timer)
        self.tasks = []
        self.names = set()
        self.by_process = {}
        self._uid_seq = itertools.count()

    # ------------------------------------------------------------------
    # Figure-4 calls
    # ------------------------------------------------------------------

    def create(self, name, tasktype, period, wcet, priority=None, rel_deadline=None):
        """Allocate a task control block; returns the task handle."""
        if tasktype not in (PERIODIC, APERIODIC):
            raise RTOSError(f"unknown task type: {tasktype!r}")
        if tasktype == PERIODIC and period <= 0:
            raise RTOSError(f"periodic task {name!r} needs a positive period")
        if name in self.names:
            raise RTOSError(
                f"task name {name!r} is taken by a live task of {self.name!r}")
        if priority is None:
            priority = DEFAULT_PRIORITY
        task = Task(name, tasktype, period, wcet, priority, rel_deadline,
                    uid=next(self._uid_seq))
        if tasktype == PERIODIC:
            task.release_timer = Timer(
                functools.partial(self._periodic_release, task),
                _RELEASE_LABEL,
            )
        self.tasks.append(task)
        self.names.add(name)
        if not self.model.spans:
            self.trace.record(self.sim.now, "task", name, "create")
        else:
            self.trace.record(
                self.sim.now, "task", name, "create", kind=tasktype,
                period=period, wcet=wcet, priority=priority,
                **({} if rel_deadline is None else {"deadline": rel_deadline}),
            )
        return task

    def activate(self, tid):
        """Activate a task (generator): self-activation binds and blocks
        until dispatched; activating another readies it."""
        current = self.current_task()
        process = self.sim._current
        if tid.process is None and current is None:
            # self-activation: first RTOS contact of this task's process
            if process is None:
                raise RTOSError("task_activate outside of a process")
            tid.process = process
            self.by_process[process.uid] = tid
            if tid.state is TaskState.NEW:
                self._release_task(tid)
            self.dispatcher.dispatch_if_idle()
            yield from self.dispatcher.wait_until_running(tid)
            return
        if tid.state in (TaskState.SLEEPING, TaskState.NEW):
            self._release_task(tid)
            yield from self.dispatcher.resched(current)
            return
        if tid.state is TaskState.TERMINATED:
            raise RTOSError(f"cannot activate terminated task {tid.name!r}")
        # already ready/running/waiting: activation is a no-op

    def terminate(self):
        """Terminate the calling task (generator); does not return the CPU
        to the caller."""
        task = yield from self.enter()
        if task.activation_time is not None:
            if not task.is_periodic:
                self._observe_response(
                    task, self.sim.now - task.activation_time
                )
            elif task.worked_since_release:
                # final (incomplete) cycle of a periodic task that
                # terminates mid-cycle: record it against the release,
                # like task_endcycle does for completed cycles
                self._observe_response(
                    task, self.sim.now - task.release_time
                )
        self.trace.record(self.sim.now, "task", task.name, "terminate")
        self._wake_joiners(task)
        self.dispatcher.yield_cpu(task, TaskState.TERMINATED)
        self.names.discard(task.name)

    def sleep(self):
        """Suspend the calling task until someone ``task_activate``-s it."""
        task = yield from self.enter()
        self.trace.record(self.sim.now, "task", task.name, "sleep")
        self.dispatcher.yield_cpu(task, TaskState.SLEEPING)
        yield from self.dispatcher.wait_until_running(task)

    def endcycle(self):
        """End the current execution cycle of the calling task."""
        # inlined entry protocol (see enter): like time_wait, endcycle
        # runs once per periodic cycle, and a caller that holds the CPU
        # must not pay for a nested generator
        task = self.current_task()
        if task is None:
            raise RTOSError("RTOS call from a process that is not a task")
        if task.killed:
            raise TaskKilled(task.name)
        if self.dispatcher.running is not task:
            yield from self.dispatcher.wait_until_running(task)
        now = self.sim.now
        model = self.model
        monitor = model.monitor
        task.stats.cycles_completed += 1
        if task.is_periodic:
            self._observe_response(task, now - task.release_time)
            deadline = task.abs_deadline
            if deadline is not None and now > deadline:
                # the monitor's deadline watchdog already counted this
                # miss eagerly when the deadline expired; don't double up
                if monitor is None or not monitor.consume_miss(task):
                    task.stats.deadline_misses += 1
                    self.metrics.deadline_misses += 1
                    if self.trace.on:
                        self.trace.record(now, "task", task.name, "deadline_miss")
            next_release = task.release_time + task.period
            if monitor is not None:
                next_release = monitor.adjust_release(task, now, next_release)
            if model.mc is not None:
                next_release = model.mc.adjust_release(task, now, next_release)
            if next_release <= now:
                # overrun: the next instance is already due
                release = task.release_time
                self._set_release(task, next_release)
                if model.spans:
                    # span sources: completion edge, then the release
                    # edge no timer will fire for (already due)
                    self.trace.record(now, "task", task.name, "endcycle",
                                      release=release)
                    self.trace.record(now, "task", task.name, "release",
                                      at=next_release)
                yield from self.dispatcher.schedule_point(task)
                return
            release = task.release_time
            self.dispatcher.yield_cpu(task, TaskState.IDLE_PERIOD)
            if model.spans:
                # after yield_cpu so the cycle's final execution segment
                # precedes the completion edge in the stream
                self.trace.record(now, "task", task.name, "endcycle",
                                  release=release)
            timer = task.release_timer
            timer.label = _RELEASE_LABEL
            self.sim.rearm(timer, next_release)
            yield from self.dispatcher.wait_until_running(task)
        else:
            release = task.release_time
            self.dispatcher.yield_cpu(task, TaskState.SLEEPING)
            if model.spans:
                self.trace.record(now, "task", task.name, "endcycle",
                                  release=release)
            yield from self.dispatcher.wait_until_running(task)

    def kill(self, tid):
        """Forcibly terminate another task (generator)."""
        task = yield from self.enter()
        if tid is task:
            # self-kill: unwind via TaskKilled so execution stops here
            # (the task_body wrapper finalizes the bookkeeping)
            raise TaskKilled(task.name)
        if tid.state is TaskState.TERMINATED:
            return
        self.condemn(tid)

    def condemn(self, tid):
        """Condemn ``tid`` to unwind via :class:`TaskKilled` (plain call).

        The non-generator core of :meth:`kill`, also callable from
        ISR/timer-callback context — fault injection (``task_crash``)
        and watchdog ``kill`` policies reap tasks through this.
        """
        if tid.state is TaskState.TERMINATED:
            return
        tid.killed = True
        self.dispatcher.scheduler.remove(tid)
        self.events.detach(tid)
        if tid.join_target is not None:
            # the victim was blocked joining someone: unhook it so the
            # target's termination does not touch a dead TCB
            try:
                tid.join_target.joiners.remove(tid)
            except ValueError:
                pass
            tid.join_target = None
        self.trace.record(self.sim.now, "task", tid.name, "kill")
        # wake the victim wherever it blocks so it can unwind: parked
        # (waiting for the CPU, in an abortable delay, hung) or queued
        # for the bus
        self.dispatcher.resume(tid)
        tid.kill_evt.fire(self.sim)

    def par_start(self):
        """Suspend the calling (parent) task before forking children."""
        task = yield from self.enter()
        self.trace.record(self.sim.now, "task", task.name, "par_start")
        self.dispatcher.yield_cpu(task, TaskState.PARENT_WAIT)
        return task

    def par_end(self, parent=None):
        """Resume the calling parent task after its ``par`` joined."""
        task = self.current_task()
        if task is None:
            raise RTOSError("par_end outside of a task")
        if parent is not None and parent is not task:
            raise RTOSError("par_end called with a foreign task handle")
        if task.killed:
            raise TaskKilled(task.name)
        self.trace.record(self.sim.now, "task", task.name, "par_end")
        task.state = TaskState.READY
        self.dispatcher.scheduler.on_ready(task, self.sim.now)
        self.dispatcher.resched_from_outside()
        yield from self.dispatcher.wait_until_running(task)

    # ------------------------------------------------------------------
    # fork / join (beyond-paper: full SLDL command set, Figure-4 style)
    # ------------------------------------------------------------------

    def fork(self, tid):
        """Release a child task from the calling task (generator).

        The dynamic counterpart of an SLDL ``Fork``: the child's process
        is spawned by the caller at the SLDL level; ``fork`` makes the
        child's TCB ready *now* so the scheduler — not spawn order —
        decides who runs. The caller keeps the CPU until this scheduling
        point decides otherwise. Returns ``tid`` as the join handle.
        """
        task = yield from self.enter()
        if tid.state is TaskState.TERMINATED:
            raise RTOSError(f"cannot fork terminated task {tid.name!r}")
        if tid.state is TaskState.NEW:
            self._release_task(tid)
        self.trace.record(self.sim.now, "task", task.name, "fork", child=tid.name)
        yield from self.dispatcher.resched(task)
        return tid

    def join(self, targets):
        """Block the calling task until the target task(s) terminated.

        The dynamic counterpart of an SLDL ``Join``. Accepts one task or
        an iterable of tasks; returns once all of them reached
        ``TERMINATED`` (tasks killed while joined-on count as terminated).
        """
        task = yield from self.enter()
        if isinstance(targets, Task):
            targets = (targets,)
        for target in targets:
            if target is task:
                raise RTOSError(f"task {task.name!r} cannot join itself")
            while target.state is not TaskState.TERMINATED:
                task.worked_since_release = True
                target.joiners.append(task)
                task.join_target = target
                self.trace.record(
                    self.sim.now, "task", task.name, "join", on=target.name
                )
                self.dispatcher.yield_cpu(task, TaskState.WAITING)
                yield from self.dispatcher.wait_until_running(task)
                task.join_target = None

    def _wake_joiners(self, task):
        """Ready every task blocked in ``join`` on ``task``'s termination.

        Called with the terminating task still holding the CPU, so the
        joiners land in the ready queue before the dispatch decision in
        ``yield_cpu`` picks a successor.
        """
        if not task.joiners:
            return
        for joiner in task.joiners:
            if joiner.state is TaskState.WAITING and joiner.join_target is task:
                joiner.join_target = None
                self.dispatcher.release_to_ready(joiner)
        task.joiners = []

    # ------------------------------------------------------------------
    # wrappers / shared entry protocol
    # ------------------------------------------------------------------

    def current_task(self):
        """Task bound to the calling process (None in ISR context)."""
        process = self.sim._current
        if process is None:
            return None
        return self.by_process.get(process.uid)

    def enter(self):
        """Entry protocol of blocking RTOS calls (generator).

        Ensures the caller is a bound task and owns the CPU; a task that
        was asynchronously preempted (immediate mode) between calls first
        waits to be re-dispatched.
        """
        task = self.current_task()
        if task is None:
            raise RTOSError("RTOS call from a process that is not a task")
        if task.killed:
            raise TaskKilled(task.name)
        if self.dispatcher.running is not task:
            yield from self.dispatcher.wait_until_running(task)
        return task

    def finalize_killed(self, task):
        """Clean up a task whose process unwound via TaskKilled."""
        self._wake_joiners(task)
        if task.run_start is not None:
            self.dispatcher.yield_cpu(task, TaskState.TERMINATED)
        else:
            task.state = TaskState.TERMINATED
            if self.dispatcher.running is task:
                self.dispatcher.running = None
                self.dispatcher.dispatch_if_idle()
        self.names.discard(task.name)
        self.trace.record(self.sim.now, "task", task.name, "killed")

    # ------------------------------------------------------------------
    # release bookkeeping
    # ------------------------------------------------------------------

    def _release_task(self, task):
        """First (or re-) activation bookkeeping + ready insertion."""
        now = self.sim.now
        if task.activation_time is None:
            task.activation_time = now
            task.stats.activations += 1
            self._set_release(task, now)
        else:
            task.stats.activations += 1
        task.killed = False
        self.dispatcher.release_to_ready(task)
        if self.trace.on:
            self.trace.record(now, "task", task.name, "activate")

    def _set_release(self, task, release_time):
        task.release_time = release_time
        task.release_seq += 1
        task.worked_since_release = False
        if task.is_periodic:
            deadline = task.rel_deadline if task.rel_deadline is not None else task.period
            task.abs_deadline = release_time + deadline
        elif task.rel_deadline is not None:
            task.abs_deadline = release_time + task.rel_deadline
        monitor = self.model.monitor
        if monitor is not None:
            monitor.on_release(task)

    def _periodic_release(self, task):
        """Release-timer callback: the next instance of a periodic task
        is due now."""
        if task.killed or task.state is not TaskState.IDLE_PERIOD:
            return
        release_time = self.sim.now
        mc = self.model.mc
        if mc is not None and mc.suppress_release(task, release_time):
            # degraded in a raised criticality mode: the MC controller
            # swallowed this release and keeps the release chain alive
            return
        self._set_release(task, release_time)
        self.dispatcher.release_to_ready(task)
        if self.trace.on:
            self.trace.record(self.sim.now, "task", task.name, "release")
        self.dispatcher.resched_from_outside()
