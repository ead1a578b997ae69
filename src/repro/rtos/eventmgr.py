"""The event-handling OS service (paper Figure 4, *event handling*).

Owns the RTOS events of one PE and implements ``event_new`` /
``event_del`` / ``event_wait`` / ``event_notify``, plus the beyond-paper
extensions of the unified wait core: multi-event waits
(``event_wait_any``) and timed waits (``timeout=``, resolving to the
kernel's :data:`~repro.kernel.commands.TIMEOUT` sentinel).

Timed waits are armed as kernel timers, so the same-instant rule of the
wait core holds across layers: timers fire at the start of a timestep,
before any process runs — a timeout and a task-context ``event_notify``
scheduled for the same instant resolve to TIMEOUT, while a
callback-context notify that was scheduled earlier than the timeout's
deadline wins (timer-queue insertion order decides).
"""

import functools
import itertools

from repro.kernel.commands import TIMEOUT
from repro.kernel.oracle import DecisionPoint
from repro.kernel.waitcore import Timer
from repro.rtos.errors import RTOSError
from repro.rtos.events import RTOSEvent
from repro.rtos.task import TaskState


class EventManager:
    """Event service of one PE's RTOS model."""

    __slots__ = ("model", "sim", "trace", "name", "dispatcher", "tasks",
                 "events", "_uid_seq", "_timeouts")

    def __init__(self, model, dispatcher, tasks):
        self.model = model
        self.sim = model.sim
        self.trace = model.trace
        self.name = model.name
        self.dispatcher = dispatcher
        self.tasks = tasks
        self.events = []
        #: per-model uid counter (see TaskManager._uid_seq)
        self._uid_seq = itertools.count()
        #: task -> its event-wait timeout timer, created at its first
        #: timed wait and re-armed by every later one
        self._timeouts = {}

    def reset(self):
        """Drop all event state and disarm the timeouts of the dropped
        tasks (RTOSModel.init)."""
        for timer in self._timeouts.values():
            self.sim.cancel_scheduled(timer)
        self._timeouts = {}
        self.events = []
        self._uid_seq = itertools.count()

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def new(self, name=None):
        """Allocate an RTOS event (paper type ``evt``)."""
        event = RTOSEvent(name, uid=next(self._uid_seq))
        self.events.append(event)
        return event

    def delete(self, event):
        """Deallocate an RTOS event; it must have no waiting tasks and
        no undelivered same-instant notification."""
        if event.queue:
            raise RTOSError(f"event_del on {event.name!r} with waiting tasks")
        if event.pending_time == self.sim.now:
            # a notify issued this timestep has not been consumed yet;
            # deleting the event now would silently lose it
            raise RTOSError(
                f"event_del on {event.name!r} with a pending notification"
            )
        # a pending_time from an earlier timestep is already stale
        # (notifications never persist across timesteps) — clear it
        event.pending_time = None
        event.deleted = True
        if event in self.events:
            self.events.remove(event)

    # ------------------------------------------------------------------
    # wait / notify
    # ------------------------------------------------------------------

    def wait(self, event, timeout=None):
        """Block the calling task until ``event`` is notified (generator).

        Returns the event, or :data:`TIMEOUT` when ``timeout`` simulated
        time units pass first. ``timeout=0`` polls: it consumes a
        same-timestep pending notification or returns TIMEOUT at once.
        """
        task = yield from self.tasks.enter()
        if event.deleted:
            raise RTOSError(f"event_wait on deleted event {event.name!r}")
        task.worked_since_release = True
        if event.pending_time == self.sim.now:
            # same-timestep rendezvous (see repro.rtos.events)
            event.pending_time = None
            return event
        if timeout is None:
            event.queue.add(task)
            task.waiting_events = (event,)
            if self.trace.on:
                self.trace.record(self.sim.now, "task", task.name, "wait", event=event.name)
        else:
            timeout = int(timeout)
            if timeout < 0:
                raise RTOSError(f"negative timeout: {timeout}")
            if timeout == 0:
                return TIMEOUT
            event.queue.add(task)
            task.waiting_events = (event,)
            if self.trace.on:
                self.trace.record(
                    self.sim.now, "task", task.name, "wait",
                    event=event.name, timeout=timeout,
                )
            self._arm_timeout(task, timeout)
        blocked_at = self.sim.now
        self.dispatcher.yield_cpu(task, TaskState.WAITING)
        yield from self.dispatcher.wait_until_running(task)
        obs = self.model.obs
        if obs is not None:
            obs.wait_latency.observe(self.sim.now - blocked_at)
        woke = task.wake_value
        task.wake_value = None
        return woke

    def wait_any(self, events, timeout=None):
        """Block until any of ``events`` is notified (generator).

        The RTOS counterpart of the kernel's multi-event ``Wait(e1, e2)``.
        Returns the event that woke the task (first pending event in
        argument order when several rendezvous at once), or TIMEOUT.
        """
        events = tuple(events)
        if not events:
            raise RTOSError("event_wait_any needs at least one event")
        task = yield from self.tasks.enter()
        now = self.sim.now
        for event in events:
            if event.deleted:
                raise RTOSError(f"event_wait_any on deleted event {event.name!r}")
        task.worked_since_release = True
        for event in events:
            if event.pending_time == now:
                event.pending_time = None
                return event
        if timeout is not None:
            timeout = int(timeout)
            if timeout < 0:
                raise RTOSError(f"negative timeout: {timeout}")
            if timeout == 0:
                return TIMEOUT
        for event in events:
            event.queue.add(task)
        task.waiting_events = events
        if self.trace.on:
            self.trace.record(
                self.sim.now, "task", task.name, "wait_any",
                events=[e.name for e in events],
                **({"timeout": timeout} if timeout is not None else {}),
            )
        if timeout is not None:
            self._arm_timeout(task, timeout)
        blocked_at = self.sim.now
        self.dispatcher.yield_cpu(task, TaskState.WAITING)
        yield from self.dispatcher.wait_until_running(task)
        obs = self.model.obs
        if obs is not None:
            obs.wait_latency.observe(self.sim.now - blocked_at)
        woke = task.wake_value
        task.wake_value = None
        return woke

    def notify(self, event):
        """Move all tasks waiting on ``event`` into the ready queue.

        Callable from task context (generator — the caller reaches a
        scheduling point and may be preempted by a woken task) and from
        ISR/bootstrap context (no task is bound to the calling process;
        the running task is preempted per the preemption mode).
        """
        if event.deleted:
            raise RTOSError(f"event_notify on deleted event {event.name!r}")
        event.notify_count += 1
        model = self.model
        src = None
        if model.spans:
            # the notifier's identity, resolved *before* delivery can
            # reschedule: a bound task, an ISR/bootstrap process, or a
            # timer callback (no process at all)
            current = self.tasks.current_task()
            if current is not None:
                src = current.name
            else:
                process = self.sim._current
                src = f"isr:{process.name}" if process is not None else "kernel"
        faults = model.faults
        if faults is None or not faults.hooks_notify:
            self._deliver(event, src)
        elif not faults.lose_notify(event):
            self._deliver(event, src)
            if faults.duplicate_notify(event):
                self._deliver(event, src)
        current = self.tasks.current_task()
        yield from self.dispatcher.resched(current)

    def _deliver(self, event, src=None):
        """One delivery of a notification: wake waiters or leave the
        same-instant pending mark (the fault layer may skip or repeat
        this; an unarmed model calls it exactly once per notify)."""
        now = self.sim.now
        woken = event.queue.pop_all()
        if woken:
            oracle = self.sim.oracle
            if oracle is not None and len(woken) > 1:
                woken = self._order_wake(event, list(woken), oracle)
            unenroll = self._unenroll
            release = self.dispatcher.release_to_ready
            for task in woken:
                unenroll(task, event)
                release(task)
        else:
            event.pending_time = now
        if not self.trace.on:
            return
        if src is None:
            self.trace.record(
                now, "task", self.name, "notify",
                event=event.name, woken=len(woken),
            )
        else:
            self.trace.record(
                now, "task", self.name, "notify",
                event=event.name, woken=len(woken), src=src,
            )

    # ------------------------------------------------------------------
    # enrollment bookkeeping (shared by notify / timeout / kill)
    # ------------------------------------------------------------------

    def _unenroll(self, task, wake):
        """Clear a woken task's wait-set enrollment; record what woke it."""
        events = task.waiting_events
        if len(events) > 1:
            for event in events:
                if event is not wake:
                    event.queue.discard(task)
        task.waiting_events = ()
        timer = task.wait_timer
        if timer is not None:
            self.sim.cancel_scheduled(timer)
            task.wait_timer = None
        task.wake_value = wake

    def detach(self, task):
        """Remove ``task`` from every wait queue and disarm its timeout.

        Used by ``task_kill``: the victim must not be woken (or time out)
        after it was condemned.
        """
        for event in task.waiting_events:
            event.queue.discard(task)
        task.waiting_events = ()
        timer = task.wait_timer
        if timer is not None:
            self.sim.cancel_scheduled(timer)
            task.wait_timer = None

    def _order_wake(self, event, remaining, oracle):
        """Oracle-armed wake ordering for a multi-waiter notify.

        Iteratively picking index 0 reproduces the FIFO pop order, so
        the FifoOracle keeps ready-queue insertion byte-identical to the
        unarmed path.
        """
        ordered = []
        now = self.sim.now
        while remaining:
            if len(remaining) == 1:
                ordered.append(remaining.pop())
                break
            index = oracle.pick(DecisionPoint(
                "wake", tuple(t.name for t in remaining),
                actor=event.name, time=now,
            ))
            ordered.append(remaining.pop(index))
        return ordered

    def _arm_timeout(self, task, timeout):
        timer = self._timeouts.get(task)
        if timer is None:
            timer = self._timeouts[task] = Timer(
                functools.partial(self._wait_timeout, task),
                f"timeout:{task.name}",
            )
        task.wait_timer = timer
        self.sim.rearm(timer, self.sim.now + timeout)

    def _wait_timeout(self, task):
        """Timer callback: the task's event wait expired."""
        task.wait_timer = None
        if task.state is not TaskState.WAITING or not task.waiting_events:
            return
        for event in task.waiting_events:
            event.queue.discard(task)
        task.waiting_events = ()
        task.wake_value = TIMEOUT
        if self.trace.on:
            self.trace.record(self.sim.now, "task", task.name, "timeout")
        self.dispatcher.release_to_ready(task)
        self.dispatcher.resched_from_outside()
