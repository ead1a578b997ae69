"""The time-modeling OS service (paper Figure 4, *time modeling*).

Implements ``time_wait`` — the replacement for SLDL ``waitfor`` that
gives the RTOS a scheduling point whenever simulated time advances
(Section 4.3). This is the hottest RTOS call: the delay itself is a
reusable kernel :class:`~repro.kernel.commands.WaitFor` (step mode) or
timed :class:`~repro.kernel.commands.Park` (immediate mode, aborted by
the dispatcher's ``resume`` on preemption), and one inlined post-delay
scheduling check serves both modes, so the common no-preemption case
costs no extra generator frame.
"""

from repro.kernel.commands import PARK, TIMEOUT, Park, WaitFor
from repro.rtos.errors import RTOSError, TaskKilled


class TimeManager:
    """Execution-time modeling service of one PE's RTOS model."""

    __slots__ = ("model", "sim", "dispatcher", "tasks", "_waitfor", "_park")

    def __init__(self, model, dispatcher, tasks):
        self.model = model
        self.sim = model.sim
        self.dispatcher = dispatcher
        self.tasks = tasks
        #: reusable delay commands — the kernel reads ``delay`` /
        #: ``timeout`` synchronously at the yield, so one mutable
        #: instance each per model suffices (at most one task executes
        #: at a time): the step-mode delay and the immediate-mode
        #: abortable delay
        self._waitfor = WaitFor(0)
        self._park = Park(0)

    def time_wait(self, nsec):
        """Model task execution time (generator; see RTOSModel.time_wait)."""
        nsec = int(nsec)
        if nsec < 0:
            raise RTOSError(f"negative delay: {nsec}")
        dispatcher = self.dispatcher
        # inlined entry protocol: time_wait is the hottest RTOS call, and
        # in the common case (caller owns the CPU, not killed) the entry
        # protocol never yields — skip the nested-generator round trip
        task = self.tasks.current_task()
        if task is None:
            raise RTOSError("RTOS call from a process that is not a task")
        if task.killed:
            raise TaskKilled(task.name)
        # the hottest RTOS call: one model load serves both guards
        model = self.model
        faults = model.faults
        if faults is not None and faults.hooks_exec:
            # exec-time faults perturb the delay before instrumentation
            # sees it, so observed delays match what actually elapses
            nsec = faults.perturb_exec(task, nsec)
            if nsec is None:
                # injected hang: the task stops making progress but
                # never yields the CPU; only being killed (task_kill or
                # a watchdog kill policy resuming the park) unwinds it
                while True:
                    yield PARK
                    if task.killed:
                        raise TaskKilled(task.name)
        obs = model.obs
        if obs is not None:
            obs.time_wait_delay.observe(nsec)
        if dispatcher.running is not task:
            yield from dispatcher.wait_until_running(task)
        if nsec == 0:
            yield from dispatcher.schedule_point(task)
            return
        task.worked_since_release = True
        sim = self.sim
        if dispatcher.preemption == "step":
            self._waitfor.delay = nsec
            yield self._waitfor
        else:
            park = self._park
            remaining = nsec
            while remaining > 0:
                started = sim.now
                park.timeout = remaining
                fired = yield park
                remaining -= sim.now - started
                if task.killed:
                    raise TaskKilled(task.name)
                if fired is TIMEOUT:
                    break
                # preempted mid-delay: the preemptor already handed the
                # CPU over; queue up for re-dispatch, then resume the rest
                yield from dispatcher.wait_until_running(task)
        # inlined schedule-point fast path, shared by both modes: when
        # no ready task preempts the caller, the scheduling point is a
        # pure check and must not cost a generator; fall back for the
        # rare preemption/kill/lost-CPU cases
        if not task.killed and dispatcher.running is task:
            scheduler = dispatcher.scheduler
            now = sim.now
            candidate = scheduler.peek(now)
            if candidate is None:
                if not scheduler.expired(task, now):
                    return
            elif not scheduler.preempts(candidate, task, now):
                return
        yield from dispatcher.schedule_point(task)
