"""The discrete-event simulation engine.

The :class:`Simulator` executes processes under SpecC-like semantics:

* Simulated time is a non-negative integer; it only moves forward.
* Within one timestep, execution proceeds in *delta cycles*: all runnable
  processes execute until they block; processes woken by event
  notifications run in the next delta of the same timestep; when no
  process is runnable, time advances to the earliest pending timer.
* Scheduling is deterministic: processes run in the order they became
  ready (FIFO per delta), and timers fire in (time, insertion) order.
* A process blocked in a ``Park`` waits on no event: :meth:`resume`
  wakes it for the next delta, like an event wake, or its optional
  timeout fires. The RTOS model hands tasks the CPU this way.

Hot-path design (see DESIGN.md "Performance notes"):

* Commands are dispatched through a type-keyed table
  (``command class -> bound _execute_* handler``) instead of an
  ``isinstance`` chain; command classes carry a class-level ``tag`` that
  names their handler.
* Blocking mechanics — the timer heap with compaction, waiter queues
  and wait-any selection — live in the shared wait core
  (:mod:`repro.kernel.waitcore`), which the RTOS model reuses; the
  simulator only contributes the process scheduling glue.
* One timer per owner: every process re-arms its one resume timer for
  each timed wait, and the RTOS layer re-arms the callback timers its
  owners keep through :meth:`Simulator.rearm`. Only one-shot callbacks
  (:meth:`Simulator.schedule_at`: interrupt sources, fault crashes)
  allocate a timer.
* ``stats`` counters live in flat attributes aggregated per blocking
  step, not per-command dict updates.
"""

import heapq

from repro.kernel.commands import (
    TIMEOUT,
    Fork,
    Join,
    Notify,
    Now,
    Par,
    Park,
    Wait,
    WaitFor,
)
from repro.kernel.errors import DeadlockError, KernelError, SimulationError
from repro.kernel.oracle import DecisionPoint
from repro.kernel.process import Process, ProcessState
from repro.kernel.trace import Trace
from repro.kernel.waitcore import (
    TimerQueue,
    pending_candidates,
    select_pending,
    timer_label,
)

_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING
_TIMED = ProcessState.TIMED
_WAITING = ProcessState.WAITING
_PARKED = ProcessState.PARKED
_TERMINATED = ProcessState.TERMINATED


class Simulator:
    """Discrete-event simulator with delta-cycle semantics.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.kernel.trace.Trace` recorder. If omitted
        or ``None``, a fresh one is created; to share a recorder between
        models, pass the same ``Trace`` object to each.
    delta_limit:
        Safety bound on the number of delta cycles within a single
        timestep; exceeding it raises :class:`KernelError` (catches
        zero-delay notify loops).
    """

    def __init__(self, trace=None, delta_limit=100_000):
        self.now = 0
        self.delta = 0
        #: shared (time, delta) stamp object: rebuilt whenever time or
        #: delta advances, so events can test "pending in this delta"
        #: by identity instead of building a tuple per check
        self._stamp = (0, 0)
        self.trace = trace if trace is not None else Trace()
        self._delta_limit = delta_limit
        self._run_queue = []  # processes runnable in current delta
        self._next_delta = []  # processes woken for the next delta
        self._timers = TimerQueue()  # shared wait-core timed-wait engine
        self._live = set()  # non-terminated processes
        self._current = None  # process currently executing a step
        self._started = False
        #: installed ScheduleOracle, or None — the unarmed default. None
        #: means every decision point takes its historical FIFO
        #: tie-break on the branch-free hot path (the obs-style
        #: ``is None`` guard); install_oracle() routes ready-set choice,
        #: same-instant timer order and wait-any selection through the
        #: oracle instead.
        self.oracle = None
        self._n_spawned = 0
        self._n_steps = 0
        self._n_notifications = 0
        self._n_timer_fires = 0
        self._n_deltas = 0
        self._n_timesteps = 0
        # type-keyed command dispatch: class -> bound handler; command
        # subclasses are resolved through their MRO on first use
        self._dispatch = {
            cls: getattr(self, "_execute_" + cls.tag)
            for cls in (WaitFor, Wait, Park, Notify, Now, Par, Fork, Join)
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def stats(self):
        """Kernel activity counters, aggregated on access.

        The counters live in flat attributes (cheap to bump on the hot
        path); this property materializes them as the familiar dict.
        """
        return {
            "spawned": self._n_spawned,
            "steps": self._n_steps,
            "notifications": self._n_notifications,
            "timer_fires": self._n_timer_fires,
            "deltas": self._n_deltas,
            "timesteps": self._n_timesteps,
        }

    def stats_delta(self, since=None):
        """Snapshot/diff helper for the activity counters.

        ``stats_delta()`` returns the current counters (a snapshot usable
        as a baseline); ``stats_delta(baseline)`` returns the per-counter
        difference since that baseline::

            before = sim.stats_delta()
            sim.run(until=...)
            assert sim.stats_delta(before)["steps"] == expected
        """
        current = self.stats
        if since is None:
            return current
        return {key: current[key] - since.get(key, 0) for key in current}

    def spawn(self, runnable, name=None):
        """Create a process from ``runnable`` and schedule it.

        ``runnable`` may be a generator, an object with a ``main()``
        generator method (a :class:`~repro.kernel.behavior.Behavior`), or
        a zero-argument callable returning a generator.
        """
        gen = _as_generator(runnable)
        if name is None:
            name = getattr(runnable, "name", None)
        process = Process(gen, name, self)
        self._live.add(process)
        self._run_queue.append(process)
        self._n_spawned += 1
        return process

    def schedule_at(self, time, callback, label=None):
        """Run ``callback()`` when simulated time reaches ``time``.

        Used by hardware models (interrupt sources, timers). The callback
        executes before the processes of that timestep and may notify
        events or spawn processes; it must not block. ``label`` names
        the timer at same-instant fire-order decision points (see
        :mod:`repro.kernel.oracle`); unlabeled callbacks fall back to
        the callback's qualified name.
        """
        time = int(time)
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        return self._timers.schedule_callback(time, callback, label)

    def schedule_after(self, delay, callback, label=None):
        """Run ``callback()`` after ``delay`` time units."""
        return self.schedule_at(self.now + int(delay), callback, label)

    def rearm(self, timer, time):
        """Queue ``timer`` to fire at ``time``, in place.

        The way to arm a timer its owner keeps for life (a
        :class:`~repro.kernel.waitcore.Timer` built once with its
        callback and label): a queued timer is moved, a fired or
        cancelled one is queued again, and nothing is allocated but the
        heap entry. Same-instant order is arming order, as for
        :meth:`schedule_at`.
        """
        time = int(time)
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        self._timers.push(time, timer)

    def resume(self, process):
        """Wake ``process`` from a :class:`~repro.kernel.commands.Park`.

        The process runs in the next delta — the slot an event wake
        uses — and its park evaluates to ``None``; a pending park
        timeout is cancelled. A no-op unless the process is still
        parked: a process whose park timeout already fired (even
        earlier in the same timer cohort) is queued to run with
        ``TIMEOUT`` and is not woken twice.
        """
        if process.state is not _PARKED:
            return
        timer = process.timer
        if timer.entry is not None:
            self._timers.cancel(timer)
        process.state = _READY
        self._next_delta.append(process)

    def install_oracle(self, oracle):
        """Route every kernel decision point through ``oracle``.

        Must be called before :meth:`run`; the run loop binds the
        installed oracle once on entry. With an oracle installed, the
        ready-set choice of each delta, the fire order of same-instant
        timers and multi-event wait-any selection are resolved by
        ``oracle.pick`` — layers above do the same for dispatch ties,
        wake order, IRQ arrival slots and fault branches. Returns the
        oracle for chaining.
        """
        self.oracle = oracle
        return oracle

    def clear_oracle(self):
        """Restore the unarmed (implicit-FIFO) hot path."""
        self.oracle = None

    def cancel_scheduled(self, timer):
        """Cancel a timer from :meth:`schedule_at` or armed by :meth:`rearm`.

        Cancellation is lazy (wait-core :class:`TimerQueue` semantics):
        the entry is marked dead and skipped when its time comes. A
        timer that is not queued (already fired or cancelled) is left
        alone; :meth:`rearm` queues it again.
        """
        self._timers.cancel(timer)

    def run(self, until=None, check_deadlock=False):
        """Execute the simulation.

        Runs until no activity remains, or until simulated time would
        exceed ``until`` (in which case ``now`` is set to ``until``).
        An ``until`` before ``now`` raises :class:`ValueError`: time
        never moves backwards.

        With ``check_deadlock=True``, raises :class:`DeadlockError` if the
        simulation ends (without ``until`` being the cause) while
        processes are still blocked.

        Before it returns (or raises :class:`DeadlockError`), ``run``
        flushes the trace's sink, so a buffering sink (a JSONL file, a
        :class:`~repro.obs.spans.SpanBuilder` and its analyzers) holds
        everything recorded so far.
        """
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until {until} < now {self.now}")
        self._started = True
        deltas_this_step = 0
        step = self._step
        oracle = self.oracle
        while True:
            run_queue = self._run_queue
            if run_queue:
                if oracle is not None:
                    self._drain_delta_choices(oracle)
                else:
                    # drain the current delta; spawned/timer-woken
                    # processes append to this same list and run within
                    # the delta
                    i = 0
                    while i < len(run_queue):
                        process = run_queue[i]
                        i += 1
                        if process.state is not _TERMINATED:
                            step(process)
                    del run_queue[:]
            if self._next_delta:
                self.delta += 1
                self._stamp = (self.now, self.delta)
                self._n_deltas += 1
                deltas_this_step += 1
                if deltas_this_step > self._delta_limit:
                    raise KernelError(
                        f"delta limit exceeded at t={self.now} "
                        "(zero-delay notification loop?)"
                    )
                self._run_queue, self._next_delta = (
                    self._next_delta,
                    self._run_queue,
                )
                continue
            next_time = self._next_timer_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                self._stamp = (until, self.delta)
                self.trace.flush()
                return
            self.now = next_time
            # the delta counter is monotonic across the whole run (never
            # reset) so (time, delta) stamps of event notifications are
            # globally unique — a zero-delay re-entry at the same time
            # must not match a stale pending stamp
            self.delta += 1
            self._stamp = (next_time, self.delta)
            deltas_this_step = 0
            self._n_timesteps += 1
            if oracle is not None:
                self._fire_timers_choices(next_time, oracle)
            else:
                self._fire_timers(next_time)
        if until is not None and self.now < until:
            self.now = until
            self._stamp = (until, self.delta)
        self.trace.flush()
        if check_deadlock:
            blocked = self.blocked_processes()
            if blocked:
                raise DeadlockError(
                    blocked,
                    decision_path=oracle.trail if oracle is not None
                    else None,
                )

    def blocked_processes(self):
        """Processes that are alive but permanently blocked right now.

        ``TIMED`` processes and timed parks whose timer is still pending
        are *not* blocked — their timer will fire and wake them — so
        they are excluded (a timed wait must never trip
        ``check_deadlock``). An untimed park counts as blocked: only a
        :meth:`resume` could wake it, and nothing is left to call one.
        """
        blocked = []
        for p in self._live:
            state = p.state
            if state is _WAITING:
                blocked.append(p)
            elif state is _TIMED or state is _PARKED:
                if p.timer.entry is None:
                    blocked.append(p)
        return blocked

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def _step(self, process):
        """Resume ``process`` and execute commands until it blocks."""
        self._current = process
        process.state = _RUNNING
        value = process.send_value
        process.send_value = None
        send = process.gen.send
        dispatch_get = self._dispatch.get
        steps = 0
        try:
            while True:
                steps += 1
                try:
                    command = send(value)
                except StopIteration:
                    self._terminate(process)
                    return
                value = None
                handler = dispatch_get(command.__class__)
                if handler is None:
                    handler = self._resolve_handler(process, command)
                if handler(process, command):
                    return
                value = process.send_value
                process.send_value = None
        except SimulationError:
            raise
        except Exception as exc:  # surface model bugs with context
            self._terminate(process)
            raise SimulationError(process.name, exc) from exc
        finally:
            process.step_count += steps
            self._n_steps += steps
            self._current = None

    def _resolve_handler(self, process, command):
        """Slow path: dispatch a command subclass via its MRO (cached)."""
        for cls in type(command).__mro__:
            handler = self._dispatch.get(cls)
            if handler is not None:
                self._dispatch[type(command)] = handler
                return handler
        raise KernelError(
            f"process {process.name!r} yielded a non-command: {command!r}"
        )

    # -- command handlers (registered in the dispatch table) -----------

    def _execute_waitfor(self, process, command):
        process.state = _TIMED
        timer = process.timer
        timer.value = None
        self._timers.push(self.now + command.delay, timer)
        return True

    def _execute_notify(self, process, command):
        events = command.events
        if len(events) == 1:
            self._n_notifications += 1
            events[0]._notify(self)
        else:
            self._n_notifications += len(events)
            for event in events:
                event._notify(self)
        return False

    def _execute_now(self, process, command):
        process.send_value = self.now
        return False

    def _execute_wait(self, process, command):
        events = command.events
        if events:
            if len(events) == 1 or self.oracle is None:
                fired = select_pending(
                    events, self._stamp, process.consumed_stamps
                )
            else:
                fired = self._select_pending_choice(
                    process, events, self.oracle
                )
            if fired is not None:
                process.send_value = fired
                return False
        timeout = command.timeout
        if timeout == 0:
            process.send_value = TIMEOUT
            return False
        process.state = _WAITING
        process.waiting_events = events
        for event in events:
            event._add_waiter(process)
        if timeout is not None:
            process.state = _TIMED
            timer = process.timer
            timer.value = TIMEOUT
            self._timers.push(self.now + timeout, timer)
        return True

    def _execute_park(self, process, command):
        process.state = _PARKED
        timeout = command.timeout
        if timeout is not None:
            timer = process.timer
            timer.value = TIMEOUT
            self._timers.push(self.now + timeout, timer)
        return True

    def _execute_par(self, process, command):
        children = [
            self.spawn(child, name=_child_name(process, child, i))
            for i, child in enumerate(command.children)
        ]
        for child in children:
            child.par_parent = process
        process.pending_children = len(children)
        process.state = _WAITING
        return True

    def _execute_fork(self, process, command):
        child = self.spawn(command.child, name=command.name)
        process.send_value = child
        return False

    def _execute_join(self, process, command):
        target = command.process
        if target.state is _TERMINATED:
            return False
        target.joiners.append(process)
        process.state = _WAITING
        return True

    def _terminate(self, process):
        process.state = _TERMINATED
        process._clear_waits()
        self._live.discard(process)
        parent = process.par_parent
        if parent is not None and not parent.terminated:
            parent.pending_children -= 1
            if parent.pending_children == 0:
                parent.state = _READY
                self._next_delta.append(parent)
        for joiner in process.joiners:
            if not joiner.terminated:
                joiner.state = _READY
                self._next_delta.append(joiner)
        process.joiners = []

    # ------------------------------------------------------------------
    # wakeups
    # ------------------------------------------------------------------

    def _wake_from_event(self, process, event):
        """Called by Event._notify for each waiter; resumes next delta."""
        process._clear_waits()
        process.state = _READY
        process.send_value = event
        self._next_delta.append(process)

    def _next_timer_time(self):
        return self._timers.next_time()

    def _fire_timers(self, time):
        timer_queue = self._timers
        heap = timer_queue.heap
        run_append = self._run_queue.append
        fires = 0
        while heap:
            entry = heap[0]
            timer = entry[2]
            if timer.entry is not entry:
                heapq.heappop(heap)
                if timer_queue.dead:
                    timer_queue.dead -= 1
                continue
            if entry[0] != time:
                break
            heapq.heappop(heap)
            timer.entry = None
            fires += 1
            process = timer.process
            if process is not None:
                if process.state is _TERMINATED:
                    continue
                process._clear_waits()
                process.state = _READY
                process.send_value = timer.value
                run_append(process)
            else:
                timer.callback()
        self._n_timer_fires += fires

    # ------------------------------------------------------------------
    # decision points (oracle-armed twins of the hot paths; see
    # repro.kernel.oracle — an installed oracle resolves every
    # nondeterministic choice, the unarmed paths above keep the
    # historical FIFO tie-breaks branch-free)
    # ------------------------------------------------------------------

    def _drain_delta_choices(self, oracle):
        """Armed twin of the run loop's delta drain: the order in which
        runnable processes execute within one delta is a ``ready``
        decision point. Choice 0 is always the FIFO head, so a
        :class:`~repro.kernel.oracle.FifoOracle` reproduces the unarmed
        drain exactly (including processes spawned mid-delta running
        after the already-queued ones)."""
        run_queue = self._run_queue
        step = self._step
        while run_queue:
            live = [p for p in run_queue if p.state is not _TERMINATED]
            del run_queue[:]
            if not live:
                return
            if len(live) == 1:
                chosen = live[0]
            else:
                index = oracle.pick(DecisionPoint(
                    "ready", tuple(p.name for p in live), time=self.now,
                ))
                chosen = live.pop(index)
                run_queue.extend(live)
            step(chosen)

    def _fire_timers_choices(self, time, oracle):
        """Armed twin of :meth:`_fire_timers`: the fire order of the
        same-instant timer cohort is a ``timer`` decision point (this
        is where same-instant TIMEOUT-vs-notify races are resolved —
        both contenders are timers of the instant). Choice 0 is the
        insertion-order head, matching the unarmed loop.

        A member cancelled or moved by an earlier fire of its cohort is
        still offered, under the label it had when the cohort was
        detached, and skipped when chosen."""
        timer_queue = self._timers
        run_append = self._run_queue.append
        fires = 0
        while True:
            # re-pop after draining a cohort: a callback may have
            # scheduled new same-instant timers (they fire after the
            # current cohort, exactly as in the unarmed loop)
            due = timer_queue.pop_due_live(time)
            if not due:
                break
            if len(due) > 1:
                labels = [timer_label(entry[2]) for entry in due]
            while due:
                if len(due) == 1:
                    entry = due.pop()
                else:
                    index = oracle.pick(DecisionPoint(
                        "timer", tuple(labels), time=time,
                    ))
                    entry = due.pop(index)
                    del labels[index]
                timer = entry[2]
                if timer.entry is not entry:
                    # cancelled or moved by an earlier fire of this
                    # cohort, after it was detached from the queue
                    if timer_queue.dead:
                        timer_queue.dead -= 1
                    continue
                timer.entry = None
                fires += 1
                process = timer.process
                if process is not None:
                    if process.state is _TERMINATED:
                        continue
                    process._clear_waits()
                    process.state = _READY
                    process.send_value = timer.value
                    run_append(process)
                else:
                    timer.callback()
        self._n_timer_fires += fires

    def _select_pending_choice(self, process, events, oracle):
        """Armed twin of :func:`select_pending` for multi-event waits:
        which pending notification satisfies the wait is a ``waitany``
        decision point. Choice 0 is the first pending event in argument
        order, matching the unarmed selection."""
        stamp = self._stamp
        consumed = process.consumed_stamps
        candidates = pending_candidates(events, stamp, consumed)
        if not candidates:
            return None
        if len(candidates) == 1:
            event = candidates[0]
        else:
            index = oracle.pick(DecisionPoint(
                "waitany", tuple(e.name for e in candidates),
                actor=process.name, time=self.now,
            ))
            event = candidates[index]
        consumed[event.uid] = stamp
        return event


def _as_generator(runnable):
    """Normalize the accepted runnable forms into a generator."""
    if hasattr(runnable, "send") and hasattr(runnable, "throw"):
        return runnable
    main = getattr(runnable, "main", None)
    if main is not None:
        return _as_generator(main())
    if callable(runnable):
        return _as_generator(runnable())
    raise TypeError(f"cannot run {runnable!r} as a process")


def _child_name(parent, child, index):
    name = getattr(child, "name", None)
    if name:
        return name
    return f"{parent.name}.child{index}"
