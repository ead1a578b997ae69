"""Causal span reconstruction over the trace-record stream.

The trace layer records *events*; the questions a designer asks are
about *intervals and causality* — how long did this job take from
release to completion, who ended that block, which task ran while a
more urgent one waited. :class:`SpanBuilder` turns the flat record
stream into two span kinds, **streaming** (it is a
:class:`~repro.kernel.trace.TraceSink`, so it works as a live sink, as
a :class:`~repro.obs.sinks.TeeSink` branch, or offline over a reloaded
JSONL file) and in **O(1) memory** — at most one open job and
one open block per task and a buffer of :data:`BUFFER_RECORDS` records,
never the whole trace:

:class:`JobSpan`
    one release → completion cycle of a task: response time,
    scheduling latency, execution time, preemption count, blocked
    time, outcome (``complete`` / ``killed`` / ``open``) and a bounded
    causal chain of the scheduling decisions inside the job (the
    worst-case *witness*).
:class:`BlockSpan`
    one blocking interval (event wait, join, par, sleep) annotated
    with the :class:`WakeEdge` that ended it — which notify (and from
    whom: task, ``isr:<process>``, kernel), timeout, join, activation
    or kill/watchdog edge made the task runnable again.

Span *sources*: the builder reconstructs spans from any trace, but the
plain record stream leaves two things ambiguous — cycle completion (no
``endcycle`` record) and the notifier's identity (``notify`` names the
OS, not the waker). ``RTOSModel.trace_spans(True)`` arms the span
sources in the OS services: armed, ``task_endcycle`` records a
completion edge, overrun releases are recorded, ``task_create``
carries the static task parameters (priority/period/wcet — what the
inversion detector needs), and ``notify`` names its source. Unarmed
(the default) no extra record is emitted and golden traces stay
byte-identical; on an unarmed stream the builder degrades gracefully
(completion is inferred from the last execution segment before the
next release, wake sources fall back to the running task).

Analyzers (:mod:`repro.obs.analyzers`) subscribe to the span stream
via the hook protocol of :class:`SpanAnalyzer`.
"""

from dataclasses import dataclass

from repro.kernel.trace import TraceSink

__all__ = [
    "BlockSpan",
    "JobSpan",
    "SpanAnalyzer",
    "SpanBuilder",
    "WakeEdge",
    "build_spans",
]

#: cap on causal-chain entries kept per job (the witness stays bounded)
CHAIN_LIMIT = 64
#: records :class:`SpanBuilder` buffers before reconstructing spans from them
BUFFER_RECORDS = 256


@dataclass(frozen=True, slots=True)
class WakeEdge:
    """The causal edge that ended a block: who made the task runnable."""

    kind: str     #: notify | timeout | join | activate | par | kill | watchdog | fault
    source: str   #: waking actor: task, ``isr:<proc>``, ``watchdog:<why>``, ""
    event: str    #: event (or ``task:<name>`` join target) that woke the task
    time: int     #: instant the task became ready again

    def as_dict(self):
        return {"kind": self.kind, "source": self.source,
                "event": self.event, "time": self.time}


@dataclass(slots=True)
class BlockSpan:
    """One blocking interval of a task, with its causal wake edge."""

    task: str
    start: int
    end: int          #: instant the block ended (ready again); None if open
    resumed: object   #: instant the task got the CPU back (None if never)
    reason: str       #: wait | wait_any | join | par | sleep
    events: tuple     #: event names waited on (``task:<name>`` for joins)
    edge: object      #: WakeEdge, or None for a still-open block

    @property
    def duration(self):
        return None if self.end is None else self.end - self.start

    def as_dict(self):
        return {
            "task": self.task, "start": self.start, "end": self.end,
            "resumed": self.resumed, "reason": self.reason,
            "events": list(self.events), "duration": self.duration,
            "edge": self.edge.as_dict() if self.edge is not None else None,
        }


@dataclass(slots=True)
class JobSpan:
    """One release → completion cycle of a task."""

    task: str
    release: int
    first_dispatch: object  #: first CPU grant (None if never dispatched)
    end: object             #: completion instant (None while open)
    outcome: str            #: complete | killed | open
    missed: bool
    exec_time: int
    segments: int
    preemptions: int
    blocked_time: int
    chain: tuple            #: bounded causal chain (witness)
    chain_dropped: int      #: entries beyond CHAIN_LIMIT that were dropped
    mode: object = None     #: criticality mode at release (None: MC unarmed)

    @property
    def response(self):
        return None if self.end is None else self.end - self.release

    @property
    def sched_latency(self):
        if self.first_dispatch is None:
            return None
        return self.first_dispatch - self.release

    def as_dict(self):
        return {
            "task": self.task, "release": self.release,
            "first_dispatch": self.first_dispatch, "end": self.end,
            "outcome": self.outcome, "missed": self.missed,
            "response": self.response, "sched_latency": self.sched_latency,
            "exec_time": self.exec_time, "segments": self.segments,
            "preemptions": self.preemptions,
            "blocked_time": self.blocked_time,
            "chain": [list(entry) for entry in self.chain],
            "chain_dropped": self.chain_dropped,
            "mode": self.mode,
        }


class SpanAnalyzer:
    """Base class / hook protocol for online span consumers.

    :class:`SpanBuilder` calls these as the stream unfolds; every hook
    is a no-op by default so analyzers override only what they need.
    """

    def on_meta(self, task, meta):
        """Task registered (``meta`` has priority/period/wcet if armed)."""

    def on_job(self, job):
        """A :class:`JobSpan` closed."""

    def on_block_open(self, task, start, reason, events):
        """A block span opened (the task just gave up the CPU)."""

    def on_block(self, block):
        """A :class:`BlockSpan` closed (wake edge known; ``resumed``
        may still be None when the task was killed before re-dispatch)."""

    def on_exec(self, actor, start, end):
        """A task execution segment was recorded."""

    def on_fault(self, task, kind, time, data):
        """A fault-category record (watchdog flag or injected fault)."""

    def on_mode(self, actor, kind, time, data):
        """A mode-category record (criticality raise/recover/degrade)."""

    def on_finish(self, now):
        """End of stream (after still-open spans were flushed)."""

    def clear(self):
        """Forget everything observed so far (the builder was cleared)."""


class _TaskState:
    """Per-task reconstruction state (bounded: one open job/block)."""

    __slots__ = ("name", "meta", "job", "block", "last_exec_end", "dead")

    def __init__(self, name):
        self.name = name
        self.meta = {}
        self.job = None        # open JobSpan
        self.block = None      # open BlockSpan (edge None until woken)
        self.last_exec_end = None
        self.dead = False


class SpanBuilder(TraceSink):
    """Streaming span reconstruction; usable directly as a trace sink.

    ``emit`` only appends the record to a buffer of at most
    :data:`BUFFER_RECORDS` records. The buffer is drained — each record
    handed to the handler of its category, records of categories
    without span structure skipped — when it fills, on
    :meth:`flush`, :meth:`finish` and :meth:`close`, and before every
    read of ``jobs``, ``blocks``, ``tasks`` and :meth:`open_jobs`.
    ``Simulator.run`` flushes its trace's sink whenever it returns, so
    the analyzers of a builder attached to a simulation are current
    after every run; a caller that feeds ``emit`` by hand calls
    :meth:`flush` (or :meth:`finish`) before reading the analyzers.

    Parameters
    ----------
    analyzers:
        :class:`SpanAnalyzer` instances fed as spans close.
    keep:
        Retain closed spans on ``self.jobs`` / ``self.blocks`` (handy
        for tests and exporters; defeats the O(1)-memory property).
    chain_limit:
        Causal-chain entries kept per job before dropping.
    """

    def __init__(self, *analyzers, keep=False, chain_limit=CHAIN_LIMIT):
        self.analyzers = analyzers
        self.keep = keep
        self.chain_limit = chain_limit
        self._jobs = []
        self._blocks = []
        self._tasks = {}       # name -> _TaskState
        self._running = {}     # os actor -> running task name (or None)
        self._task_os = {}     # task name -> os actor
        self._enrolled = {}    # event name -> set of blocked task names
        self._attrib = {}      # task name -> (time, kind, source) kill cause
        self._mode = None      # current criticality mode (None: MC unarmed)
        self._buffer = []      # records emitted but not yet drained
        self._drained = 0
        self._finished = False

    # -- TraceSink protocol ------------------------------------------------

    @property
    def emitted(self):
        return self._drained + len(self._buffer)

    def clear(self):
        """Restart the reconstruction and clear every analyzer, so a
        cleared builder reports what a fresh one would."""
        self.__init__(*self.analyzers, keep=self.keep,
                      chain_limit=self.chain_limit)
        for analyzer in self.analyzers:
            analyzer.clear()

    def flush(self):
        """Reconstruct spans from every buffered record."""
        if self._buffer:
            self._drain()

    def close(self):
        self.finish()

    # -- stream consumption ------------------------------------------------

    def emit(self, record):
        buffer = self._buffer
        buffer.append(record)
        if len(buffer) >= BUFFER_RECORDS:
            self._drain()

    def _drain(self):
        # swap the buffer out first: an analyzer hook that reads the
        # builder mid-drain must not drain the same records again
        records = self._buffer
        self._buffer = []
        self._drained += len(records)
        handlers = self._HANDLERS
        for record in records:
            handler = handlers.get(record.category)
            if handler is not None:
                handler(self, record)

    def finish(self, now=None):
        """Flush still-open spans (end of stream / crashed run)."""
        self.flush()
        if self._finished:
            return self
        self._finished = True
        for name in sorted(self._tasks):
            state = self._tasks[name]
            if state.block is not None:
                self._close_block(state, end=state.block.end, edge=state.block.edge)
            if state.job is not None:
                job = state.job
                state.job = None
                job.outcome = "open"
                self._publish_job(job)
        for analyzer in self.analyzers:
            analyzer.on_finish(now)
        return self

    # -- task records ------------------------------------------------------

    def _on_task(self, record):
        info = record.info
        handler = self._TASK_HANDLERS.get(info)
        if handler is not None:
            handler(self, record)

    def _task(self, name):
        state = self._tasks.get(name)
        if state is None:
            state = self._tasks[name] = _TaskState(name)
            for analyzer in self.analyzers:
                analyzer.on_meta(name, state.meta)
        return state

    def _h_create(self, record):
        state = self._tasks.get(record.actor)
        if state is None:
            state = self._tasks[record.actor] = _TaskState(record.actor)
        if record.data:
            state.meta.update(record.data)
        for analyzer in self.analyzers:
            analyzer.on_meta(record.actor, state.meta)

    def _h_activate(self, record):
        state = self._task(record.actor)
        state.dead = False
        if state.block is not None and state.block.reason == "sleep":
            self._close_block(state, end=record.time, edge=WakeEdge(
                "activate", self._current_source(), "", record.time))
        if state.job is not None:
            # aperiodic reactivation without an armed endcycle record:
            # the previous job completed at its last execution segment
            self._infer_close_job(state, fallback=record.time)
        self._open_job(state, record.time)

    def _h_release(self, record):
        state = self._task(record.actor)
        if state.job is not None:
            self._infer_close_job(state, fallback=record.time)
        # the armed overrun release carries the true release instant
        self._open_job(state, record.data.get("at", record.time))

    def _h_endcycle(self, record):
        state = self._task(record.actor)
        job = state.job
        if job is None:
            job = self._new_job(state, record.data.get("release", record.time))
        state.job = None
        job.end = record.time
        job.outcome = "complete"
        self._publish_job(job)

    def _h_deadline_miss(self, record):
        state = self._task(record.actor)
        if state.job is not None:
            state.job.missed = True

    def _h_sleep(self, record):
        state = self._task(record.actor)
        self._open_block(state, record.time, "sleep", ())

    def _h_terminate(self, record):
        state = self._task(record.actor)
        state.dead = True
        if state.job is not None:
            job = state.job
            state.job = None
            job.end = record.time
            job.outcome = "complete"
            self._publish_job(job)
        self._wake_joiners(record.actor, record.time)

    def _h_kill(self, record):
        state = self._task(record.actor)
        # the victim stops waiting the instant it is condemned
        when, kind, source = self._attrib.pop(
            record.actor, (record.time, "kill", self._current_source()))
        if when != record.time:
            kind, source = "kill", self._current_source()
        if state.block is not None:
            self._close_block(state, end=record.time,
                              edge=WakeEdge(kind, source, "", record.time))
        state.meta.setdefault("killed_by", source or kind)

    def _h_killed(self, record):
        state = self._task(record.actor)
        state.dead = True
        if state.block is not None:
            self._close_block(state, end=record.time, edge=WakeEdge(
                "kill", state.meta.get("killed_by", ""), "", record.time))
        if state.job is not None:
            job = state.job
            state.job = None
            job.end = record.time
            job.outcome = "killed"
            self._publish_job(job)
        self._wake_joiners(record.actor, record.time)

    def _h_wait(self, record):
        state = self._task(record.actor)
        event = record.data.get("event", "")
        self._enrolled.setdefault(event, set()).add(record.actor)
        self._open_block(state, record.time, "wait", (event,))

    def _h_wait_any(self, record):
        state = self._task(record.actor)
        events = tuple(record.data.get("events", ()))
        for event in events:
            self._enrolled.setdefault(event, set()).add(record.actor)
        self._open_block(state, record.time, "wait_any", events)

    def _h_timeout(self, record):
        state = self._task(record.actor)
        self._unenroll(record.actor)
        if state.block is not None:
            self._close_block(state, end=record.time,
                              edge=WakeEdge("timeout", "", "", record.time))

    def _h_join(self, record):
        state = self._task(record.actor)
        target = "task:" + record.data.get("on", "")
        self._enrolled.setdefault(target, set()).add(record.actor)
        self._open_block(state, record.time, "join", (target,))

    def _h_par_start(self, record):
        state = self._task(record.actor)
        self._open_block(state, record.time, "par", ())

    def _h_par_end(self, record):
        state = self._task(record.actor)
        if state.block is not None and state.block.reason == "par":
            self._close_block(state, end=record.time,
                              edge=WakeEdge("par", "", "", record.time))

    def _h_fork(self, record):
        state = self._task(record.actor)
        if state.job is not None:
            self._chain(state.job, ("fork", record.time,
                                    record.data.get("child", "")))

    def _h_notify(self, record):
        # actor is the OS/model name; woken waiters leave their queues
        event = record.data.get("event", "")
        if not record.data.get("woken"):
            return
        source = record.data.get("src")
        if source is None:
            # unarmed stream: the notifier still holds the CPU here
            source = self._running.get(record.actor) or ""
        edge = WakeEdge("notify", source, event, record.time)
        for name in sorted(self._enrolled.pop(event, ())):
            state = self._tasks.get(name)
            if state is None:
                continue
            self._unenroll(name, keep=event)
            if state.block is not None:
                self._close_block(state, end=record.time, edge=edge)

    _TASK_HANDLERS = {
        "create": _h_create,
        "activate": _h_activate,
        "release": _h_release,
        "endcycle": _h_endcycle,
        "deadline_miss": _h_deadline_miss,
        "sleep": _h_sleep,
        "terminate": _h_terminate,
        "kill": _h_kill,
        "killed": _h_killed,
        "wait": _h_wait,
        "wait_any": _h_wait_any,
        "timeout": _h_timeout,
        "join": _h_join,
        "par_start": _h_par_start,
        "par_end": _h_par_end,
        "fork": _h_fork,
        "notify": _h_notify,
    }

    # -- sched / exec / fault records --------------------------------------

    def _on_sched(self, record):
        info = record.info
        if info == "dispatch":
            name = record.data.get("task", "")
            self._running[record.actor] = name
            self._task_os[name] = record.actor
            state = self._tasks.get(name)
            if state is None:
                return
            job = state.job
            if job is not None:
                if job.first_dispatch is None:
                    job.first_dispatch = record.time
                self._chain(job, ("dispatch", record.time))
            block = state.block
            if block is not None and block.edge is not None:
                # woken earlier; the CPU grant completes the span
                block.resumed = record.time
                self._flush_block(state)
        elif info == "preempt":
            name = record.data.get("task", "")
            state = self._tasks.get(name)
            if state is not None and state.job is not None:
                state.job.preemptions += 1
                self._chain(state.job, ("preempt", record.time,
                                        record.data.get("by", "")))

    def _on_exec(self, record):
        name = record.actor
        state = self._tasks.get(name)
        if state is None:
            return
        start = record.data.get("start", record.time)
        end = record.data.get("end", record.time)
        state.last_exec_end = end
        job = state.job
        if job is not None:
            job.exec_time += end - start
            job.segments += 1
        os_actor = self._task_os.get(name)
        if os_actor is not None and self._running.get(os_actor) == name:
            self._running[os_actor] = None
        for analyzer in self.analyzers:
            analyzer.on_exec(name, start, end)

    def _on_fault(self, record):
        name = record.actor
        info = record.info
        state = self._tasks.get(name)
        if info in ("deadline_miss", "budget_overrun"):
            # an overrun job that still meets its deadline has not missed
            if (info == "deadline_miss" and state is not None
                    and state.job is not None):
                state.job.missed = True
            if record.data.get("policy") == "kill":
                self._attrib[name] = (
                    record.time, "watchdog", f"watchdog:{info}")
        elif info in ("task_crash", "task_hang"):
            self._attrib[name] = (record.time, "fault", f"fault:{info}")
        for analyzer in self.analyzers:
            analyzer.on_fault(name, info, record.time, record.data)

    def _on_mode(self, record):
        info = record.info
        if info in ("raise", "recover"):
            # jobs released from here on carry the new criticality mode
            self._mode = record.data.get("level")
        for analyzer in self.analyzers:
            analyzer.on_mode(record.actor, info, record.time, record.data)

    # irq/chan/user records carry no span structure
    _HANDLERS = {
        "task": _on_task,
        "sched": _on_sched,
        "exec": _on_exec,
        "fault": _on_fault,
        "mode": _on_mode,
    }

    # -- span bookkeeping --------------------------------------------------

    def _new_job(self, state, release):
        return JobSpan(
            task=state.name, release=release, first_dispatch=None,
            end=None, outcome="open", missed=False, exec_time=0,
            segments=0, preemptions=0, blocked_time=0, chain=(),
            chain_dropped=0, mode=self._mode,
        )

    def _open_job(self, state, release):
        state.job = self._new_job(state, release)

    def _infer_close_job(self, state, fallback):
        """Close an open job on an unarmed stream: completion is the
        last execution segment before the next release."""
        job = state.job
        state.job = None
        end = state.last_exec_end
        job.end = end if end is not None and end >= job.release else fallback
        job.outcome = "complete"
        self._publish_job(job)

    def _publish_job(self, job):
        job.chain = tuple(job.chain)
        if self.keep:
            self._jobs.append(job)
        for analyzer in self.analyzers:
            analyzer.on_job(job)

    def _chain(self, job, entry):
        if len(job.chain) >= self.chain_limit:
            job.chain_dropped += 1
            return
        if not isinstance(job.chain, list):
            job.chain = list(job.chain)
        job.chain.append(entry)

    def _open_block(self, state, start, reason, events):
        if state.block is not None:
            # overlapping block (stream truncation): flush what we have
            self._flush_block(state)
        state.block = BlockSpan(
            task=state.name, start=start, end=None, resumed=None,
            reason=reason, events=events, edge=None,
        )
        for analyzer in self.analyzers:
            analyzer.on_block_open(state.name, start, reason, events)

    def _close_block(self, state, end, edge):
        """Mark the open block woken; it is flushed on re-dispatch (so
        ``resumed`` is known) or immediately when the task is dead."""
        block = state.block
        if block.edge is not None:
            # already woken, waiting for its re-dispatch (e.g. killed
            # between wake and CPU grant): flush as-is, don't re-close
            self._flush_block(state)
            return
        block.end = end
        block.edge = edge
        if state.job is not None and end is not None:
            state.job.blocked_time += end - block.start
            self._chain(state.job, (
                "block", block.start, end, block.reason,
                edge.kind if edge is not None else "",
                edge.source if edge is not None else "",
            ))
        if edge is None or edge.kind in ("kill", "watchdog", "fault"):
            self._flush_block(state)

    def _flush_block(self, state):
        block = state.block
        state.block = None
        if block is None:
            return
        if self.keep:
            self._blocks.append(block)
        for analyzer in self.analyzers:
            analyzer.on_block(block)

    def _wake_joiners(self, target, time):
        """A terminating task readies everyone joined on it (the task
        manager wakes joiners directly, without a notify record)."""
        key = "task:" + target
        edge = WakeEdge("join", target, key, time)
        for name in sorted(self._enrolled.pop(key, ())):
            state = self._tasks.get(name)
            if state is None:
                continue
            self._unenroll(name, keep=key)
            if state.block is not None:
                self._close_block(state, end=time, edge=edge)

    def _unenroll(self, name, keep=None):
        """Drop ``name`` from every wait-set enrollment (multi-event
        waits enroll on all their events; one wake clears them all)."""
        for event, names in list(self._enrolled.items()):
            if event == keep:
                continue
            names.discard(name)
            if not names:
                del self._enrolled[event]

    def _current_source(self):
        """Best guess at 'who acted': some running task of any OS."""
        for actor in sorted(self._running):
            name = self._running[actor]
            if name:
                return name
        return ""

    # -- results -----------------------------------------------------------

    @property
    def jobs(self):
        """Closed job spans in closing order (empty unless ``keep``)."""
        self.flush()
        return self._jobs

    @property
    def blocks(self):
        """Closed block spans in closing order (empty unless ``keep``)."""
        self.flush()
        return self._blocks

    @property
    def tasks(self):
        """Reconstructed task metadata: ``{name: meta}``."""
        self.flush()
        return {name: dict(state.meta) for name, state in self._tasks.items()}

    def open_jobs(self):
        self.flush()
        return {name: state.job for name, state in self._tasks.items()
                if state.job is not None}


def build_spans(records, *analyzers, keep=True, chain_limit=CHAIN_LIMIT):
    """Offline span reconstruction: feed ``records`` (any iterable of
    :class:`~repro.kernel.trace.TraceRecord`, e.g. ``trace.records`` or
    :func:`~repro.obs.sinks.iter_jsonl`) through a fresh
    :class:`SpanBuilder` and return it finished."""
    builder = SpanBuilder(*analyzers, keep=keep, chain_limit=chain_limit)
    emit = builder.emit
    now = None
    for record in records:
        emit(record)
        now = record.time
    return builder.finish(now)
