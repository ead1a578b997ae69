"""The wait core — one blocking engine for every layer of the stack.

Historically the repo had three parallel wait implementations: the
kernel's ``Wait``/``WaitFor`` execution, the RTOS model's
``event_wait``/``time_wait`` handling, and the channel sync backends.
This module is the single home of the mechanisms they all share:

* :class:`WaitQueue` — an insertion-ordered registry of blocked waiters
  (kernel processes on SLDL events, RTOS tasks on RTOS events) with
  FIFO wake order and O(1) detach;
* :class:`Timer` / :class:`TimerQueue` — timed waits and callbacks: a
  heap of ``(time, seq, Timer)`` tuples with lazy cancellation and
  bounded-garbage compaction. A timer is owned for life and re-armed in
  place — each kernel process owns its resume timer, and the RTOS
  layer's dispatcher, periodic tasks, budget servers and watchdogs own
  their callback timers — so arming a timer allocates none;
* :func:`select_pending` — wait-any selection against delta-stamped
  pending notifications (the SpecC "event pends for the rest of the
  current delta" rule).

The kernel (:mod:`repro.kernel.simulator`, :mod:`repro.kernel.events`)
and the RTOS OS services (:mod:`repro.rtos.eventmgr`) both build their
blocking on these pieces; the ``TIMEOUT`` sentinel of
:mod:`repro.kernel.commands` is the one timeout marker used everywhere.

Hot-path note: :meth:`TimerQueue.heap` is deliberately public — the
simulator's timer-firing loop iterates it in place (popping due
entries) instead of going through per-entry method calls.
"""

import heapq

from repro.kernel.commands import TIMEOUT  # noqa: F401  (re-export: the
# wait core owns the timeout protocol; layers import TIMEOUT from here
# or from commands interchangeably)

#: compact the timer heap only when it holds at least this many entries
#: (tiny heaps are cheaper to drain lazily than to rebuild)
_COMPACT_MIN = 64


class Timer:
    """A timer, re-armed in place for as long as its owner lives.

    A timer either resumes a process (``process`` is set; ``value`` is
    sent into its generator) or runs a ``callback``. Every kernel
    process owns one resume timer for life, and each RTOS-layer owner
    (dispatcher, periodic task, budget server, watchdog, ...) creates
    its callback timers once and re-arms them, so arming allocates no
    timer.

    ``entry`` is the timer's live heap entry, ``None`` when the timer
    is not queued; "pending" means ``entry is not None``. Re-arming a
    queued timer kills that entry and pushes a new one, so a timer is
    queued at most once and never fires twice for one arm.

    ``label`` is an optional stable identifier used when same-instant
    timer firing becomes a decision point (see
    :mod:`repro.kernel.oracle`); :func:`timer_label` derives one from
    the process/callback when none was given.
    """

    __slots__ = ("time", "process", "value", "callback", "label", "entry")

    def __init__(self, callback=None, label=None, process=None):
        self.time = None
        self.process = process
        self.value = None
        self.callback = callback
        self.label = label
        self.entry = None

    def cancel(self):
        """Disarm this timer without its queue at hand (lazy: the dead
        entry is dropped when it reaches the top). Prefer
        :meth:`TimerQueue.cancel`, which also counts the dead entry."""
        self.entry = None


class TimerQueue:
    """Heap of pending :class:`Timer` entries with lazy cancellation.

    Entries are ``(time, seq, Timer)`` tuples so heap comparisons run at
    C speed; ``seq`` makes ordering stable (insertion order within one
    instant) and unique. An entry is live while its timer's ``entry``
    is that very tuple: cancelling or re-arming a timer kills its old
    entry in O(1), and dead entries stay in the heap until they reach
    the top or until they outnumber the live ones, at which point the
    heap is compacted in place (bounded garbage in long runs).
    """

    __slots__ = ("heap", "seq", "dead")

    def __init__(self):
        #: the underlying heap — the simulator's firing loop consumes
        #: due entries from it directly
        self.heap = []
        self.seq = 0
        #: dead entries still sitting in the heap (plus, while a
        #: same-instant cohort is being fired, its members killed after
        #: they were detached; see :meth:`pop_due_live`)
        self.dead = 0

    def push(self, time, timer):
        """Queue ``timer`` at ``time``, moving it if it is queued."""
        if timer.entry is not None:
            self._kill()
        self.seq = seq = self.seq + 1
        timer.time = time
        timer.entry = entry = (time, seq, timer)
        heapq.heappush(self.heap, entry)

    def schedule_callback(self, time, callback, label=None):
        """Schedule ``callback()`` to run at ``time``; returns the Timer."""
        timer = Timer(callback, label)
        self.push(time, timer)
        return timer

    def pop_due_live(self, time):
        """Detach and return the live entries due at ``time``, in fire
        order (insertion order within the instant).

        The oracle-armed firing path uses this instead of the in-place
        heap loop: it needs the whole same-instant cohort up front to
        offer the fire order as a decision point. A detached entry
        stays its timer's ``entry``, so an earlier member of the cohort
        can still cancel or move the timer; the firing path then skips
        the killed entry and drops it from the ``dead`` count.
        """
        heap = self.heap
        due = []
        while heap:
            entry = heap[0]
            if entry[2].entry is not entry:
                heapq.heappop(heap)
                if self.dead:
                    self.dead -= 1
            elif entry[0] == time:
                due.append(heapq.heappop(heap))
            else:
                break
        return due

    def cancel(self, timer):
        """Cancel ``timer``; a no-op when it is not queued."""
        if timer.entry is not None:
            timer.entry = None
            self._kill()

    def _kill(self):
        """Count one killed entry; compact when dead entries outnumber
        live ones (lazy cancellation must not let dead timers
        accumulate unboundedly in long runs)."""
        self.dead = dead = self.dead + 1
        heap = self.heap
        if dead >= _COMPACT_MIN and dead * 2 > len(heap):
            # in place: the simulator's firing loop may be draining
            # this very list
            alive = [entry for entry in heap if entry[2].entry is entry]
            self.dead = max(dead - (len(heap) - len(alive)), 0)
            heap[:] = alive
            heapq.heapify(heap)

    def next_time(self):
        """Earliest pending fire time, or None; drains dead tops."""
        heap = self.heap
        while heap:
            entry = heap[0]
            if entry[2].entry is entry:
                return entry[0]
            heapq.heappop(heap)
            if self.dead:
                self.dead -= 1
        return None

    def __len__(self):
        return len(self.heap)

    def __bool__(self):
        return bool(self.heap)


class WaitQueue(dict):
    """Insertion-ordered registry of blocked waiters.

    A thin dict keyed by the waiter's ``uid`` (kernel processes and RTOS
    tasks both carry one): insertion order gives FIFO wakeups, uid
    keying gives O(1) detach — every wake of a wait-any set removes the
    waiter from all other queues of the set. Supports the list-style
    accessors (``in``, ``remove``, iteration over waiters) the RTOS
    event queues historically exposed.
    """

    __slots__ = ()

    def add(self, waiter):
        self[waiter.uid] = waiter

    #: list-style alias (RTOS event queues were plain lists before)
    append = add

    def discard(self, waiter):
        """Detach ``waiter`` if enrolled (no-op otherwise)."""
        self.pop(waiter.uid, None)

    #: list-style alias; unlike list.remove, absent waiters are ignored
    remove = discard

    def pop_all(self):
        """Detach and return all waiters in FIFO order (``()`` if none).

        The dominant wake shape is a single waiter (every channel
        rendezvous, every dispatch event): that case detaches via
        ``popitem`` and returns a 1-tuple — no intermediate list. Only
        multi-waiter wakes pay the one unavoidable copy (the dict must
        be emptied before the caller re-enrolls waiters).
        """
        if not self:
            return ()
        if len(self) == 1:
            return (self.popitem()[1],)
        waiters = list(self.values())
        self.clear()
        return waiters

    def __contains__(self, waiter):
        return dict.__contains__(self, getattr(waiter, "uid", waiter))

    def __iter__(self):
        # a direct view iterator: no per-iteration list copy. Callers
        # that wake (and thereby detach) waiters mid-scan must use
        # pop_all() — mutation during iteration raises RuntimeError
        # instead of silently scanning a stale snapshot.
        return iter(dict.values(self))


def select_pending(events, stamp, consumed):
    """Wait-any selection: first event with an unconsumed pending notify.

    ``stamp`` is the simulator's shared ``(time, delta)`` identity object
    and ``consumed`` the waiter's ``event uid -> stamp`` map; an event
    satisfies the wait when its notification pends in the current delta
    and this waiter has not already consumed that notification (each
    notification satisfies at most one wait per waiter — prevents
    livelock when a waiter re-waits within the delta). The consumed map
    is updated for the returned event.
    """
    if len(events) == 1:
        # single-event fast path: no multi-event scan
        event = events[0]
        if (
            event._pending_stamp is stamp
            and consumed.get(event.uid) is not stamp
        ):
            consumed[event.uid] = stamp
            return event
        return None
    for event in events:
        if (
            event._pending_stamp is stamp
            and consumed.get(event.uid) is not stamp
        ):
            consumed[event.uid] = stamp
            return event
    return None


def pending_candidates(events, stamp, consumed):
    """Every event of ``events`` whose notification pends unconsumed.

    The wait-any *decision point* companion of :func:`select_pending`:
    instead of committing to the first pending event (argument order),
    it returns the full candidate list so an installed
    :class:`~repro.kernel.oracle.ScheduleOracle` can choose. The caller
    marks the chosen event's stamp consumed.
    """
    return [
        event for event in events
        if event._pending_stamp is stamp
        and consumed.get(event.uid) is not stamp
    ]


def timer_label(timer):
    """Stable human-readable identity of a timer, for decision points.

    Resume timers are named after their process; callback timers carry
    an explicit ``label`` (layers that arm callbacks pass one) or fall
    back to the callback's qualified name.
    """
    if timer.label is not None:
        return timer.label
    process = timer.process
    if process is not None:
        return process.name
    callback = timer.callback
    return getattr(callback, "__qualname__", None) or repr(callback)
