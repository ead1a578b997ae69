"""Scheduler interface of the RTOS model.

A scheduler owns the ready queue and two policy decisions:

* :meth:`Scheduler.peek` — which ready task should run next;
* :meth:`Scheduler.preempts` — whether a ready candidate should take the
  CPU from the currently running task at a scheduling point.

The RTOS model invokes the scheduler whenever task states change inside an
RTOS call (paper Section 4.3); the scheduler never blocks and never touches
SLDL events — dispatching is the model's job.
"""

import itertools
import operator

_ready_seq = itertools.count()
_by_sched_key = operator.attrgetter("sched_key")


class Scheduler:
    """Base class; concrete policies override the key methods.

    Each ready task's key is computed once: :meth:`on_ready` stores
    ``(key(task, now), ready_seq)`` on the task as ``task.sched_key``,
    and :meth:`peek` / :meth:`tied_best` order the queue by that stored
    pair. Every concrete policy's :meth:`key` is a function of task
    state alone (priority, period, deadline, arrival order) — never of
    ``now``. That state is set before a task enters the queue, with one
    exception: priority inheritance boosts and restores the priority of
    a task that may be queued, and must call :meth:`rekey` — the one
    way a queued task's key changes. :meth:`peek` also memoizes its
    choice between ready-queue mutations; :meth:`rekey` counts as one.
    The RTOS model peeks at every scheduling point (each
    ``time_wait``), making this the dominant scheduler cost in long
    runs.
    """

    __slots__ = ("_ready", "_peek_cache", "_peek_valid")

    #: short identifier used by ``RTOSModel.start(sched_alg)`` lookups
    name = "base"

    def __init__(self):
        self._ready = []
        self._peek_cache = None
        self._peek_valid = False

    # -- ready-queue maintenance -------------------------------------------

    def on_ready(self, task, now):
        """Insert ``task`` into the ready queue and store its key."""
        seq = task.ready_seq = next(_ready_seq)
        task.sched_key = (self.key(task, now), seq)
        self._ready.append(task)
        self._peek_valid = False

    def rekey(self, task, now):
        """Recompute ``task``'s stored key after a key input changed.

        Priority inheritance calls this on every boost and restore. The
        task keeps its place in FIFO order among equal keys. Harmless
        for a task that is not queued: :meth:`on_ready` computes the key
        afresh when it enters the queue.
        """
        task.sched_key = (self.key(task, now), task.ready_seq)
        self._peek_valid = False

    def remove(self, task):
        """Remove ``task`` from the ready queue if present."""
        try:
            self._ready.remove(task)
        except ValueError:
            pass
        self._peek_valid = False

    # -- policy -------------------------------------------------------------

    def key(self, task, now):
        """Sort key; the task with the smallest key runs first.

        Concrete schedulers override this (and, for time slicing,
        :meth:`preempts`). Ties are broken FIFO by ready insertion order.
        """
        raise NotImplementedError

    def peek(self, now):
        """Best ready task, or None. Does not remove it."""
        if self._peek_valid:
            return self._peek_cache
        ready = self._ready
        if not ready:
            best = None
        elif len(ready) == 1:
            best = ready[0]
        else:
            best = min(ready, key=_by_sched_key)
        self._peek_cache = best
        self._peek_valid = True
        return best

    def tied_best(self, now):
        """All ready tasks whose key ties the best one, FIFO order.

        Sorted by the same stored ``(key, ready_seq)`` pair :meth:`peek`
        minimizes, so the first element is :meth:`peek`'s choice by
        construction, and an installed schedule oracle picking index 0
        reproduces the default dispatch exactly. The dispatcher only
        consults this when an oracle is armed; the hot path stays on the
        memoized :meth:`peek`.
        """
        ready = self._ready
        if not ready:
            return []
        if len(ready) == 1:
            return [ready[0]]
        ordered = sorted(ready, key=_by_sched_key)
        best_key = ordered[0].sched_key[0]
        return [t for t in ordered if t.sched_key[0] == best_key]

    def preempts(self, candidate, running, now):
        """Should ``candidate`` (ready) preempt ``running`` at a
        scheduling point? Default: strict key comparison (preemptive)."""
        return self.key(candidate, now) < self.key(running, now)

    def expired(self, task, now):
        """Must ``task`` stop running even with nothing else ready?

        Flat policies never revoke an idle CPU; the hierarchical
        scheduler returns True when the task's server is out of budget
        (the CPU then idles until the next replenishment).
        """
        return False

    def on_dispatch(self, task, now):
        """Hook invoked when ``task`` is dispatched (time slicing)."""
        task.slice_start = now

    def on_yield(self, task, now):
        """Hook invoked when ``task`` gives up the CPU.

        Flat policies need no bookkeeping here; the hierarchical
        scheduler settles server-budget consumption.
        """

    def bind(self, dispatcher):
        """Attach the owning dispatcher.

        Called when the scheduler is installed on a
        :class:`~repro.rtos.dispatch.Dispatcher`. Flat policies ignore
        it; the hierarchical scheduler uses the dispatcher's simulator
        for budget timers and its preemption services for enforcement.
        """

    # -- introspection -------------------------------------------------------

    @property
    def ready_tasks(self):
        return list(self._ready)

    def __len__(self):
        return len(self._ready)

    def __repr__(self):
        return f"{type(self).__name__}()"
