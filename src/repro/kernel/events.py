"""SLDL events with SpecC-like delta-cycle delivery semantics.

An :class:`Event` is the primitive synchronization object of the kernel
(SpecC ``event``). The semantics implemented here:

* ``notify`` wakes every process currently waiting on the event; the woken
  processes resume in the **next delta cycle** of the current timestep.
* A notification additionally stays *pending* until the end of the delta
  cycle in which it was issued: a process that executes ``wait`` on the
  event later **within the same delta** catches the notification and does
  not block. This removes same-delta notify/wait races, matching SpecC's
  behavior of events persisting for the remainder of the current delta.
* Notifications never persist across delta boundaries or timesteps (events
  are not semaphores — a ``wait`` issued one delta later misses the event).

Events are plain synchronization points; they carry no data. Channels
(:mod:`repro.channels`) layer data transfer on top of them.
"""

import itertools

from repro.kernel.waitcore import WaitQueue

_event_ids = itertools.count()


class Event:
    """A SpecC-style synchronization event.

    Parameters
    ----------
    name:
        Optional label used in traces and error messages.
    """

    __slots__ = ("name", "uid", "_waiters", "_pending_stamp", "notify_count")

    def __init__(self, name=None):
        self.uid = next(_event_ids)
        self.name = name or f"event{self.uid}"
        #: processes currently blocked on this event — a wait-core
        #: :class:`WaitQueue`: insertion-ordered (FIFO wakeups) with O(1)
        #: detach (every wakeup removes the process from all events of
        #: its wait-any set)
        self._waiters = WaitQueue()
        #: (time, delta) stamp of the last notification, used for the
        #: pending-within-delta rule; ``None`` when no notification
        #: pends. The stamp is the simulator's shared ``_stamp`` object,
        #: so "pending in the current delta" is an identity test.
        self._pending_stamp = None
        #: total number of notifications issued (diagnostics)
        self.notify_count = 0

    def __repr__(self):
        return f"Event({self.name!r})"

    # -- kernel-facing API -------------------------------------------------

    def _add_waiter(self, process):
        self._waiters[process.uid] = process

    def _remove_waiter(self, process):
        self._waiters.pop(process.uid, None)

    def _notify(self, sim):
        """Wake all waiters (next delta) and mark the event pending.

        Called by the kernel when executing a
        :class:`~repro.kernel.commands.Notify` command, and directly by
        hardware models (timers, interrupt sources).
        """
        self.notify_count += 1
        self._pending_stamp = sim._stamp
        waiters = self._waiters
        if waiters:
            self._waiters = WaitQueue()
            wake = sim._wake_from_event
            for process in waiters.values():
                wake(process, self)

    def fire(self, sim):
        """Notify this event from non-process context (callbacks, RTOS).

        Equivalent to a process yielding ``Notify(self)``; usable from
        kernel timer callbacks and from RTOS-model bookkeeping code that
        runs inside another process's step.
        """
        self._notify(sim)

    # -- convenience -------------------------------------------------------

    @property
    def waiter_count(self):
        """Number of processes currently blocked on this event."""
        return len(self._waiters)
