"""Mutual-exclusion locks, with optional priority inheritance.

The refined flavor can apply the priority-inheritance protocol: while a
task holds the lock and a more urgent task blocks on it, the holder
inherits the blocker's priority. The RTOS model's schedulers store each
ready task's key when it enters the ready queue, so every boost and
restore re-keys the holder through ``Scheduler.rekey`` — a holder that
is queued (preempted) competes at its new priority at the very next
dispatch decision. Priority inversion (and its fix) is
demonstrated in ``examples/scheduler_comparison.py`` and tested in
``tests/channels/test_mutex.py``.

Both flavors share one ``lock``/``unlock`` template in
:class:`MutexBase`; the RTOS flavor customizes it only through the
``_blocked_on`` / ``_take_ownership`` / ``_check_unlock`` /
``_restore_owner`` hooks. Unlocking from a non-owner raises
(``RuntimeError`` in the spec flavor, :class:`~repro.rtos.errors.RTOSError`
in the refined one) — a silently tolerated foreign unlock would break
the mutual exclusion the channel exists to provide.
"""

from repro.kernel.channel import Channel
from repro.channels.sync import RTOSSync, SpecSync
from repro.rtos.errors import RTOSError


class MutexBase(Channel):
    """Lock over a pluggable synchronization backend."""

    def __init__(self, sync, name=None):
        super().__init__(name)
        self._sync = sync
        self.owner = None
        self.evt = sync.new_event(f"{self.name}.evt")

    def lock(self, who=None):
        """Acquire the lock (generator). ``who`` labels the owner."""
        while self.owner is not None:
            yield from self._blocked_on(self.owner, who)
            yield from self._sync.wait(self.evt)
        self.owner = self._take_ownership(who)

    def unlock(self, who=None):
        """Release the lock and wake waiters (generator).

        Raises when the mutex is not locked or when the caller
        (identified by ``who``, or by the calling task in the refined
        flavor) is not the owner.
        """
        if self.owner is None:
            raise RuntimeError(f"unlock of unlocked mutex {self.name!r}")
        self._check_unlock(who)
        self._restore_owner()
        self.owner = None
        yield from self._sync.signal(self.evt)

    def locked(self):
        return self.owner is not None

    # template hooks (priority inheritance, ownership checks) ----------

    def _blocked_on(self, owner, who):
        return iter(())  # no-op generator

    def _take_ownership(self, who):
        return who if who is not None else True

    def _check_unlock(self, who):
        if who is not None and self.owner is not True and who != self.owner:
            raise RuntimeError(
                f"unlock of mutex {self.name!r} owned by {self.owner!r} "
                f"from non-owner {who!r}"
            )

    def _restore_owner(self):
        pass


class Mutex(MutexBase):
    """Specification-model mutex (SLDL events)."""

    def __init__(self, name=None):
        super().__init__(SpecSync(), name)


class RTOSMutex(MutexBase):
    """Architecture-model mutex (RTOS events).

    With ``priority_inheritance=True`` the owning task inherits the
    priority of the most urgent task blocked on the lock, bounding
    priority inversion. The inherited priority survives partial
    releases correctly: a task's pre-inheritance priority is recorded
    once (``Task.base_priority``), and every unlock recomputes the
    effective priority over the waiters of the PI locks the task still
    holds — so releasing locks out of acquisition order, or after a
    second waiter raised the boost, restores exactly the right level.
    """

    def __init__(self, os_model, name=None, priority_inheritance=False):
        super().__init__(RTOSSync(os_model), name)
        self.os = os_model
        self.priority_inheritance = priority_inheritance
        self._owner_task = None
        #: tasks currently blocked in ``lock`` (inheritance recompute)
        self._waiters = []

    def _blocked_on(self, owner, who):
        task = self.os.self_task()
        if task is not None and task not in self._waiters:
            self._waiters.append(task)
        if self.priority_inheritance and self._owner_task is not None:
            owner_task = self._owner_task
            if task is not None and task.priority < owner_task.priority:
                if owner_task.base_priority is None:
                    owner_task.base_priority = owner_task.priority
                owner_task.priority = task.priority
                self._rekey(owner_task)
        return iter(())

    def _rekey(self, task):
        """Let the scheduler see ``task``'s changed priority."""
        self.os.scheduler.rekey(task, self.os.sim.now)

    def _take_ownership(self, who):
        task = self.os.self_task()
        self._owner_task = task
        if task is not None:
            try:
                self._waiters.remove(task)
            except ValueError:
                pass
            if self.priority_inheritance:
                task.pi_locks.append(self)
        if who is not None:
            return who
        return task.name if task else True

    def _check_unlock(self, who):
        task = self.os.self_task()
        if (
            task is not None
            and self._owner_task is not None
            and task is not self._owner_task
        ):
            raise RTOSError(
                f"unlock of mutex {self.name!r} owned by task "
                f"{self._owner_task.name!r} from non-owner {task.name!r}"
            )
        super()._check_unlock(who)

    def _restore_owner(self):
        task = self._owner_task
        self._owner_task = None
        if task is None or not self.priority_inheritance:
            return
        try:
            task.pi_locks.remove(self)
        except ValueError:
            pass
        if task.base_priority is None:
            return
        # recompute from the true base and the waiters of the PI locks
        # still held — an unlock must keep boosts owed to *other* locks
        priority = task.base_priority
        for mutex in task.pi_locks:
            for waiter in mutex._waiters:
                if not waiter.killed and waiter.priority < priority:
                    priority = waiter.priority
        task.priority = priority
        self._rekey(task)
        if not task.pi_locks:
            task.base_priority = None
