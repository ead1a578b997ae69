"""RTOS-level failure detection: deadline watchdogs and execution budgets.

The :class:`FailureMonitor` is the detection counterpart of
:mod:`repro.faults.inject`: it watches tasks of one
:class:`~repro.rtos.model.RTOSModel` and reacts to two failure classes
*when they happen*, not after the fact:

* **deadline misses** — a kernel timer (the shared waitcore
  :class:`~repro.kernel.waitcore.TimerQueue`) armed at every release
  fires one tick after the task's absolute deadline; a task that has not
  completed its cycle by then missed. The lazy check in
  ``task_endcycle`` still runs for unwatched tasks, so unarmed behavior
  is unchanged, and :meth:`consume_miss` keeps eager + lazy detection
  from double-counting.
* **budget overruns** — an optional per-task execution budget; a timer
  armed at dispatch for the task's *remaining* budget and disarmed (with
  the consumed time accumulated) when it yields the CPU, i.e. a
  watchdog on accumulated execution time per cycle, robust to
  preemption.

Both failures apply the task's configured policy:

========== ==========================================================
``log``    count + trace only (the default)
``notify`` call the user handler ``handler(task, kind, now)``
``kill``   forcibly terminate the task (``TaskManager.condemn``)
``skip-cycle`` periodic tasks abandon overrun cycles: the next release
           skips forward past every deadline already blown
========== ==========================================================

Counters flow into ``RTOSMetrics`` (``deadline_misses``,
``budget_overruns``, ``policy_kills``, ``cycles_skipped``), the model's
obs registry when attached, and the trace (``"fault"`` records, visible
as instants in CTF/Perfetto export). Timer callbacks run at the start
of a timestep, before any process — arming at ``deadline + 1`` keeps a
cycle that completes exactly at its deadline from being flagged.
"""

import functools

from repro.kernel.waitcore import Timer
from repro.rtos.errors import RTOSError
from repro.rtos.task import TaskState

#: reaction policies a watched task can be configured with
POLICIES = ("log", "notify", "kill", "skip-cycle")

#: watchdog timer labels. Recorded schedules, deadlock paths and
#: explorer fingerprints name timers by label, so the strings must not
#: change.
_DEADLINE_LABEL = "FailureMonitor._arm_deadline.<locals>.<lambda>"
_BUDGET_LABEL = "FailureMonitor._arm_budget.<locals>.<lambda>"

#: task states that mean "this cycle is over / the task is gone" when a
#: deadline timer fires — anything else still owes work and has missed
_COMPLETED_STATES = (
    TaskState.NEW,
    TaskState.IDLE_PERIOD,
    TaskState.SLEEPING,
    TaskState.TERMINATED,
)


class _Watchdogs:
    """A task's deadline and budget watchdog timers, owned for life,
    with the release id each was last armed for: a fire armed for an
    older release is stale."""

    __slots__ = ("deadline", "deadline_seq", "budget", "budget_seq")

    def __init__(self, monitor, task):
        self.deadline = Timer(
            functools.partial(monitor._deadline_expired, task, self),
            _DEADLINE_LABEL,
        )
        self.budget = Timer(
            functools.partial(monitor._budget_expired, task, self),
            _BUDGET_LABEL,
        )
        self.deadline_seq = None
        self.budget_seq = None


class FailureMonitor:
    """Watches tasks of one RTOS model (see module doc).

    Created lazily by :meth:`RTOSModel.task_watch`; unwatched models
    never allocate one and their hot paths see only ``monitor is None``
    guards.
    """

    def __init__(self, model):
        self.model = model
        self.sim = model.sim
        self.trace = model.trace
        self.metrics = model.metrics
        self._dispatcher = model._dispatcher
        #: task uid -> configured policy / handler / budget
        self.policies = {}
        self.handlers = {}
        self.budgets = {}
        #: task uid -> releases seen while the monitor was armed (the
        #: denominator for miss rates; counted for every task)
        self.releases = {}
        #: task uid -> execution time consumed in the current cycle
        self.budget_used = {}
        #: task uid -> eager detections while watched (snapshot fodder)
        self.miss_counts = {}
        self.overrun_counts = {}
        #: task uid -> its watchdog timers, created at the first arm
        self._watchdogs = {}
        #: task uid -> time the current cycle's budget charging starts
        #: from; diverges from ``task.run_start`` when a release happens
        #: mid-dispatch (back-to-back overrun cycles), so one dispatch
        #: span never charges across a cycle boundary
        self._charge_from = {}
        self._missed = set()
        self._overrun = set()
        self._skip = set()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def watch(self, task, policy="log", handler=None, budget=None):
        """Watch ``task`` with one reaction ``policy``.

        ``budget`` (optional) arms the execution-budget watchdog: more
        than ``budget`` time units of accumulated execution in one cycle
        is an overrun. ``handler`` is required by (and only used with)
        the ``notify`` policy.
        """
        if policy not in POLICIES:
            raise RTOSError(
                f"unknown watch policy {policy!r} (choose from {', '.join(POLICIES)})"
            )
        if policy == "notify" and handler is None:
            raise RTOSError("policy 'notify' needs a handler(task, kind, now)")
        if budget is not None:
            budget = int(budget)
            if budget <= 0:
                raise RTOSError(f"budget must be positive, got {budget}")
            self.budgets[task.uid] = budget
            self.budget_used.setdefault(task.uid, 0)
        self.policies[task.uid] = policy
        if handler is not None:
            self.handlers[task.uid] = handler
        # a task watched mid-cycle gets its watchdog armed right away
        if (
            task.abs_deadline is not None
            and task.state not in (TaskState.NEW, TaskState.TERMINATED)
        ):
            self._arm_deadline(task)
        return task

    def unwatch(self, task):
        """Stop watching ``task`` and disarm its timers."""
        uid = task.uid
        self.policies.pop(uid, None)
        self.handlers.pop(uid, None)
        self.budgets.pop(uid, None)
        self.budget_used.pop(uid, None)
        self._charge_from.pop(uid, None)
        dogs = self._watchdogs.get(uid)
        if dogs is not None:
            self.sim.cancel_scheduled(dogs.deadline)
            self.sim.cancel_scheduled(dogs.budget)
        self._missed.discard(uid)
        self._overrun.discard(uid)
        self._skip.discard(uid)

    def reset(self):
        """Forget all watch state (RTOSModel.init)."""
        for dogs in self._watchdogs.values():
            self.sim.cancel_scheduled(dogs.deadline)
            self.sim.cancel_scheduled(dogs.budget)
        self._watchdogs.clear()
        self.policies.clear()
        self.handlers.clear()
        self.budgets.clear()
        self.releases.clear()
        self.budget_used.clear()
        self.miss_counts.clear()
        self.overrun_counts.clear()
        self._charge_from.clear()
        self._missed.clear()
        self._overrun.clear()
        self._skip.clear()

    # ------------------------------------------------------------------
    # hooks (called by TaskManager / Dispatcher when armed)
    # ------------------------------------------------------------------

    def on_release(self, task):
        """A new cycle of ``task`` was released."""
        uid = task.uid
        self.releases[uid] = self.releases.get(uid, 0) + 1
        self._missed.discard(uid)
        self._overrun.discard(uid)
        if uid in self.budgets:
            self.budget_used[uid] = 0
            if (
                self._dispatcher.running is task
                and task.run_start is not None
            ):
                # back-to-back release: an overrun cycle rolled straight
                # into the next one without yielding the CPU, so there
                # is no fresh dispatch to re-arm the budget watchdog.
                # Restart the charge window and the timer here, against
                # the *new* release id — otherwise the old timer goes
                # stale and the new cycle runs unwatched.
                self._charge_from[uid] = self.sim.now
                self._arm_budget(task, self.budgets[uid])
        if uid in self.policies and task.abs_deadline is not None:
            self._arm_deadline(task)

    def on_dispatch(self, task):
        """``task`` got the CPU: arm its remaining execution budget."""
        uid = task.uid
        self._charge_from.pop(uid, None)
        budget = self.budgets.get(uid)
        if budget is None or uid in self._overrun:
            return
        self._arm_budget(task, budget - self.budget_used.get(uid, 0))

    def _watchdogs_of(self, task):
        dogs = self._watchdogs.get(task.uid)
        if dogs is None:
            dogs = self._watchdogs[task.uid] = _Watchdogs(self, task)
        return dogs

    def _arm_budget(self, task, remaining):
        dogs = self._watchdogs_of(task)
        dogs.budget_seq = task.release_seq
        self.sim.rearm(dogs.budget, self.sim.now + max(remaining, 0) + 1)

    def on_yield(self, task, now):
        """``task`` gave up the CPU: disarm and account its budget."""
        uid = task.uid
        dogs = self._watchdogs.get(uid)
        if dogs is not None and dogs.budget.entry is not None:
            self.sim.cancel_scheduled(dogs.budget)
        if uid in self.budgets and task.run_start is not None:
            start = task.run_start
            mark = self._charge_from.pop(uid, None)
            if mark is not None and mark > start:
                # part of this dispatch span belonged to the previous
                # cycle (back-to-back release); charge only from the mark
                start = mark
            self.budget_used[uid] = (
                self.budget_used.get(uid, 0) + now - start
            )

    def consume_miss(self, task):
        """True when this cycle's miss was already counted eagerly
        (keeps ``task_endcycle``'s lazy check from double-counting)."""
        return task.uid in self._missed

    def adjust_release(self, task, now, next_release):
        """Apply a pending skip-cycle: jump past blown releases."""
        uid = task.uid
        if uid not in self._skip:
            return next_release
        self._skip.discard(uid)
        if next_release > now or task.period <= 0:
            return next_release
        period = task.period
        skipped = (now - next_release) // period + 1
        self.metrics.cycles_skipped += skipped
        self.trace.record(
            now, "fault", task.name, "skip_cycle", skipped=skipped
        )
        return next_release + skipped * period

    # ------------------------------------------------------------------
    # timer callbacks
    # ------------------------------------------------------------------

    def _arm_deadline(self, task):
        dogs = self._watchdogs_of(task)
        dogs.deadline_seq = task.release_seq
        # +1: timers fire before processes run, so a cycle completing
        # exactly at its deadline must not be flagged; a release so late
        # that its deadline has already blown fires as soon as possible
        self.sim.rearm(
            dogs.deadline, max(task.abs_deadline + 1, self.sim.now)
        )

    def _deadline_expired(self, task, dogs):
        uid = task.uid
        if task.release_seq != dogs.deadline_seq or task.killed:
            return  # stale: a newer release re-armed (or will), or reaped
        if task.state in _COMPLETED_STATES:
            return  # cycle completed in time
        self._missed.add(uid)
        self.miss_counts[uid] = self.miss_counts.get(uid, 0) + 1
        task.stats.deadline_misses += 1
        self.metrics.deadline_misses += 1
        policy = self.policies.get(uid, "log")
        self.trace.record(
            self.sim.now, "fault", task.name, "deadline_miss",
            deadline=task.abs_deadline, policy=policy,
        )
        self._count(task, "deadline_miss")
        self._apply(task, policy, "deadline_miss")

    def _budget_expired(self, task, dogs):
        uid = task.uid
        if task.release_seq != dogs.budget_seq or task.killed:
            return
        if self._dispatcher.running is not task or task.run_start is None:
            return  # stale: the task yielded at this same instant
        if uid in self._overrun:
            return
        self._overrun.add(uid)
        self.overrun_counts[uid] = self.overrun_counts.get(uid, 0) + 1
        self.metrics.budget_overruns += 1
        policy = self.policies.get(uid, "log")
        self.trace.record(
            self.sim.now, "fault", task.name, "budget_overrun",
            budget=self.budgets[uid], policy=policy,
        )
        self._count(task, "budget_overrun")
        self._apply(task, policy, "budget_overrun")
        # budget overruns double as the MC controller's mode sensors
        mc = self.model.mc
        if mc is not None:
            mc.on_overrun(task)

    def rebudget(self, task, budget):
        """Re-set ``task``'s execution budget mid-run (MC mode switches).

        The new budget applies to the *current* cycle: a running task's
        watchdog is re-armed against what it has consumed so far. When
        consumption already exceeds the new (smaller) budget, the cycle
        finishes unwatched — flagging it now would re-trigger the mode
        raise that is being recovered from; the next release arms fresh.
        """
        uid = task.uid
        budget = int(budget)
        if budget <= 0:
            raise RTOSError(f"budget must be positive, got {budget}")
        self.budgets[uid] = budget
        used = self.budget_used.get(uid, 0)
        running = (
            self._dispatcher.running is task and task.run_start is not None
        )
        if running:
            start = self._charge_from.get(uid, task.run_start)
            used += self.sim.now - start
        self._overrun.discard(uid)
        dogs = self._watchdogs.get(uid)
        if dogs is not None:
            self.sim.cancel_scheduled(dogs.budget)
        if running and used < budget:
            self._arm_budget(task, budget - used)

    # ------------------------------------------------------------------
    # policy application
    # ------------------------------------------------------------------

    def _count(self, task, kind):
        obs = self.model.obs
        if obs is not None:
            obs.registry.counter(
                f"{self.model.name}.watchdog.{kind}"
            ).inc()

    def _apply(self, task, policy, kind):
        if policy == "notify":
            handler = self.handlers.get(task.uid)
            if handler is not None:
                handler(task, kind, self.sim.now)
        elif policy == "kill":
            self.metrics.policy_kills += 1
            self.model.task_condemn(task)
        elif policy == "skip-cycle":
            self._skip.add(task.uid)
        # "log": the trace record and counters above are the reaction

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def miss_rate(self):
        """Detected misses / releases over all watched-model tasks."""
        releases = sum(self.releases.values())
        if not releases:
            return 0.0
        return self.metrics.deadline_misses / releases

    def snapshot(self):
        """Per-task watchdog state as a deterministic dict.

        One entry per task this monitor has seen (watched or merely
        release-counted), keyed by task name in creation order: the
        configured policy and budget, the armed deadline-watchdog fire
        time (``None`` when disarmed), execution time consumed in the
        current cycle, eager miss/overrun counts, and the pending
        skip/overrun/missed flags. Consumed by
        ``python -m repro.obs report`` for bundled-model runs.
        """
        seen = (
            set(self.policies) | set(self.releases) | set(self.budgets)
        )
        tasks = {}
        for task in self.model.tasks:
            uid = task.uid
            if uid not in seen:
                continue
            dogs = self._watchdogs.get(uid)
            deadline = dogs.deadline if dogs is not None else None
            tasks[task.name] = {
                "policy": self.policies.get(uid),
                "releases": self.releases.get(uid, 0),
                "deadline_misses": self.miss_counts.get(uid, 0),
                "budget_overruns": self.overrun_counts.get(uid, 0),
                "armed_deadline": (
                    deadline.time
                    if deadline is not None and deadline.entry is not None
                    else None
                ),
                "budget": self.budgets.get(uid),
                "budget_used": self.budget_used.get(uid, 0),
                "missed": uid in self._missed,
                "overrun": uid in self._overrun,
                "skip_pending": uid in self._skip,
            }
        return {
            "tasks": tasks,
            "miss_rate": round(self.miss_rate(), 6),
        }
