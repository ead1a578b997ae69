"""Mixed-criticality modes: overrun-triggered LO->HI switch + recovery.

Beyond-paper extension in the style of Vestal-model mixed-criticality
scheduling (Vestal 2007; Baruah/Burns' AMC), on the two criticality
levels the :mod:`repro.analysis.schedulability` certificates reason
about: every task is ``"LO"`` or ``"HI"`` and carries a budget pair
``wcet_levels = (lo, hi)`` with ``lo <= hi``. The system runs in one
*criticality mode* at a time, starting in LO mode:

* **overrun sensing** — HI tasks are watched by the model's
  :class:`~repro.faults.detect.FailureMonitor` with an execution-budget
  watchdog set to their budget *at the current mode*; the watchdog's
  ``budget_overrun`` is the sensor: a HI task exceeding its LO budget
  proves the optimistic assumptions wrong.
* **mode raise** — such an overrun in LO mode raises the mode to HI.
  The controller then (a) re-budgets every HI task to its HI budget
  (:meth:`FailureMonitor.rebudget`) and (b) starts degrading every LO
  task by the configured policy. Hierarchical
  :class:`~repro.rtos.sched.hier.Component` server budgets are fixed
  when the components are built and do not change with the mode.
* **degradation policies** — applied at release boundaries (in-flight
  jobs run to completion, mirroring AMC's carried-over LO interference):

  ========== ========================================================
  ``drop``    suppress every release of degraded tasks; the release
              chain stays alive on the original period grid, so tasks
              resume seamlessly on recovery
  ``skip``    release only every :data:`DEGRADE_FACTOR`-th cycle of
              degraded tasks (poly-rate degradation)
  ``elastic`` stretch the release spacing of degraded tasks to
              ``period * DEGRADE_FACTOR`` (elastic task model);
              deadlines stay relative to each actual release
  ========== ========================================================

* **recovery hysteresis** — with ``recovery_window`` set, a window of
  that length with *no* overrun anywhere returns the mode to LO (the HI
  tasks get their LO budgets back); every overrun pushes the window
  out. Without it the mode raise is sticky, matching the classical AMC
  analysis the certificates
  (:func:`~repro.analysis.schedulability.check_amc_rtb`,
  :func:`~repro.analysis.schedulability.check_edf_vd`) are computed for.

Every mode change emits a ``"mode"`` trace record (an instant in CTF
export, a section in ``obs report``, read by
:class:`~repro.obs.analyzers.ModeTracker`) and counts into
``RTOSMetrics`` (``mode_raises`` / ``mode_recoveries`` /
``jobs_degraded``); :meth:`MCController.snapshot` reports the state.

Everything sits behind the established ``is None`` guard: a model whose
``mc`` is unarmed pays one ``model.mc`` lookup per release decision and
produces byte-identical traces.
"""

from repro.kernel.waitcore import Timer
from repro.rtos.errors import RTOSError

__all__ = [
    "DEGRADE_FACTOR", "DEGRADE_POLICIES", "LEVELS", "MCController",
    "budget_pair",
]

#: the criticality levels, lowest first (``mode_index`` 0 and 1)
LEVELS = ("LO", "HI")

#: degradation policies for LO tasks in HI mode
DEGRADE_POLICIES = ("drop", "skip", "elastic")

#: how much ``skip`` and ``elastic`` slow a degraded task: ``skip``
#: releases every DEGRADE_FACTOR-th cycle, ``elastic`` spaces releases
#: ``period * DEGRADE_FACTOR`` apart (the residual LO rate that
#: ``check_amc_rtb(lo_period_scale=...)`` accounts for)
DEGRADE_FACTOR = 2

#: label of a task's release timer while it carries the release chain
#: of dropped releases (fixed, like ``taskmgr._RELEASE_LABEL``: recorded
#: schedules name timers by label)
_CHAIN_LABEL = "MCController.suppress_release.<locals>.<lambda>"


def budget_pair(name, criticality, wcet_levels):
    """Check an MC task's level and budgets; returns ``(criticality,
    (lo, hi))``.

    ``criticality`` is ``"LO"`` (also for ``None``) or ``"HI"``;
    ``wcet_levels`` holds one budget, which stands for both levels, or
    two with ``0 < lo <= hi``. Anything else raises :class:`RTOSError`.
    """
    if criticality is None:
        criticality = LEVELS[0]
    elif criticality not in LEVELS:
        raise RTOSError(
            f"unknown criticality level {criticality!r} "
            f"(levels: {', '.join(LEVELS)})"
        )
    wcet_levels = tuple(int(w) for w in wcet_levels)
    if len(wcet_levels) > len(LEVELS):
        raise RTOSError(
            f"task {name!r}: at most one wcet budget per level "
            f"({', '.join(LEVELS)}), got {wcet_levels!r}"
        )
    if not wcet_levels or any(w <= 0 for w in wcet_levels):
        raise RTOSError(
            f"task {name!r}: wcet levels must be positive, "
            f"got {wcet_levels!r}"
        )
    if wcet_levels[0] > wcet_levels[-1]:
        raise RTOSError(
            f"task {name!r}: wcet levels must be non-decreasing, "
            f"got {wcet_levels!r}"
        )
    return criticality, (wcet_levels[0], wcet_levels[-1])


class _MCTask:
    """Per-task MC registration record."""

    __slots__ = ("task", "index", "attempts")

    def __init__(self, task, index):
        self.task = task
        #: position of the task's criticality in LEVELS
        self.index = index
        #: release attempts seen while degraded (skip-policy counter)
        self.attempts = 0


class MCController:
    """Criticality-mode state machine of one RTOS model (see module doc).

    Created by :meth:`RTOSModel.mc_configure`; tasks join via
    :meth:`register` (usually through
    ``task_create(criticality=..., wcet=[lo, hi])``).
    """

    def __init__(self, model, degrade="drop", recovery_window=None):
        if degrade not in DEGRADE_POLICIES:
            raise RTOSError(
                f"unknown degradation policy {degrade!r} "
                f"(choose from {', '.join(DEGRADE_POLICIES)})"
            )
        if recovery_window is not None:
            recovery_window = int(recovery_window)
            if recovery_window <= 0:
                raise RTOSError(
                    f"recovery_window must be positive, got {recovery_window}"
                )
        self.model = model
        self.sim = model.sim
        self.trace = model.trace
        self.metrics = model.metrics
        self.degrade = degrade
        self.recovery_window = recovery_window
        #: 0 in LO mode, 1 in HI mode (the position in LEVELS)
        self.mode_index = 0
        #: task uid -> registration record
        self._by_uid = {}
        self._last_event = 0
        #: hysteresis recovery check, pending while its entry is set
        self._recovery_timer = Timer(self._recovery_check)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    @property
    def mode(self):
        """Name of the current criticality mode."""
        return LEVELS[self.mode_index]

    def register(self, task, criticality=None, wcet_levels=None):
        """Enroll ``task`` at ``criticality`` with its budget pair.

        ``criticality`` and ``wcet_levels`` (default: the task's scalar
        ``wcet``) are checked by :func:`budget_pair`. HI tasks get a
        budget watchdog at their current-mode budget — the controller's
        overrun sensor. LO tasks are watched without a budget so their
        deadline misses are counted eagerly.
        """
        criticality, task.wcet_levels = budget_pair(
            task.name, criticality,
            (task.wcet,) if wcet_levels is None else wcet_levels,
        )
        index = LEVELS.index(criticality)
        task.criticality = criticality
        self._by_uid[task.uid] = _MCTask(task, index)
        budget = task.wcet_levels[self.mode_index] if index else None
        self.model.task_watch(task, policy="log", budget=budget)
        return task

    def reset(self):
        """Back to LO mode, counters cleared (RTOSModel.init)."""
        self.mode_index = 0
        self._last_event = 0
        for info in self._by_uid.values():
            info.attempts = 0
        self.sim.cancel_scheduled(self._recovery_timer)

    # ------------------------------------------------------------------
    # sensors and mode transitions
    # ------------------------------------------------------------------

    def on_overrun(self, task):
        """Budget-watchdog callback: a watched task blew its budget."""
        self._last_event = self.sim.now
        info = self._by_uid.get(task.uid)
        if info is None:
            return  # watched task outside the MC registry
        if info.index > self.mode_index:
            self._switch(info.index, task)
        elif self._recovery_timer.entry is not None:
            # already in HI mode: push recovery out
            self._arm_recovery()

    def degraded(self, task):
        """Is ``task`` currently degraded (a LO task in HI mode)?"""
        if self.mode_index == 0:
            return False
        info = self._by_uid.get(task.uid)
        return info is not None and info.index < self.mode_index

    def suppress_release(self, task, release_time):
        """Intercept a periodic release of a degraded task.

        Called by ``TaskManager._periodic_release``. Returns True when
        this release is swallowed (``drop``, or a skipped ``skip``
        cycle); the controller then keeps the release chain alive on the
        original period grid so the task resumes on recovery.
        """
        if not self.degraded(task) or self.degrade == "elastic":
            return False
        info = self._by_uid[task.uid]
        if self.degrade == "skip":
            info.attempts += 1
            if info.attempts % DEGRADE_FACTOR == 0:
                return False  # every DEGRADE_FACTOR-th cycle still runs
        self.metrics.jobs_degraded += 1
        if self.trace.on:
            self.trace.record(
                self.sim.now, "mode", task.name, "degrade",
                policy=self.degrade, level=self.mode, release=release_time,
            )
        # the task's release timer has just fired: it carries the chain
        timer = task.release_timer
        timer.label = _CHAIN_LABEL
        self.sim.rearm(timer, release_time + task.period)
        return True

    def adjust_release(self, task, now, next_release):
        """Stretch the next release of a degraded task (``elastic``)."""
        if self.degrade != "elastic" or not self.degraded(task):
            return next_release
        stretched = task.release_time + task.period * DEGRADE_FACTOR
        if stretched <= next_release:
            return next_release
        self.metrics.jobs_degraded += 1
        if self.trace.on:
            self.trace.record(
                now, "mode", task.name, "degrade",
                policy=self.degrade, level=self.mode, release=stretched,
            )
        return stretched

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _switch(self, new_index, trigger):
        now = self.sim.now
        old = self.mode
        raising = new_index > self.mode_index
        self.mode_index = new_index
        new = self.mode
        if raising:
            self.metrics.mode_raises += 1
        else:
            self.metrics.mode_recoveries += 1
        if self.trace.on:
            self.trace.record(
                now, "mode", self.model.name,
                "raise" if raising else "recover",
                level=new, prev=old,
                **({"trigger": trigger.name} if trigger is not None else {}),
            )
        obs = self.model.obs
        if obs is not None:
            obs.registry.counter(
                f"{self.model.name}.mc."
                + ("raises" if raising else "recoveries")
            ).inc()
        self._apply_budgets()
        if self.recovery_window is not None and self.mode_index > 0:
            self._last_event = now
            self._arm_recovery()

    def _apply_budgets(self):
        monitor = self.model.monitor
        if monitor is None:
            return
        for info in self._by_uid.values():
            if info.index > 0:
                monitor.rebudget(
                    info.task, info.task.wcet_levels[self.mode_index]
                )

    def _arm_recovery(self):
        self.sim.rearm(
            self._recovery_timer, self._last_event + self.recovery_window
        )

    def _recovery_check(self):
        if self.mode_index == 0:
            return
        now = self.sim.now
        if now - self._last_event < self.recovery_window:
            # an overrun moved the goalposts; wait out the remainder
            self._arm_recovery()
            return
        self._switch(0, None)

    def snapshot(self):
        """Deterministic MC state dict (obs report / tests)."""
        return {
            "mode": self.mode,
            "levels": list(LEVELS),
            "degrade": self.degrade,
            "mode_raises": self.metrics.mode_raises,
            "mode_recoveries": self.metrics.mode_recoveries,
            "jobs_degraded": self.metrics.jobs_degraded,
            "tasks": {
                info.task.name: {
                    "criticality": info.task.criticality,
                    "wcet_levels": list(info.task.wcet_levels),
                    "degraded": self.degraded(info.task),
                }
                for info in sorted(
                    self._by_uid.values(), key=lambda i: i.task.uid
                )
            },
        }

    def __repr__(self):
        return f"MCController(mode={self.mode!r}, degrade={self.degrade!r})"
