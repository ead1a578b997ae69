"""Mixed-criticality modes: overrun-triggered reconfiguration + recovery.

Beyond-paper extension in the style of Vestal-model mixed-criticality
scheduling (Vestal 2007; Baruah/Burns' AMC): every task carries a
*criticality level* from an ordered lattice (default ``("LO", "HI")``,
extensible to more levels) and a vector of per-level execution budgets
``wcet_levels`` with ``wcet[LO] <= wcet[HI] <= ...``. The system runs in
one *criticality mode* at a time, starting at the base level:

* **overrun sensing** — tasks above the base level are watched by the
  model's :class:`~repro.faults.detect.FailureMonitor` with an
  execution-budget watchdog set to their budget *at the current mode*;
  the watchdog's ``budget_overrun`` is the sensor: a task exceeding its
  current-level budget proves the optimistic assumptions wrong.
* **mode raise** — an overrun by a task whose criticality lies above the
  current mode raises the mode to that level. The controller then
  (a) re-budgets every above-base task to its new-level budget
  (:meth:`FailureMonitor.rebudget`), (b) reconfigures hierarchical
  :class:`~repro.rtos.sched.hier.Component` server budgets per the
  ``component_budgets`` table, and (c) starts degrading every task
  *below* the new mode by the configured policy.
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
  that length with *no* overrun anywhere steps the mode back down one
  level (budgets and component servers are restored level by level);
  every overrun pushes the window out. Without it the mode raise is
  sticky, matching the classical AMC analysis the
  :mod:`repro.analysis.schedulability` certificates
  (:func:`~repro.analysis.schedulability.check_amc_rtb`,
  :func:`~repro.analysis.schedulability.check_edf_vd`) are computed for.

Mode changes emit ``"mode"`` trace records (instants in CTF export, a
section in ``obs report``) and count into ``RTOSMetrics``
(``mode_raises`` / ``mode_recoveries`` / ``jobs_degraded``).

Everything sits behind the established ``is None`` guard: a model whose
``mc`` is unarmed pays one ``model.mc`` lookup per release decision and
produces byte-identical traces.
"""

from repro.kernel.waitcore import Timer
from repro.rtos.errors import RTOSError

__all__ = [
    "DEFAULT_LEVELS", "DEGRADE_FACTOR", "DEGRADE_POLICIES", "MCController",
]

#: default criticality lattice, lowest first
DEFAULT_LEVELS = ("LO", "HI")

#: degradation policies for tasks below the current mode
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


class _MCTask:
    """Per-task MC registration record."""

    __slots__ = ("task", "index", "attempts")

    def __init__(self, task, index):
        self.task = task
        self.index = index
        #: release attempts seen while degraded (skip-policy counter)
        self.attempts = 0


class MCController:
    """Criticality-mode state machine of one RTOS model (see module doc).

    Created by :meth:`RTOSModel.mc_configure`; tasks join via
    :meth:`register` (usually through
    ``task_create(criticality=..., wcet=[lo, hi])``).
    """

    def __init__(self, model, levels=DEFAULT_LEVELS, degrade="drop",
                 recovery_window=None, component_budgets=None):
        levels = tuple(levels)
        if len(levels) < 2:
            raise RTOSError(
                f"need at least two criticality levels, got {levels!r}"
            )
        if len(set(levels)) != len(levels):
            raise RTOSError(f"duplicate criticality levels in {levels!r}")
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
        if component_budgets is not None:
            unknown = set(component_budgets) - set(levels)
            if unknown:
                raise RTOSError(
                    f"component_budgets for unknown levels: {sorted(unknown)}"
                )
            component_budgets = {
                level: dict(table)
                for level, table in component_budgets.items()
            }
        self.model = model
        self.sim = model.sim
        self.trace = model.trace
        self.metrics = model.metrics
        self.levels = levels
        self.degrade = degrade
        self.recovery_window = recovery_window
        #: level name -> {component name -> server budget} applied on
        #: entering that mode (hierarchical scheduler only)
        self.component_budgets = component_budgets or {}
        self.mode_index = 0
        #: task uid -> registration record
        self._by_uid = {}
        self._callbacks = []
        self._last_event = 0
        #: hysteresis recovery check, pending while its entry is set
        self._recovery_timer = Timer(self._recovery_check)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    @property
    def mode(self):
        """Name of the current criticality mode."""
        return self.levels[self.mode_index]

    def level_index(self, level):
        """Position of ``level`` in the lattice (0 = base)."""
        try:
            return self.levels.index(level)
        except ValueError:
            raise RTOSError(
                f"unknown criticality level {level!r} "
                f"(levels: {', '.join(self.levels)})"
            ) from None

    def register(self, task, criticality=None, wcet_levels=None):
        """Enroll ``task`` at ``criticality`` with per-level budgets.

        ``wcet_levels`` is a non-decreasing sequence of execution
        budgets, one per lattice level (shorter vectors are padded with
        their last entry; default: the task's scalar ``wcet`` at every
        level). Above-base tasks get a budget watchdog at their
        current-mode budget — the controller's overrun sensor. Base
        (lowest-criticality) tasks are watched without a budget so
        their deadline misses are counted eagerly.
        """
        index = self.level_index(
            self.levels[0] if criticality is None else criticality
        )
        if wcet_levels is None:
            wcet_levels = (task.wcet,)
        wcet_levels = tuple(int(w) for w in wcet_levels)
        if not wcet_levels or any(w <= 0 for w in wcet_levels):
            raise RTOSError(
                f"task {task.name!r}: wcet levels must be positive, "
                f"got {wcet_levels!r}"
            )
        if any(a > b for a, b in zip(wcet_levels, wcet_levels[1:])):
            raise RTOSError(
                f"task {task.name!r}: wcet levels must be non-decreasing, "
                f"got {wcet_levels!r}"
            )
        wcet_levels = wcet_levels + (
            wcet_levels[-1],
        ) * (len(self.levels) - len(wcet_levels))
        task.criticality = self.levels[index]
        task.wcet_levels = wcet_levels
        self._by_uid[task.uid] = _MCTask(task, index)
        budget = self._budget_at(task, self.mode_index) if index > 0 else None
        self.model.task_watch(task, policy="log", budget=budget)
        return task

    def on_mode_change(self, callback):
        """Register ``callback(old_level, new_level, now, trigger_task)``.

        ``trigger_task`` is the overrunning task on a raise and ``None``
        on a hysteresis recovery.
        """
        self._callbacks.append(callback)
        return callback

    def reset(self):
        """Back to the base mode, counters cleared (RTOSModel.init)."""
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
            # already at (or above) this task's level: push recovery out
            self._arm_recovery()

    def degraded(self, task):
        """Is ``task`` currently degraded (below the active mode)?"""
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

    def _budget_at(self, task, mode_index):
        levels = task.wcet_levels
        return levels[min(mode_index, len(levels) - 1)]

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
        self._apply_components()
        for callback in self._callbacks:
            callback(old, new, now, trigger)
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
                    info.task, self._budget_at(info.task, self.mode_index)
                )

    def _apply_components(self):
        table = self.component_budgets.get(self.mode)
        if not table:
            return
        scheduler = self.model.scheduler
        reconfigure = getattr(scheduler, "reconfigure_budget", None)
        if reconfigure is None:
            raise RTOSError(
                "component_budgets need a hierarchical scheduler, "
                f"got {scheduler!r}"
            )
        for name, budget in table.items():
            reconfigure(name, budget)

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
        self._switch(self.mode_index - 1, None)

    def snapshot(self):
        """Deterministic MC state dict (obs report / tests)."""
        return {
            "mode": self.mode,
            "levels": list(self.levels),
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
        return (
            f"MCController(mode={self.mode!r}, levels={self.levels!r}, "
            f"degrade={self.degrade!r})"
        )
