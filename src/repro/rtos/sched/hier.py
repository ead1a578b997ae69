"""Hierarchical scheduling: budget/period resource servers per PE.

Beyond-paper extension in the style of compositional scheduling
frameworks (periodic resource model / BDR): a PE's tasks are grouped
into :class:`Component`\\ s — resource servers with a budget ``Θ`` per
period ``Π`` and their own *local* scheduling policy (any of the six
flat policies, typically EDF or fixed-priority) — and a *top-level*
server scheduler arbitrates between components. The analytic
counterpart lives in :mod:`repro.analysis.schedulability` (demand-bound
vs supply-bound functions); the cross-validation harness
(:mod:`repro.analysis.crossval`) runs the same system spec through both.

The :class:`HierarchicalScheduler` implements the plain
:class:`~repro.rtos.sched.base.Scheduler` interface, so it plugs into
the :class:`~repro.rtos.dispatch.Dispatcher` (and therefore the
unchanged Figure-4 facade) like any flat policy. Budget bookkeeping
uses two kernel timers per component:

* an **exhaustion timer**, armed when one of the component's tasks is
  dispatched, firing when the remaining budget of the current server
  window depletes — the component is then *throttled* until its next
  replenishment;
* a **replenishment timer**, armed while a throttled component still
  has ready tasks, firing at the next window boundary
  (``(k+1)·Π``) to re-run the scheduling decision.

Server windows are aligned to absolute time (window ``k`` spans
``[k·Π, (k+1)·Π)``), matching the analysis' periodic-resource model.

Enforcement granularity follows the PE's preemption mode, exactly like
task preemption (paper Section 4.3): in ``immediate`` mode a running
task is forced off the CPU the instant its server's budget depletes, so
per-window consumption never exceeds ``Θ``; in ``step`` mode the switch
happens at the task's next scheduling point, so consumption can overrun
by up to one delay step — the same accuracy bound the paper derives for
preemption. The cross-validation harness therefore runs in
``immediate`` mode.

Tasks never assigned to a component land in an implicit *background*
component: unbounded budget, lowest top-level urgency — existing
single-level code (drivers, helper tasks) composes unchanged.
"""

import functools

from repro.kernel.waitcore import Timer
from repro.rtos.sched.base import Scheduler
from repro.rtos.sched import make_scheduler as _make_local

__all__ = ["Component", "ComponentStats", "HierarchicalScheduler"]

_INF = float("inf")

#: labels of a component's exhaustion timer, one per arming site, and
#: of its replenishment timer. Recorded schedules, deadlock paths and
#: explorer fingerprints name timers by label, so the strings must not
#: change.
_ON_DISPATCH = "HierarchicalScheduler.on_dispatch.<locals>.<lambda>"
_EXHAUSTED = "HierarchicalScheduler._exhausted.<locals>.<lambda>"
_REPLENISH = "HierarchicalScheduler._ensure_replenish.<locals>.<lambda>"


class ComponentStats:
    """Per-component budget/supply accounting."""

    __slots__ = (
        "window_consumption",
        "throttles",
        "replenishments",
        "dispatches",
    )

    def __init__(self):
        #: window index -> execution time consumed by the component's
        #: tasks inside that server window (raw, including any step-mode
        #: overrun past the budget)
        self.window_consumption = {}
        #: times the component was suspended on budget depletion
        self.throttles = 0
        #: replenishment-timer firings that re-ran scheduling
        self.replenishments = 0
        #: task dispatches charged to this component
        self.dispatches = 0

    @property
    def total_consumed(self):
        return sum(self.window_consumption.values())

    @property
    def max_window_consumption(self):
        if not self.window_consumption:
            return 0
        return max(self.window_consumption.values())


class Component:
    """A budget/period resource server holding a taskset.

    Parameters
    ----------
    name:
        Label used in traces and metrics.
    budget:
        CPU time ``Θ`` the component may consume per server window,
        fixed for the component's life. ``None`` makes the component
        *unbounded* (a best-effort background server that is never
        throttled).
    period:
        Server window length ``Π``. Required for bounded components.
    policy:
        Local scheduling policy for the tasks inside the component —
        anything :func:`repro.rtos.sched.make_scheduler` accepts except
        a nested :class:`HierarchicalScheduler`.
    priority:
        Top-level fixed priority of the server (lower = more urgent)
        under a ``"priority"`` top-level scheduler; ignored under
        ``"edf"`` (servers then compete by window deadline).
    """

    __slots__ = (
        "name",
        "budget",
        "period",
        "priority",
        "policy",
        "local",
        "tasks",
        "index",
        "stats",
        "_run_task",
        "_run_start",
        "_exhaust_timer",
        "_replenish_timer",
    )

    def __init__(self, name, budget=None, period=None, policy="edf",
                 priority=0):
        if budget is not None:
            budget = int(budget)
            if period is None:
                raise ValueError(
                    f"component {name!r}: a bounded budget needs a period"
                )
            period = int(period)
            if budget <= 0 or period <= 0:
                raise ValueError(
                    f"component {name!r}: budget and period must be positive"
                )
            if budget > period:
                raise ValueError(
                    f"component {name!r}: budget {budget} exceeds period {period}"
                )
        self.name = name
        self.budget = budget
        self.period = int(period) if period is not None else None
        self.priority = priority
        self.policy = policy
        #: local ready queue + policy (private scheduler instance)
        self.local = _make_local(policy)
        if isinstance(self.local, HierarchicalScheduler):
            # the top level reads the local ready queue directly, and
            # nested servers would never get their budget timers
            raise ValueError(
                f"component {name!r}: the local policy must be a flat "
                f"scheduler, not {self.local!r}"
            )
        self.tasks = []
        #: registration order on the PE (top-level tie break)
        self.index = 0
        self.stats = ComponentStats()
        #: task of this component currently holding the CPU, and since when
        self._run_task = None
        self._run_start = None
        #: budget timers, owned for life; set up by the scheduler the
        #: component is registered with
        self._exhaust_timer = None
        self._replenish_timer = None

    # -- budget bookkeeping (all times are integers) -----------------------

    @property
    def bounded(self):
        return self.budget is not None

    def window(self, now):
        """Index of the server window containing ``now``."""
        return now // self.period

    def window_deadline(self, now):
        """End of the current server window (EDF top-level key)."""
        if self.period is None:
            return _INF
        return (self.window(now) + 1) * self.period

    def _charge(self, start, end):
        """Account executed time, split across server windows."""
        if self.budget is None or end <= start:
            return
        consumption = self.stats.window_consumption
        period = self.period
        w = start // period
        boundary = (w + 1) * period
        while end > boundary:
            consumption[w] = consumption.get(w, 0) + (boundary - start)
            start, w, boundary = boundary, w + 1, boundary + period
        consumption[w] = consumption.get(w, 0) + (end - start)

    def _settle(self, now):
        """Charge the in-flight run up to ``now`` (idempotent)."""
        if self._run_start is not None and now > self._run_start:
            self._charge(self._run_start, now)
            self._run_start = now

    def remaining(self, now):
        """Budget left in the current server window (inf if unbounded).

        Charges the in-flight run up to ``now`` first, so every caller
        sees the consumption of the current instant.
        """
        budget = self.budget
        if budget is None:
            return _INF
        start = self._run_start
        if start is not None and now > start:
            self._charge(start, now)
            self._run_start = now
        left = budget - self.stats.window_consumption.get(now // self.period, 0)
        return left if left > 0 else 0

    def __repr__(self):
        if self.bounded:
            return (
                f"Component({self.name!r}, {self.budget}/{self.period}, "
                f"policy={self.policy!r})"
            )
        return f"Component({self.name!r}, unbounded, policy={self.policy!r})"


class HierarchicalScheduler(Scheduler):
    """Two-level server scheduler (see module doc).

    Parameters
    ----------
    components:
        Iterable of :class:`Component`. Tasks are routed to components
        via :meth:`assign` (the platform layer's
        ``ProcessingElement.add_task(component=...)`` does this).
    top:
        Top-level policy arbitrating between components:
        ``"priority"`` (fixed server priorities) or ``"edf"``
        (earliest server-window deadline first).
    """

    __slots__ = ("components", "top", "background", "_by_task", "_dispatcher",
                 "_sim")

    name = "hier"

    def __init__(self, components=(), top="priority"):
        super().__init__()
        if top not in ("priority", "edf"):
            raise ValueError(f"unknown top-level policy: {top!r}")
        self.top = top
        self.components = []
        #: implicit best-effort server for unassigned tasks
        self.background = Component(
            "background", None, None, policy="priority", priority=_INF
        )
        self.background.index = _INF
        self._own_timers(self.background)
        #: task uid -> component
        self._by_task = {}
        self._dispatcher = None
        self._sim = None
        for comp in components:
            self.add_component(comp)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_component(self, comp):
        """Register ``comp`` with this scheduler; returns it."""
        if any(c.name == comp.name for c in self.components):
            raise ValueError(f"duplicate component name {comp.name!r}")
        comp.index = len(self.components)
        self.components.append(comp)
        self._own_timers(comp)
        for task in comp.tasks:
            self._by_task[task.uid] = comp
        return comp

    def _own_timers(self, comp):
        """Give ``comp`` its exhaustion and replenishment timers."""
        comp._exhaust_timer = Timer(
            functools.partial(self._exhausted, comp), _ON_DISPATCH
        )
        comp._replenish_timer = Timer(
            functools.partial(self._replenished, comp), _REPLENISH
        )

    def assign(self, task, comp):
        """Route ``task`` to ``comp``'s local scheduler."""
        if isinstance(comp, str):
            comp = self.component(comp)
        if comp is not self.background and comp not in self.components:
            self.add_component(comp)
        self._by_task[task.uid] = comp
        if task not in comp.tasks:
            comp.tasks.append(task)
        return comp

    def component(self, name):
        """Look up a registered component by name."""
        for comp in self.components:
            if comp.name == name:
                return comp
        if name == self.background.name:
            return self.background
        raise KeyError(f"no component named {name!r}")

    def component_of(self, task):
        """The component ``task`` is served by (background if unassigned)."""
        return self._by_task.get(task.uid, self.background)

    def bind(self, dispatcher):
        """Hook the dispatcher (budget timers + forced preemption)."""
        self._dispatcher = dispatcher
        self._sim = dispatcher.sim

    # ------------------------------------------------------------------
    # Scheduler interface (consumed by the Dispatcher)
    # ------------------------------------------------------------------

    def on_ready(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        comp.local.on_ready(task, now)
        if comp.budget is not None and comp.remaining(now) <= 0:
            # budget already gone this window: make sure the scheduling
            # decision re-runs at the next replenishment
            self._ensure_replenish(comp, now)

    def remove(self, task):
        self._by_task.get(task.uid, self.background).local.remove(task)

    def rekey(self, task, now):
        self._by_task.get(task.uid, self.background).local.rekey(task, now)

    def peek(self, now):
        comp = self._peek_component(now)
        if comp is None:
            return None
        return comp.local.peek(now)

    def _peek_component(self, now):
        # components are visited in index order, so a strict ``<`` on the
        # top key alone breaks ties by index, as ``(key, index)`` would;
        # a flat local policy peeks a task exactly when ``_ready`` is
        # non-empty
        best = None
        best_key = None
        edf = self.top == "edf"
        for comp in self.components:
            if not comp.local._ready:
                continue
            if comp.budget is not None and comp.remaining(now) <= 0:
                self._ensure_replenish(comp, now)
                continue
            if not edf:
                key = comp.priority
            elif comp.period is None:
                key = _INF
            else:
                key = (now // comp.period + 1) * comp.period
            if best is None or key < best_key:
                best = comp
                best_key = key
        if best is None and self.background.local._ready:
            # the background's key is infinite under both top policies:
            # it runs only when no other component is eligible
            best = self.background
        return best

    def tied_best(self, now):
        # server arbitration is total-ordered by (key, comp.index), so
        # there is never a cross-component tie to expose; within the
        # winning component, local ties are real decision points
        comp = self._peek_component(now)
        if comp is None:
            return []
        return comp.local.tied_best(now)

    def expired(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        if comp.budget is not None and comp.remaining(now) <= 0:
            self._ensure_replenish(comp, now)
            return True
        return False

    def preempts(self, candidate, running, now):
        by_task = self._by_task
        background = self.background
        comp_c = by_task.get(candidate.uid, background)
        comp_r = by_task.get(running.uid, background)
        if comp_r.budget is not None and comp_r.remaining(now) <= 0:
            # the running task's server is out of budget: any eligible
            # candidate takes the CPU at this scheduling point
            return True
        if comp_c is comp_r:
            return comp_c.local.preempts(candidate, running, now)
        if self.top == "edf":
            key_c = comp_c.window_deadline(now)
            key_r = comp_r.window_deadline(now)
        else:
            key_c = comp_c.priority
            key_r = comp_r.priority
        return key_c < key_r or (key_c == key_r and comp_c.index < comp_r.index)

    def on_dispatch(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        comp.local.on_dispatch(task, now)
        comp.stats.dispatches += 1
        comp._run_task = task
        comp._run_start = now
        sim = self._sim
        if comp.budget is not None and sim is not None:
            timer = comp._exhaust_timer
            timer.label = _ON_DISPATCH
            sim.rearm(timer, now + comp.remaining(now))

    def on_yield(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        if comp._run_task is not task:
            return
        comp._settle(now)
        comp._run_task = None
        comp._run_start = None
        timer = comp._exhaust_timer
        if timer.entry is not None:
            self._sim.cancel_scheduled(timer)
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher.model.obs is not None:
            self._observe_budget(comp, now)

    # ------------------------------------------------------------------
    # budget timers
    # ------------------------------------------------------------------

    def _exhausted(self, comp):
        """Exhaustion timer callback: throttle or re-arm."""
        task = comp._run_task
        if task is None:
            return  # stale: the task yielded at this same instant
        now = self._sim.now
        left = comp.remaining(now)
        if left > 0:
            # a window boundary replenished the budget mid-run
            timer = comp._exhaust_timer
            timer.label = _EXHAUSTED
            self._sim.rearm(timer, now + left)
            return
        comp.stats.throttles += 1
        dispatcher = self._dispatcher
        if dispatcher.trace.on:
            dispatcher.trace.record(
                now, "sched", dispatcher.name, "throttle",
                component=comp.name, task=task.name,
            )
        self._observe_throttle(comp)
        self._ensure_replenish(comp, now)
        if dispatcher.running is task and dispatcher.preemption == "immediate":
            # exact enforcement: force the task off the CPU now; its
            # remaining delay resumes after the next dispatch
            dispatcher.preempt_running(comp.name)
        else:
            # step mode: the switch happens at the task's next
            # scheduling point (bounded overrun, like t4 -> t4')
            dispatcher.resched_from_outside()

    def _ensure_replenish(self, comp, now):
        # callers pass bounded components only
        if self._sim is None:
            return
        target = comp.window_deadline(now)
        timer = comp._replenish_timer
        if timer.entry is not None and timer.time == target:
            return
        self._sim.rearm(timer, target)

    def _replenished(self, comp):
        comp.stats.replenishments += 1
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.resched_from_outside()

    # ------------------------------------------------------------------
    # observability (guards mirror the OS services' obs pattern)
    # ------------------------------------------------------------------

    def _observe_budget(self, comp, now):
        # the caller has checked that an obs bundle is attached
        if not comp.bounded:
            return
        used = comp.stats.window_consumption.get(comp.window(now), 0)
        self._dispatcher.model.obs.component_budget(comp.name).set(used)

    def _observe_throttle(self, comp):
        obs = self._dispatcher.model.obs
        if obs is not None:
            obs.component_throttles(comp.name).inc()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def ready_tasks(self):
        tasks = []
        for comp in self.components:
            tasks.extend(comp.local.ready_tasks)
        tasks.extend(self.background.local.ready_tasks)
        return tasks

    def __len__(self):
        return sum(len(c.local) for c in self.components) + len(
            self.background.local
        )

    def __repr__(self):
        comps = ", ".join(c.name for c in self.components)
        return f"HierarchicalScheduler(top={self.top!r}, components=[{comps}])"
