"""Analytic schedulability for hierarchically scheduled multi-PE systems.

A second ground truth besides simulation: classic compositional
real-time analysis over the same system the simulator executes
(:mod:`repro.rtos.sched.hier` + :mod:`repro.platform`). The
cross-validation harness (:mod:`repro.analysis.crossval`) asserts the
two agree — no analytically-schedulable task may miss a deadline in
simulation.

The math is the periodic resource model (a component is a server
supplying ``Θ`` units of CPU every ``Π``) and its linear BDR bound:

* **demand-bound function** ``dbf(W, t)`` — the maximum execution demand
  a taskset ``W`` can release and require finished inside any window of
  length ``t`` (EDF viewpoint);
* **supply-bound function** ``sbf(Θ, Π, t)`` — the minimum CPU supply a
  periodic server guarantees in any window of length ``t``; the
  worst-case blackout is ``2(Π − Θ)`` (budget given at the start of one
  period, then at the end of the next);
* a component's taskset is schedulable iff demand never exceeds supply:
  ``dbf(t) ≤ sbf(t)`` at every deadline-aligned test point (EDF), or per
  task via time-demand analysis against ``sbf`` (fixed priority);
* the **top level** treats each server as a periodic task
  ``(C=Θ, T=Π, D=Π)`` on the full CPU: utilization bound for an EDF top
  level, response-time analysis for a fixed-priority top level.

The analysis is deliberately *conservative* where it must truncate
(hyperperiod caps): it may call a schedulable system unschedulable,
never the reverse — the direction the cross-validation contract needs.

All times are integers in the simulator's time unit. Heterogeneous
cores are handled exactly like the platform layer: per-PE ``speed``
scales WCETs via ``ceil(wcet / speed)``.
"""

import math
from dataclasses import dataclass, field

__all__ = [
    "TaskSpec",
    "ComponentSpec",
    "PESpec",
    "SystemSpec",
    "TaskVerdict",
    "ComponentVerdict",
    "SystemVerdict",
    "MCTaskSpec",
    "MCTaskVerdict",
    "MCVerdict",
    "bdr_interface",
    "check_amc_rtb",
    "check_component",
    "check_edf_vd",
    "check_system",
    "dbf",
    "sbf_bdr",
    "sbf_full",
    "sbf_periodic",
]

#: cap on analysis horizons when the taskset hyperperiod explodes; a
#: truncated check reports unschedulable (conservative), never the reverse
MAX_TEST_POINTS = 50_000


# ---------------------------------------------------------------------------
# system specification (mirrors the runtime objects, but pure data)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """A periodic task: release every ``period``, run ``wcet``, finish
    within ``deadline`` (constrained: ``deadline <= period``)."""

    name: str
    period: int
    wcet: int
    deadline: int = None
    priority: int = None

    def __post_init__(self):
        if self.period <= 0 or self.wcet <= 0:
            raise ValueError(f"task {self.name!r}: period and wcet must be > 0")
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        if not 0 < self.deadline <= self.period:
            raise ValueError(
                f"task {self.name!r}: need 0 < deadline <= period "
                f"(got D={self.deadline}, T={self.period})"
            )

    def scaled(self, speed):
        """This task's demand on a core with the given speed factor."""
        if speed == 1.0:
            return self
        return TaskSpec(self.name, self.period, math.ceil(self.wcet / speed),
                        self.deadline, self.priority)

    @property
    def utilization(self):
        return self.wcet / self.period


@dataclass(frozen=True)
class ComponentSpec:
    """A resource server: ``budget`` units of CPU per ``period``, local
    policy ``"edf"`` or ``"priority"``. ``budget=None`` models the
    unbounded background server (best effort — excluded from
    guarantees)."""

    name: str
    budget: int = None
    period: int = None
    policy: str = "edf"
    priority: int = 0
    tasks: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.policy not in ("edf", "priority", "rms"):
            raise ValueError(
                f"component {self.name!r}: unsupported local policy "
                f"{self.policy!r}"
            )
        if self.budget is not None:
            if self.period is None or self.period <= 0 or self.budget <= 0:
                raise ValueError(
                    f"component {self.name!r}: need positive budget and period"
                )
            if self.budget > self.period:
                raise ValueError(
                    f"component {self.name!r}: budget exceeds period"
                )

    @property
    def bounded(self):
        return self.budget is not None

    @property
    def server_utilization(self):
        return self.budget / self.period if self.bounded else 0.0


@dataclass(frozen=True)
class PESpec:
    """One core: top-level server policy, speed factor, components."""

    name: str
    top: str = "priority"
    speed: float = 1.0
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.top not in ("priority", "edf"):
            raise ValueError(f"PE {self.name!r}: unknown top policy {self.top!r}")
        if self.speed <= 0:
            raise ValueError(f"PE {self.name!r}: speed must be positive")


@dataclass(frozen=True)
class SystemSpec:
    """A multi-PE system (PEs are analyzed independently — tasks are
    statically mapped, no migration)."""

    name: str
    pes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pes", tuple(self.pes))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class TaskVerdict:
    task: str
    schedulable: bool
    #: analysis guarantees only hold for tasks in bounded components
    guaranteed: bool
    reason: str = ""


@dataclass
class ComponentVerdict:
    component: str
    pe: str
    schedulable: bool
    #: background servers are best-effort: never *guaranteed* schedulable
    best_effort: bool
    utilization: float
    tasks: list = field(default_factory=list)
    reason: str = ""


@dataclass
class SystemVerdict:
    system: str
    schedulable: bool
    components: list = field(default_factory=list)
    #: per-PE top-level verdicts: pe name -> (ok, reason)
    top_level: dict = field(default_factory=dict)

    @property
    def guaranteed(self):
        """``(pe, task)`` name pairs of the tasks the analysis certifies
        to always meet their deadlines."""
        return [
            (comp.pe, task.task)
            for comp in self.components
            for task in comp.tasks
            if task.guaranteed and task.schedulable
        ]

    @property
    def guaranteed_tasks(self):
        """Names of tasks the analysis certifies to always meet deadlines."""
        return [task for _, task in self.guaranteed]

    def task_verdict(self, name):
        for comp in self.components:
            for task in comp.tasks:
                if task.task == name:
                    return task
        raise KeyError(f"no task named {name!r} in the verdict")


# ---------------------------------------------------------------------------
# bound functions
# ---------------------------------------------------------------------------


def sbf_periodic(budget, period, t):
    """Minimum supply of a periodic server ``(Θ=budget, Π=period)`` over
    any interval of length ``t`` (Shin & Lee's periodic resource model).

    Worst case: the interval starts right after a full budget was
    delivered at the *start* of a period, and the next budget is
    delivered at the *end* of the following one — a blackout of
    ``2(Π − Θ)`` — then ``Θ`` per period, delivered as late as possible.
    """
    if t <= 0:
        return 0
    if budget >= period:
        return t  # degenerate: the server owns the CPU
    s = t - 2 * (period - budget)
    if s <= 0:
        return 0
    k = s // period
    return k * budget + min(s - k * period, budget)


def sbf_full(t):
    """Supply of a dedicated CPU."""
    return max(0, t)


def bdr_interface(budget, period):
    """The server's bounded-delay-resource abstraction ``(α, Δ)``:
    availability factor and worst-case supply delay."""
    return budget / period, 2 * (period - budget)


def sbf_bdr(alpha, delta, t):
    """Linear BDR lower bound on supply: ``α · (t − Δ)``.

    ``sbf_bdr(*bdr_interface(Θ, Π), t) <= sbf_periodic(Θ, Π, t)`` for
    all t — the property test pins this.
    """
    if t <= delta:
        return 0.0
    return alpha * (t - delta)


def dbf(tasks, t):
    """EDF demand bound of ``tasks`` over any interval of length ``t``:
    total work that can be both released and due within the interval."""
    demand = 0
    for task in tasks:
        jobs = (t - task.deadline) // task.period + 1
        if jobs > 0:
            demand += jobs * task.wcet
    return demand


def _dbf_test_points(tasks, bound):
    """Deadline-aligned step points of ``dbf`` up to ``bound``:
    ``{D_i + k·T_i}``. Returns None if the point set would exceed
    MAX_TEST_POINTS (caller must treat as "analysis truncated")."""
    points = set()
    for task in tasks:
        d = task.deadline
        while d <= bound:
            points.add(d)
            d += task.period
            if len(points) > MAX_TEST_POINTS:
                return None
    return sorted(points)


def _analysis_bound(tasks, server_period):
    """Horizon for the EDF demand check: the taskset hyperperiod plus
    one server period covers every alignment of demand vs supply."""
    bound = math.lcm(*(task.period for task in tasks))
    if server_period:
        bound += server_period
    return bound


# ---------------------------------------------------------------------------
# component-level checks
# ---------------------------------------------------------------------------


def check_component(comp, speed=1.0, supply=None):
    """Check one component's taskset against its server supply.

    ``supply`` is a function ``t -> minimum CPU time`` (defaults to the
    component's own periodic-server ``sbf``; pass :func:`sbf_full` for a
    dedicated core). Returns a :class:`ComponentVerdict`.
    """
    tasks = [task.scaled(speed) for task in comp.tasks]
    utilization = sum(task.utilization for task in tasks)
    if not comp.bounded:
        # background server: whatever slack exists, no guarantee
        verdict = ComponentVerdict(
            comp.name, "?", schedulable=True, best_effort=True,
            utilization=utilization,
            reason="background server: best effort, no guarantee",
        )
        verdict.tasks = [
            TaskVerdict(task.name, True, guaranteed=False,
                        reason="background server")
            for task in tasks
        ]
        return verdict
    if supply is None:
        budget, period = comp.budget, comp.period

        def supply(t):
            return sbf_periodic(budget, period, t)

    if not tasks:
        return ComponentVerdict(comp.name, "?", True, False, 0.0,
                                reason="empty taskset")
    if comp.policy == "edf":
        ok, task_verdicts, reason = _check_edf(tasks, supply, comp.period)
    else:  # "priority" / "rms"
        ok, task_verdicts, reason = _check_fp(tasks, supply,
                                              rms=comp.policy == "rms")
    verdict = ComponentVerdict(comp.name, "?", ok, False, utilization,
                               reason=reason)
    verdict.tasks = task_verdicts
    return verdict


def _check_edf(tasks, supply, server_period):
    """EDF demand check: ``dbf(t) <= supply(t)`` at every step point."""
    bound = _analysis_bound(tasks, server_period)
    points = _dbf_test_points(tasks, bound)
    if points is None:
        return False, [
            TaskVerdict(task.name, False, True, reason="analysis truncated")
            for task in tasks
        ], (
            f"hyperperiod needs more than {MAX_TEST_POINTS} test points; "
            f"conservatively unschedulable"
        )
    for t in points:
        demand = dbf(tasks, t)
        if demand > supply(t):
            # under EDF an overload is a taskset-wide property: every
            # task may be the one that misses
            reason = f"dbf({t})={demand} > sbf({t})={supply(t)}"
            return False, [
                TaskVerdict(task.name, False, True, reason=reason)
                for task in tasks
            ], reason
    return True, [
        TaskVerdict(task.name, True, True) for task in tasks
    ], ""


def _check_fp(tasks, supply, rms=False):
    """Fixed-priority time-demand analysis against the supply bound.

    For each task (priority order; lower value = more urgent): find a
    point ``t <= D_i`` where its WCET plus all higher-priority
    interference fits into the guaranteed supply.
    """
    def prio(task):
        if rms:
            return (task.period, task.name)
        p = task.priority if task.priority is not None else 10**9
        return (p, task.name)

    ordered = sorted(tasks, key=prio)
    verdicts = []
    all_ok = True
    first_reason = ""
    for i, task in enumerate(ordered):
        higher = ordered[:i]
        ok, reason = _tda_fits(task, higher, supply)
        if not ok:
            all_ok = False
            if not first_reason:
                first_reason = f"{task.name}: {reason}"
        verdicts.append(TaskVerdict(task.name, ok, True, reason=reason))
    order = {task.name: j for j, task in enumerate(tasks)}
    verdicts.sort(key=lambda v: order[v.task])
    return all_ok, verdicts, first_reason


def _tda_fits(task, higher, supply):
    """Does ``task``'s demand fit the supply at some ``t <= D``?"""
    def demand(t):
        return task.wcet + sum(
            math.ceil(t / h.period) * h.wcet for h in higher
        )

    # testing points: multiples of higher-priority periods in (0, D],
    # plus the deadline itself
    points = {task.deadline}
    for h in higher:
        m = h.period
        while m < task.deadline:
            points.add(m)
            m += h.period
        if len(points) > MAX_TEST_POINTS:
            return False, "analysis truncated"
    for t in sorted(points):
        if demand(t) <= supply(t):
            return True, ""
    t = task.deadline
    return False, f"demand({t})={demand(t)} > sbf({t})={supply(t)}"


# ---------------------------------------------------------------------------
# top level: servers as periodic tasks on the full CPU
# ---------------------------------------------------------------------------


def _check_top_level(pe):
    """Can the PE's servers all deliver their budgets on time?"""
    servers = [comp for comp in pe.components if comp.bounded]
    if not servers:
        return True, "no bounded servers"
    utilization = sum(s.server_utilization for s in servers)
    if pe.top == "edf":
        if utilization > 1.0 + 1e-9:
            return False, (
                f"server utilization {utilization:.3f} > 1 under EDF"
            )
        return True, f"server utilization {utilization:.3f} <= 1"
    # fixed-priority top level: response-time fixed point per server
    ordered = sorted(servers, key=lambda s: (s.priority, s.name))
    for i, server in enumerate(ordered):
        higher = ordered[:i]

        def interference(r, higher=higher):
            return sum(math.ceil(r / h.period) * h.budget for h in higher)

        if _rta(server.budget, server.period, interference) is None:
            return False, (
                f"server {server.name!r}: worst-case budget delivery "
                f"not bounded by period {server.period}"
            )
    return True, "all server response times within periods"


# ---------------------------------------------------------------------------
# mixed criticality: AMC-rtb (fixed priority) and EDF-VD (EDF)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCTaskSpec:
    """A dual-criticality sporadic/periodic task (Vestal model).

    ``wcet_lo`` is the optimistic (LO-mode) budget, ``wcet_hi`` the
    pessimistic (HI-mode) one; LO tasks default ``wcet_hi`` to
    ``wcet_lo`` (they receive no HI-mode allowance). ``priority``
    (lower = more urgent) is used by :func:`check_amc_rtb` only.
    """

    name: str
    period: int
    wcet_lo: int
    wcet_hi: int = None
    criticality: str = "LO"
    deadline: int = None
    priority: int = None

    def __post_init__(self):
        if self.period <= 0 or self.wcet_lo <= 0:
            raise ValueError(
                f"task {self.name!r}: period and wcet_lo must be > 0"
            )
        if self.criticality not in ("LO", "HI"):
            raise ValueError(
                f"task {self.name!r}: criticality must be 'LO' or 'HI', "
                f"got {self.criticality!r}"
            )
        if self.wcet_hi is None:
            object.__setattr__(self, "wcet_hi", self.wcet_lo)
        if self.wcet_hi < self.wcet_lo:
            raise ValueError(
                f"task {self.name!r}: need wcet_lo <= wcet_hi "
                f"(got {self.wcet_lo} > {self.wcet_hi})"
            )
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        if not 0 < self.deadline <= self.period:
            raise ValueError(
                f"task {self.name!r}: need 0 < deadline <= period "
                f"(got D={self.deadline}, T={self.period})"
            )

    @property
    def is_hi(self):
        return self.criticality == "HI"

    def utilization(self, level):
        wcet = self.wcet_hi if level == "HI" else self.wcet_lo
        return wcet / self.period


@dataclass
class MCTaskVerdict:
    task: str
    criticality: str
    schedulable: bool
    #: worst-case response times per analyzed phase (AMC-rtb);
    #: ``None`` for phases the task does not participate in
    response_lo: int = None
    response_hi: int = None
    response_switch: int = None
    reason: str = ""


@dataclass
class MCVerdict:
    """Outcome of one mixed-criticality schedulability test.

    ``schedulable`` means *certified*: every task meets its deadline in
    LO mode, and every HI task also meets it in steady HI mode and
    across the mode switch — the property the MC cross-validation
    asserts against simulation.
    """

    test: str
    schedulable: bool
    tasks: list = field(default_factory=list)
    #: utilization summary: (level of task, level of budget) -> value
    utilization: dict = field(default_factory=dict)
    #: EDF-VD deadline-scaling factor (None for AMC / unused)
    x_factor: float = None
    reason: str = ""

    def task_verdict(self, name):
        for tv in self.tasks:
            if tv.task == name:
                return tv
        raise KeyError(f"no task named {name!r} in the verdict")

    @property
    def hi_tasks(self):
        return [tv for tv in self.tasks if tv.criticality == "HI"]


def _rta(own_wcet, deadline, interference):
    """Response-time fixed point ``R = own_wcet + interference(R)``.

    Returns the converged response time, or ``None`` when it exceeds
    ``deadline`` (busy-window divergence included).
    """
    r = own_wcet
    for _ in range(MAX_TEST_POINTS):
        nxt = own_wcet + interference(r)
        if nxt == r:
            # converged — but the fixed point itself must meet the
            # deadline (own_wcet alone can already exceed it)
            return r if r <= deadline else None
        r = nxt
        if r > deadline:
            return None
    return None  # did not converge: conservatively unschedulable


def check_amc_rtb(tasks, lo_period_scale=None):
    """Adaptive mixed criticality, response-time-bound flavor (AMC-rtb).

    Fixed-priority scheduling (explicit ``priority``, lower = more
    urgent), the Baruah/Burns/Davis 2011 sufficient test, three phases:

    1. **LO mode**: every task's response with all tasks at their LO
       budgets must meet its deadline;
    2. **steady HI mode**: every HI task's response with only HI tasks
       (at HI budgets) interfering must meet its deadline — LO tasks
       receive no further releases after the switch;
    3. **mode switch** (the rtb bound): every HI task's response with
       HI interference at HI budgets *plus* LO carry-over interference
       capped at its own LO-mode response time must meet its deadline::

           R*_i = C_i(HI) + Σ_{j∈hpH(i)} ⌈R*_i/T_j⌉·C_j(HI)
                          + Σ_{k∈hpL(i)} ⌈R^LO_i/T_k⌉·C_k(LO)

    ``lo_period_scale`` adapts the test to degradation policies that
    *slow* LO tasks instead of stopping them (``skip``'s release
    decimation, ``elastic``'s period stretch): phases 2 and 3 then add
    post-switch LO interference at periods scaled by that factor (on
    top of the unscaled carry-over term — conservatively counting
    both). ``None`` models ``drop`` (classical AMC: no LO releases
    after the switch).

    Sufficient, not necessary: certified ⇒ no HI-task deadline miss no
    matter when (or whether) the switch happens.
    """
    tasks = list(tasks)
    if lo_period_scale is not None and lo_period_scale < 1:
        raise ValueError(
            f"lo_period_scale must be >= 1, got {lo_period_scale!r}"
        )
    if any(task.priority is None for task in tasks):
        raise ValueError("AMC-rtb needs an explicit priority on every task")
    ordered = sorted(tasks, key=lambda t: (t.priority, t.name))
    verdict = MCVerdict("amc-rtb", True)
    verdict.utilization = _mc_utilization(tasks)
    by_name = {}
    for i, task in enumerate(ordered):
        higher = ordered[:i]
        tv = MCTaskVerdict(task.name, task.criticality, True)
        by_name[task.name] = tv

        tv.response_lo = _rta(
            task.wcet_lo, task.deadline,
            lambda r, higher=higher: sum(
                math.ceil(r / h.period) * h.wcet_lo for h in higher
            ),
        )
        if tv.response_lo is None:
            tv.schedulable = False
            tv.reason = "LO-mode response exceeds deadline"
        if task.is_hi and tv.schedulable:
            hp_hi = [h for h in higher if h.is_hi]
            hp_lo = [h for h in higher if not h.is_hi]

            def hi_interference(r, hp_hi=hp_hi, hp_lo=hp_lo):
                total = sum(
                    math.ceil(r / h.period) * h.wcet_hi for h in hp_hi
                )
                if lo_period_scale is not None:
                    # degraded LO tasks keep releasing, slower
                    total += sum(
                        math.ceil(r / (k.period * lo_period_scale))
                        * k.wcet_lo
                        for k in hp_lo
                    )
                return total

            tv.response_hi = _rta(task.wcet_hi, task.deadline,
                                  hi_interference)
            if tv.response_hi is None:
                tv.schedulable = False
                tv.reason = "steady HI-mode response exceeds deadline"
            else:
                r_lo = tv.response_lo
                carry = sum(
                    math.ceil(r_lo / k.period) * k.wcet_lo for k in hp_lo
                )
                tv.response_switch = _rta(
                    task.wcet_hi + carry, task.deadline, hi_interference,
                )
                if tv.response_switch is None:
                    tv.schedulable = False
                    tv.reason = "mode-switch response exceeds deadline"
        if not tv.schedulable:
            verdict.schedulable = False
            if not verdict.reason:
                verdict.reason = f"{task.name}: {tv.reason}"
    verdict.tasks = [by_name[task.name] for task in tasks]
    return verdict


def check_edf_vd(tasks):
    """EDF with virtual deadlines, utilization-based sufficient test.

    Baruah et al. 2012: with ``U_LO^LO`` (LO tasks at LO budgets),
    ``U_HI^LO`` and ``U_HI^HI`` (HI tasks at LO / HI budgets):

    * ``U_LO^LO + U_HI^HI <= 1`` — schedulable by plain EDF, no
      deadline scaling needed (``x = 1``);
    * otherwise schedulable by EDF-VD iff
      ``x := U_HI^LO / (1 − U_LO^LO)`` satisfies
      ``x·U_LO^LO + U_HI^HI <= ...`` i.e.
      ``U_HI^LO / (1 − U_LO^LO) <= (1 − U_HI^HI) / U_LO^LO`` —
      HI deadlines are then scaled by ``x`` in LO mode.

    Analytic certificate only: the runtime model enforces budgets and
    modes but does not scale deadlines (documented scope boundary).
    """
    tasks = list(tasks)
    u = _mc_utilization(tasks)
    u_lo_lo = u[("LO", "LO")]
    u_hi_lo = u[("HI", "LO")]
    u_hi_hi = u[("HI", "HI")]
    verdict = MCVerdict("edf-vd", True)
    verdict.utilization = u
    verdict.tasks = [
        MCTaskVerdict(task.name, task.criticality, True) for task in tasks
    ]

    def fail(reason):
        verdict.schedulable = False
        verdict.reason = reason
        for tv in verdict.tasks:
            tv.schedulable = False
            tv.reason = reason
        return verdict

    if u_lo_lo + u_hi_lo > 1.0 + 1e-9:
        return fail(
            f"LO-mode utilization {u_lo_lo + u_hi_lo:.3f} > 1"
        )
    if u_hi_hi > 1.0 + 1e-9:
        return fail(f"HI-mode utilization {u_hi_hi:.3f} > 1")
    if u_lo_lo + u_hi_hi <= 1.0 + 1e-9:
        verdict.x_factor = 1.0
        verdict.reason = "plain EDF sufficient (U_LO^LO + U_HI^HI <= 1)"
        return verdict
    if u_lo_lo >= 1.0:
        return fail(f"LO-task utilization {u_lo_lo:.3f} leaves no slack")
    x = u_hi_lo / (1.0 - u_lo_lo)
    if x * u_lo_lo + u_hi_hi <= 1.0 + 1e-9:
        verdict.x_factor = round(x, 6)
        verdict.reason = f"EDF-VD with deadline scale x={x:.3f}"
        return verdict
    return fail(
        f"EDF-VD condition violated: x·U_LO^LO + U_HI^HI = "
        f"{x * u_lo_lo + u_hi_hi:.3f} > 1"
    )


def _mc_utilization(tasks):
    u = {("LO", "LO"): 0.0, ("HI", "LO"): 0.0, ("HI", "HI"): 0.0}
    for task in tasks:
        if task.is_hi:
            u[("HI", "LO")] += task.wcet_lo / task.period
            u[("HI", "HI")] += task.wcet_hi / task.period
        else:
            u[("LO", "LO")] += task.wcet_lo / task.period
    return {key: round(value, 6) for key, value in u.items()}


def check_system(spec):
    """Analyze every PE of ``spec``; returns a :class:`SystemVerdict`.

    The system is *schedulable* iff every top level delivers its server
    budgets and every bounded component's taskset fits its supply.
    Background components never affect the verdict (best effort).
    """
    verdict = SystemVerdict(spec.name, True)
    for pe in spec.pes:
        top_ok, top_reason = _check_top_level(pe)
        verdict.top_level[pe.name] = (top_ok, top_reason)
        for comp in pe.components:
            cv = check_component(comp, speed=pe.speed)
            cv.pe = pe.name
            if comp.bounded and not top_ok:
                # supply promise broken upstream: nothing downstream holds
                cv.schedulable = False
                if not cv.reason:
                    cv.reason = f"top level: {top_reason}"
                for tv in cv.tasks:
                    tv.schedulable = False
                    if not tv.reason:
                        tv.reason = f"top level: {top_reason}"
            if not cv.best_effort and not cv.schedulable:
                verdict.schedulable = False
            verdict.components.append(cv)
        if not top_ok:
            verdict.schedulable = False
    return verdict
