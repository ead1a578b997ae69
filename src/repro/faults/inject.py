"""Seeded fault injection: executes a :class:`~repro.faults.plan.FaultPlan`.

A :class:`FaultInjector` binds a plan to one simulator; ``arm(model)``
attaches it to one :class:`~repro.rtos.model.RTOSModel`, the only
target a plan acts on: ``time_wait`` perturbation (jitter, overrun,
hang), lost/duplicated ``event_notify``, and scheduled ``task_crash``
timers. The kernel, the channel library and the platform know nothing
of faults; a fault reaches them only through the RTOS services they
call.

An unarmed model pays the usual one-load-plus-``None``-compare guard
and behaves (and traces) bit-identically to a fault-free build.

The plan is resolved once, when the injector is built: each hook gets
a tuple of entries, one per spec of its kinds in plan order, with the
spec's fields already read, so a hook call scans only the specs that
can match it. The RTOS hook sites also test :attr:`FaultInjector.hooks_exec`
and :attr:`FaultInjector.hooks_notify` and make no call when the plan
holds no spec for them.

Determinism: every probabilistic decision draws from one
``random.Random(seed)`` stream in simulation order (the simulation
itself is single-threaded and deterministic), so identical
(plan, seed, workload) triples reproduce identical fault sequences.
Specs with ``prob == 1.0`` never touch the stream. Injected faults are
counted per kind in :attr:`counts`, bumped in the armed model's
``RTOSMetrics.faults_injected``, mirrored into that model's obs metrics
registry when one is attached at the time of the fault (in whatever
order ``observe`` and ``arm`` were called), and traced as ``"fault"``
records (rendered as instants on the fault track by the CTF exporter).
"""

import math
import random

from repro.faults.plan import FaultPlan
from repro.kernel.oracle import DecisionPoint


def _window(spec):
    """``(start, end)`` of a spec's window; an open end is infinite."""
    return spec.start, math.inf if spec.end is None else spec.end


class FaultInjector:
    """Executes one fault plan against one simulation (see module doc)."""

    def __init__(self, sim, plan, seed=0):
        self.sim = sim
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        self.plan = plan
        self.seed = seed
        self.rng = random.Random(seed)
        #: injections performed, per fault kind
        self.counts = {}
        #: the RTOSModel this injector is armed on (None until ``arm``)
        self.model = None
        #: one-shot specs already consumed (id(spec))
        self._spent = set()
        # the plan resolved into one entry tuple per hook, in plan order
        kinds = plan.of_kind
        self._hang = tuple(
            (id(s), s.task, s.at) for s in kinds("task_hang"))
        self._jitter = tuple(
            (s.task, *_window(s), s.prob, s.scale, s.offset)
            for s in kinds("exec_jitter"))
        self._lost = tuple(
            (s.event, *_window(s), s.prob) for s in kinds("lost_notify"))
        self._dup = tuple(
            (s.event, *_window(s), s.prob) for s in kinds("dup_notify"))
        #: the plan holds a spec for the ``time_wait`` hook
        self.hooks_exec = bool(self._hang or self._jitter)
        #: the plan holds a spec for the ``event_notify`` hooks
        self.hooks_notify = bool(self._lost or self._dup)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self, model):
        """Attach this injector to ``model``, an
        :class:`~repro.rtos.model.RTOSModel`: its services call the
        exec/notify hooks, and each ``task_crash`` spec gets its timer.
        Returns ``self``."""
        self.model = model
        model.faults = self
        for spec in self.plan.of_kind("task_crash"):
            self._schedule_crash(model, spec)
        return self

    # ------------------------------------------------------------------
    # bookkeeping shared by all hooks
    # ------------------------------------------------------------------

    def _record(self, kind, actor, **data):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        model = self.model
        if model is not None:
            model.metrics.faults_injected += 1
        self.sim.trace.record(self.sim.now, "fault", actor, kind, **data)
        if model is not None and model.obs is not None:
            model.obs.registry.counter(f"faults.{kind}").inc()

    def _roll(self, prob, kind, actor):
        """One probabilistic decision; prob == 1.0 stays stream-free.

        Under an installed schedule oracle a genuinely probabilistic
        spec (``0 < prob < 1``) stops being a coin flip and becomes a
        ``fault`` decision point with choices ``("skip", kind)`` — the
        explorer then branches on both outcomes instead of sampling one.
        Index 0 (skip) is the oracle default, so a FifoOracle run is
        fault-free at these sites, not equal to any particular RNG draw.
        """
        if prob >= 1.0:
            return True
        if prob <= 0.0:
            return False
        oracle = self.sim.oracle
        if oracle is not None:
            return oracle.pick(DecisionPoint(
                "fault", ("skip", kind), actor=actor, time=self.sim.now,
            )) == 1
        return self.rng.random() < prob

    def _first_hit(self, entries, kind, name):
        """True (and recorded) when an entry ``(target, start, end,
        prob)`` for ``name`` is in its window now and fires."""
        now = self.sim.now
        for target, start, end, prob in entries:
            if ((target is None or target == name) and start <= now <= end
                    and self._roll(prob, kind, name)):
                self._record(kind, name)
                return True
        return False

    # ------------------------------------------------------------------
    # RTOS hooks (called by TimeManager / EventManager when armed)
    # ------------------------------------------------------------------

    def perturb_exec(self, task, nsec):
        """Apply exec-time faults to one ``time_wait`` delay.

        Returns the (possibly modified) delay, or ``None`` when a
        ``task_hang`` spec triggers — the caller then parks the task
        forever while it keeps the CPU.
        """
        now = self.sim.now
        name = task.name
        for key, target, at in self._hang:
            if target == name and now >= at and key not in self._spent:
                self._spent.add(key)
                self._record("task_hang", name)
                return None
        for target, start, end, prob, scale, offset in self._jitter:
            if ((target is None or target == name) and start <= now <= end
                    and self._roll(prob, "exec_jitter", name)):
                perturbed = int(nsec * scale) + offset
                if perturbed < 0:
                    perturbed = 0
                if perturbed != nsec:
                    self._record(
                        "exec_jitter", name, requested=nsec, actual=perturbed
                    )
                    nsec = perturbed
        return nsec

    def lose_notify(self, event):
        """True when this ``event_notify`` delivery must be dropped."""
        return self._first_hit(self._lost, "lost_notify", event.name)

    def duplicate_notify(self, event):
        """True when this ``event_notify`` must deliver a second time."""
        return self._first_hit(self._dup, "dup_notify", event.name)

    def _schedule_crash(self, model, spec):
        def crash():
            task = next(
                (t for t in model.tasks if t.name == spec.task), None
            )
            if task is None or task.state.name == "TERMINATED":
                return
            self._record("task_crash", spec.task)
            model.task_condemn(task)

        self.sim.schedule_at(spec.at, crash)
