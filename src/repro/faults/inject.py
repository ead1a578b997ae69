"""Seeded fault injection: executes a :class:`~repro.faults.plan.FaultPlan`.

A :class:`FaultInjector` binds a plan to one simulator and arms hooks at
the stack's fault points:

* ``arm(model)`` — RTOS hooks: ``time_wait`` perturbation (jitter,
  overrun, hang), lost/duplicated ``event_notify``, and scheduled
  ``task_crash`` timers;
* ``arm_irq(line)`` — platform hooks: dropped raises on an
  :class:`~repro.platform.interrupt.IrqLine` plus scheduled spurious
  raises;
* ``arm_channel(channel)`` — communication hooks: stuck/slow gates at
  the blocking entry of queue/semaphore/mailbox operations.

Unarmed components pay the usual one-load-plus-``None``-compare guard
and behave (and trace) bit-identically to a fault-free build.

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
        #: the RTOSModel armed through ``arm(model=...)``, if any
        self.model = None
        #: one-shot specs already consumed (id(spec))
        self._spent = set()
        #: per-channel dead sync events for stuck/slow gates
        self._dead_events = {}
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
        self._drop = tuple(
            (s.line, *_window(s), s.prob) for s in kinds("drop_irq"))
        self._stuck = tuple(
            (s.channel, s.op, s.at) for s in kinds("stuck_channel"))
        self._slow = tuple(
            (s.channel, s.op, *_window(s), s.prob, s.delay)
            for s in kinds("slow_channel"))
        #: the plan holds a spec for the ``time_wait`` hook
        self.hooks_exec = bool(self._hang or self._jitter)
        #: the plan holds a spec for the ``event_notify`` hooks
        self.hooks_notify = bool(self._lost or self._dup)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self, model=None, irq_lines=(), channels=()):
        """Attach this injector's hooks; returns ``self``.

        ``model`` is an :class:`~repro.rtos.model.RTOSModel` (enables
        exec/notify/crash/hang faults on its tasks and events),
        ``irq_lines`` are platform interrupt lines, ``channels`` are
        communication channels supporting ``attach_faults``.
        """
        if model is not None:
            self.model = model
            model.attach_faults(self)
            for spec in self.plan.of_kind("task_crash"):
                self._schedule_crash(model, spec)
        for line in irq_lines:
            self.arm_irq(line)
        for channel in channels:
            self.arm_channel(channel)
        return self

    def arm_irq(self, line):
        """Arm drop/spurious interrupt faults on one ``IrqLine``."""
        line.faults = self
        for spec in self.plan.of_kind("spurious_irq"):
            if spec.line is not None and spec.line != line.name:
                continue
            for at in spec.times:
                self.sim.schedule_at(
                    at, lambda line=line: self._spurious_irq(line)
                )
        return line

    def arm_channel(self, channel):
        """Arm stuck/slow faults on one communication channel."""
        channel.attach_faults(self)
        return channel

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

    # ------------------------------------------------------------------
    # platform hooks (called by IrqLine when armed)
    # ------------------------------------------------------------------

    def drop_irq(self, line):
        """True when this interrupt assertion must be lost."""
        return self._first_hit(self._drop, "drop_irq", line.name)

    def _spurious_irq(self, line):
        self._record("spurious_irq", line.name)
        line.raise_irq()

    # ------------------------------------------------------------------
    # channel hooks (delegated to by channel operations when armed)
    # ------------------------------------------------------------------

    def channel_gate(self, channel, op, sync):
        """Generator gate at the blocking entry of a channel operation.

        A matching ``stuck_channel`` spec blocks the caller forever (it
        waits on a dead event nobody signals); a matching
        ``slow_channel`` spec delays it by ``spec.delay`` before the
        real operation proceeds. No matching spec: falls straight
        through without yielding.
        """
        now = self.sim.now
        name = channel.name
        for target, target_op, at in self._stuck:
            if ((target is None or target == name)
                    and (target_op is None or target_op == op) and now >= at):
                self._record("stuck_channel", name, op=op)
                dead = self._dead_event(channel, sync)
                while True:
                    yield from sync.wait(dead)
        for target, target_op, start, end, prob, delay in self._slow:
            if ((target is None or target == name)
                    and (target_op is None or target_op == op)
                    and start <= now <= end
                    and self._roll(prob, "slow_channel", name)):
                self._record("slow_channel", name, op=op, delay=delay)
                dead = self._dead_event(channel, sync)
                yield from sync.wait(dead, timeout=delay)

    def _dead_event(self, channel, sync):
        key = id(channel)
        event = self._dead_events.get(key)
        if event is None:
            event = sync.new_event(f"{channel.name}.fault")
            self._dead_events[key] = event
        return event
