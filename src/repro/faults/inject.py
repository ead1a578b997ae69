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

import random

from repro.faults.plan import FaultPlan
from repro.kernel.oracle import DecisionPoint


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

    def _roll(self, spec, kind, actor):
        """One probabilistic decision; prob == 1.0 stays stream-free.

        Under an installed schedule oracle a genuinely probabilistic
        spec (``0 < prob < 1``) stops being a coin flip and becomes a
        ``fault`` decision point with choices ``("skip", kind)`` — the
        explorer then branches on both outcomes instead of sampling one.
        Index 0 (skip) is the oracle default, so a FifoOracle run is
        fault-free at these sites, not equal to any particular RNG draw.
        """
        prob = spec.params["prob"]
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
        for spec in self.plan.of_kind("task_hang"):
            if spec.task != task.name or now < spec.at:
                continue
            if id(spec) in self._spent:
                continue
            self._spent.add(id(spec))
            self._record("task_hang", task.name)
            return None
        for spec in self.plan.of_kind("exec_jitter"):
            if spec.task is not None and spec.task != task.name:
                continue
            if not spec.in_window(now) or not self._roll(
                spec, "exec_jitter", task.name
            ):
                continue
            perturbed = int(nsec * spec.params["scale"]) + spec.params["offset"]
            if perturbed < 0:
                perturbed = 0
            if perturbed != nsec:
                self._record(
                    "exec_jitter", task.name, requested=nsec, actual=perturbed
                )
                nsec = perturbed
        return nsec

    def lose_notify(self, event):
        """True when this ``event_notify`` delivery must be dropped."""
        now = self.sim.now
        for spec in self.plan.of_kind("lost_notify"):
            if spec.event is not None and spec.event != event.name:
                continue
            if spec.in_window(now) and self._roll(
                spec, "lost_notify", event.name
            ):
                self._record("lost_notify", event.name)
                return True
        return False

    def duplicate_notify(self, event):
        """True when this ``event_notify`` must deliver a second time."""
        now = self.sim.now
        for spec in self.plan.of_kind("dup_notify"):
            if spec.event is not None and spec.event != event.name:
                continue
            if spec.in_window(now) and self._roll(
                spec, "dup_notify", event.name
            ):
                self._record("dup_notify", event.name)
                return True
        return False

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
        now = self.sim.now
        for spec in self.plan.of_kind("drop_irq"):
            if spec.line is not None and spec.line != line.name:
                continue
            if spec.in_window(now) and self._roll(
                spec, "drop_irq", line.name
            ):
                self._record("drop_irq", line.name)
                return True
        return False

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
        for spec in self.plan.of_kind("stuck_channel"):
            if spec.channel is not None and spec.channel != channel.name:
                continue
            if spec.op is not None and spec.op != op:
                continue
            if now < spec.params["at"]:
                continue
            self._record("stuck_channel", channel.name, op=op)
            dead = self._dead_event(channel, sync)
            while True:
                yield from sync.wait(dead)
        for spec in self.plan.of_kind("slow_channel"):
            if spec.channel is not None and spec.channel != channel.name:
                continue
            if spec.op is not None and spec.op != op:
                continue
            if not spec.in_window(now) or not self._roll(
                spec, "slow_channel", channel.name
            ):
                continue
            delay = spec.params["delay"]
            self._record("slow_channel", channel.name, op=op, delay=delay)
            dead = self._dead_event(channel, sync)
            yield from sync.wait(dead, timeout=delay)

    def _dead_event(self, channel, sync):
        key = id(channel)
        event = self._dead_events.get(key)
        if event is None:
            event = sync.new_event(f"{channel.name}.fault")
            self._dead_events[key] = event
        return event
