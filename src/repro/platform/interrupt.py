"""Interrupt modeling: IRQ lines, sources and the interrupt controller.

In the paper's architecture model (Figure 3(b)), interrupt handlers are
generated inside the PEs as part of the bus drivers; an ISR signals the
main bus driver through a semaphore and returns via the RTOS model's
``interrupt_return``. Here:

* an :class:`IrqLine` is a named wire built on an SLDL event;
* an :class:`InterruptController` runs one dispatcher process per
  registered line; when the line is raised it executes the installed
  handler generator. Handlers run as plain SLDL processes — *not* RTOS
  tasks — so they model the asynchronous, anytime nature of interrupts
  (the RTOS model treats calls from them as ISR context);
* an :class:`InterruptSource` raises a line at programmed times or
  periodically (a timer).
"""

from repro.kernel.commands import Wait
from repro.kernel.events import Event
from repro.kernel.oracle import DecisionPoint


class IrqLine:
    """A named interrupt request wire."""

    def __init__(self, sim, name="irq"):
        self.sim = sim
        self.name = name
        self.event = Event(name)
        self.raise_count = 0

    def raise_irq(self):
        """Assert the line (callable from any context)."""
        self.raise_count += 1
        trace = self.sim.trace
        if trace.on:
            trace.record(self.sim.now, "irq", self.name, "raise")
        self.event.fire(self.sim)


class InterruptController:
    """Dispatches IRQ lines to their installed service routines.

    One PE has one controller. Handlers for distinct lines may execute
    concurrently at the SLDL level (they are not serialized by the RTOS —
    matching the model where ISRs preempt anything).
    """

    def __init__(self, sim, name="pic"):
        self.sim = sim
        self.name = name
        self.handlers = {}

    def register(self, line, handler_factory, name=None):
        """Install ``handler_factory`` (zero-arg callable returning a
        generator) as the service routine of ``line``; spawns the
        dispatcher process."""
        handler_name = name or f"{self.name}.isr.{line.name}"
        if line.name in self.handlers:
            raise ValueError(f"line {line.name!r} already has a handler")
        self.handlers[line.name] = handler_factory

        def _dispatcher():
            while True:
                yield Wait(line.event)
                trace = self.sim.trace
                if trace.on:
                    trace.record(self.sim.now, "irq", handler_name, "service")
                yield from handler_factory()

        self.sim.spawn(_dispatcher(), name=handler_name)


class InterruptSource:
    """Raises an IRQ line at programmed instants (external stimulus).

    ``jitter`` widens each programmed instant ``t`` into the arrival
    window ``[t, t + jitter]``. Without a schedule oracle the raise
    happens at ``t`` (slot 0) exactly as before; under an installed
    oracle each arrival becomes an ``irq`` decision point whose choices
    are the slots of the window, so :mod:`repro.explore` enumerates
    external-stimulus timing alongside scheduler interleavings.
    """

    def __init__(self, sim, line, times=(), period=None, count=None,
                 jitter=0):
        self.sim = sim
        self.line = line
        self.jitter = int(jitter)
        if self.jitter < 0:
            raise ValueError(f"negative jitter: {jitter}")
        for t in times:
            self._program(t)
        if period is not None:
            if count is None:
                raise ValueError("periodic source needs an explicit count")
            for i in range(1, count + 1):
                self._program(i * period)

    def _program(self, t):
        if self.jitter:
            self.sim.schedule_at(
                t, lambda t=t: self._arrive(t),
                label=f"irqslot:{self.line.name}",
            )
        else:
            self.sim.schedule_at(t, self.line.raise_irq)

    def _arrive(self, t):
        """Arrival-window head: pick the slot, raise now or reschedule."""
        oracle = self.sim.oracle
        if oracle is None:
            self.line.raise_irq()
            return
        slot = oracle.pick(DecisionPoint(
            "irq", tuple(f"t+{k}" for k in range(self.jitter + 1)),
            actor=self.line.name, time=self.sim.now,
        ))
        if slot == 0:
            self.line.raise_irq()
        else:
            self.sim.schedule_at(
                t + slot, self.line.raise_irq,
                label=f"irq:{self.line.name}",
            )
