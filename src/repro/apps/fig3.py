"""The paper's running example (Figures 3 and 8).

One PE executes behavior ``B1`` followed by the parallel composition of
``B2`` and ``B3``. B2 and B3 communicate through two rendezvous channels
``c1`` and ``c2``; B3 additionally receives data from another PE through
a bus driver whose ISR signals a semaphore (``sem``).

The behaviors below are written once, specification-style. They run

* directly on the SLDL kernel — the **unscheduled model** whose trace is
  Figure 8(a) (B2 and B3 truly parallel, delays overlapping); and
* through :class:`~repro.refinement.auto.DynamicSchedulingRefinement`
  onto an RTOS model — the **architecture model** of Figure 8(b)
  (priority scheduling, B3 more urgent, interrupt at t4 with the task
  switch deferred to t4').

Default delays are chosen so that, as in the paper's figure, the
external interrupt arrives in the middle of a delay step of the running
low-priority task (t4 = 450, inside Task_B2's d6 step [400, 500) of the
architecture model).
"""

from dataclasses import dataclass, field

from repro.analysis.trace_analysis import mark_time
from repro.channels import Handshake, Semaphore
from repro.kernel import Behavior, Par, Port, Simulator, WaitFor
from repro.platform import Bus, BusLink, InterruptController, InterruptDriver, IrqLine
from repro.refinement import DynamicSchedulingRefinement, RefinementSpec


@dataclass
class Fig3Delays:
    """The d0..d8 delay annotations of Figure 8 (d0 is B1's time)."""

    d0: int = 100  # B1
    d1: int = 50   # B3 before waiting on c1
    d2: int = 100  # B3 between c1 and the bus data
    d3: int = 100  # B3 after the interrupt, before sending c2
    d4: int = 50   # B3 tail
    d5: int = 150  # B2 before sending c1
    d6: int = 100  # B2 first step after c1 (the step the irq lands in)
    d7: int = 100  # B2 second step, before waiting on c2
    d8: int = 100  # B2 tail
    #: when the external PE starts its bus transfer; the interrupt is
    #: raised transfer_time later (t4 = irq_send_time + bus time)
    irq_send_time: int = 430
    msg_bytes: int = 8
    bus_width: int = 4
    bus_cycle_time: int = 10

    @property
    def irq_time(self):
        cycles = -(-self.msg_bytes // self.bus_width)
        return self.irq_send_time + cycles * self.bus_cycle_time


#: default priorities of the refined tasks (lower = more urgent);
#: Task_B3 is the high-priority task, as in Figure 8(b)
DEFAULT_PRIORITIES = {"Task_PE": 0, "B3": 1, "B2": 2}


class B1(Behavior):
    """Initial sequential behavior of the PE."""

    def __init__(self, delays, record_exec, name="B1"):
        super().__init__(name)
        self.delays = delays
        self.record_exec = record_exec

    def main(self):
        yield from _execute(self, self.delays.d0)
        self.sim.trace.record(self.sim.now, "user", self.name, "b1-done")


class B2(Behavior):
    """Producer/consumer partner of B3 (lower priority when refined)."""

    c1 = Port("c1")
    c2 = Port("c2")

    def __init__(self, delays, record_exec, name="B2"):
        super().__init__(name)
        self.delays = delays
        self.record_exec = record_exec

    def main(self):
        d = self.delays
        yield from _execute(self, d.d5)
        yield from self.c1.send("msg-from-b2")
        self.sim.trace.record(self.sim.now, "user", self.name, "sent-c1")
        yield from _execute(self, d.d6)
        yield from _execute(self, d.d7)
        self.sim.trace.record(self.sim.now, "user", self.name, "wait-c2")
        result = yield from self.c2.recv()
        self.sim.trace.record(
            self.sim.now, "user", self.name, "got-c2", data=result
        )
        yield from _execute(self, d.d8)
        self.sim.trace.record(self.sim.now, "user", self.name, "b2-done")


class B3(Behavior):
    """Consumer with external input (higher priority when refined)."""

    c1 = Port("c1")
    c2 = Port("c2")
    driver = Port("driver")

    def __init__(self, delays, record_exec, name="B3"):
        super().__init__(name)
        self.delays = delays
        self.record_exec = record_exec

    def main(self):
        d = self.delays
        yield from _execute(self, d.d1)
        self.sim.trace.record(self.sim.now, "user", self.name, "t1-wait-c1")
        msg = yield from self.c1.recv()
        self.sim.trace.record(
            self.sim.now, "user", self.name, "t2-got-c1", data=msg
        )
        yield from _execute(self, d.d2)
        self.sim.trace.record(self.sim.now, "user", self.name, "t3-wait-bus")
        data = yield from self.driver.recv()
        self.sim.trace.record(
            self.sim.now, "user", self.name, "t4-got-data", data=data
        )
        yield from _execute(self, d.d3)
        self.sim.trace.record(self.sim.now, "user", self.name, "t5-send-c2")
        yield from self.c2.send("result-from-b3")
        self.sim.trace.record(self.sim.now, "user", self.name, "t6-sent-c2")
        yield from _execute(self, d.d4)
        self.sim.trace.record(self.sim.now, "user", self.name, "t7-b3-done")


class Fig3Top(Behavior):
    """PE top level: B1 ; par { B2 || B3 } (Figure 3)."""

    def __init__(self, b1, b2, b3, name="Task_PE"):
        super().__init__(name)
        self.b1 = b1
        self.b2 = b2
        self.b3 = b3

    def main(self):
        yield from self.b1.main()
        yield Par(self.b2, self.b3)


def _execute(behavior, duration):
    """One computation step: a delay, recorded as an execution segment in
    the unscheduled model (the RTOS records segments in the refined one)."""
    start = behavior.sim.now
    yield WaitFor(duration)
    if behavior.record_exec:
        behavior.sim.trace.segment(behavior.name, start, behavior.sim.now)


@dataclass
class Fig3Result:
    """Everything the Figure-8 experiments need from one run."""

    sim: object
    trace: object
    os: object = None
    tasks: dict = field(default_factory=dict)

    @property
    def end_time(self):
        return self.sim.now

    @property
    def context_switches(self):
        return self.os.metrics.context_switches if self.os else 0

    def times(self):
        """The t1..t7 instants of Figure 8 extracted from the trace."""
        labels = {
            "t1": "t1-wait-c1",
            "t2": "t2-got-c1",
            "t3": "t3-wait-bus",
            "t5": "t5-send-c2",
            "t6": "t6-sent-c2",
            "t7": "t7-b3-done",
        }
        times = {k: mark_time(self.trace, v) for k, v in labels.items()}
        irq = [r for r in self.trace.by_category("irq") if r.info == "raise"]
        times["t4"] = irq[0].time if irq else None
        return times


def _build_platform(sim, delays, external_payload):
    """Bus, IRQ line, link and the external sender PE (common to both
    models)."""
    bus = Bus(sim, name="bus", width=delays.bus_width,
              cycle_time=delays.bus_cycle_time)
    line = IrqLine(sim, "bus-irq")
    link = BusLink(sim, bus, line, name="ext-link")

    def external_pe():
        yield WaitFor(delays.irq_send_time)
        yield from link.send(external_payload, nbytes=delays.msg_bytes)

    sim.spawn(external_pe(), name="PE2")
    return bus, line, link


def run_unscheduled(delays=None, payload="ext-data", trace=None,
                    registry=None):
    """Execute the unscheduled (specification) model — Figure 8(a).

    ``trace=`` injects a pre-built :class:`~repro.kernel.trace.Trace`
    (e.g. one backed by a streaming JSONL sink); ``registry=``
    attaches channel metrics to a
    :class:`~repro.obs.metrics.MetricsRegistry`.
    """
    delays = delays or Fig3Delays()
    sim = Simulator(trace=trace)
    _, line, link = _build_platform(sim, delays, payload)
    sem = Semaphore(0, name="sem")
    driver = InterruptDriver(link, sem, name="driver")
    pic = InterruptController(sim, name="pe.pic")
    pic.register(line, driver.isr)

    c1 = Handshake(name="c1")
    c2 = Handshake(name="c2")
    if registry is not None:
        for channel in (sem, c1, c2):
            channel.attach_metrics(registry)
    b1 = B1(delays, record_exec=True).bind(sim)
    b2 = B2(delays, record_exec=True).bind(sim)
    b3 = B3(delays, record_exec=True).bind(sim)
    b2.c1, b2.c2 = c1, c2
    b3.c1, b3.c2, b3.driver = c1, c2, driver
    top = Fig3Top(b1, b2, b3).bind(sim)
    sim.spawn(top, name="Task_PE")
    sim.run()
    return Fig3Result(sim=sim, trace=sim.trace)


def run_architecture(delays=None, payload="ext-data", sched="priority",
                     preemption="step", priorities=None, trace=None,
                     registry=None):
    """Refine the same behaviors onto an RTOS model — Figure 8(b).

    The refinement is fully automatic: the unchanged behavior generators
    are translated command-by-command onto the RTOS interface, and the
    driver's ISR is refined to notify through the RTOS and end with
    ``interrupt_return``. ``trace=`` injects a pre-built trace recorder
    (e.g. one backed by a streaming JSONL sink); ``registry=``
    attaches OS-service and channel metrics to a
    :class:`~repro.obs.metrics.MetricsRegistry`.
    """
    from repro.rtos import RTOSModel

    delays = delays or Fig3Delays()
    sim = Simulator(trace=trace)
    os_ = RTOSModel(sim, sched=sched, preemption=preemption, name="pe.os",
                    registry=registry)
    ref = DynamicSchedulingRefinement(
        os_, RefinementSpec(priorities=dict(priorities or DEFAULT_PRIORITIES))
    )

    _, line, link = _build_platform(sim, delays, payload)
    sem = Semaphore(0, name="sem")  # spec channel; auto-refined in use
    driver = InterruptDriver(link, sem, name="driver")
    pic = InterruptController(sim, name="pe.pic")
    pic.register(line, ref.refine_isr(driver.isr))

    c1 = Handshake(name="c1")
    c2 = Handshake(name="c2")
    if registry is not None:
        for channel in (sem, c1, c2):
            channel.attach_metrics(registry)
    b1 = B1(delays, record_exec=False).bind(sim)
    b2 = B2(delays, record_exec=False).bind(sim)
    b3 = B3(delays, record_exec=False).bind(sim)
    b2.c1, b2.c2 = c1, c2
    b3.c1, b3.c2, b3.driver = c1, c2, driver
    top = Fig3Top(b1, b2, b3).bind(sim)

    wrapped, pe_task = ref.refine_task(top, name="Task_PE")
    sim.spawn(wrapped, name="Task_PE")
    os_.spawn_boot()
    sim.run()
    tasks = {t.name: t for t in ref.tasks}
    return Fig3Result(sim=sim, trace=sim.trace, os=os_, tasks=tasks)
