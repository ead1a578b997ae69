"""Processing elements.

A :class:`ProcessingElement` groups what one PE of the architecture model
contains (paper Figure 3(b)): an optional local RTOS model instance, an
interrupt controller, the tasks/behaviors mapped to it, and bookkeeping
for its drivers.

Beyond the paper, a PE can be *heterogeneous* (``speed=`` scales every
task's WCET — a 2.0x core executes the same work in half the modeled
time) and *hierarchically scheduled* (``components=`` wraps the taskset
in budget/period resource servers — see :mod:`repro.rtos.sched.hier`).
"""

import math

from repro.platform.interrupt import InterruptController
from repro.rtos.model import RTOSModel
from repro.rtos.sched.hier import HierarchicalScheduler


class ProcessingElement:
    """One PE of the system architecture.

    With ``sched`` given, the PE carries a local RTOS model (dynamic
    scheduling); without it the PE runs its behaviors directly on the
    SLDL kernel (purely static scheduling / unscheduled).

    With ``components`` (a list of :class:`~repro.rtos.sched.hier.Component`),
    the RTOS runs a two-level :class:`HierarchicalScheduler`: ``sched``
    then names the *top-level* server policy (``"priority"`` or
    ``"edf"``, default ``"priority"``) and tasks are routed into
    components via ``add_task(component=...)``; unassigned tasks fall
    into the implicit background server.

    ``speed`` is the relative execution speed of this core (default 1.0):
    task WCETs passed to :meth:`add_task` are divided by it (rounded up),
    so one system spec maps onto heterogeneous cores.
    """

    def __init__(self, sim, name, sched=None, preemption="step", speed=1.0,
                 components=None):
        if speed <= 0:
            raise ValueError(f"PE {name!r}: speed must be positive")
        self.sim = sim
        self.name = name
        self.speed = speed
        self.components = None
        if components is not None:
            top = sched if sched is not None else "priority"
            sched = HierarchicalScheduler(components, top=top)
            self.components = {c.name: c for c in sched.components}
        self.os = (
            RTOSModel(sim, sched=sched, preemption=preemption, name=f"{name}.os")
            if sched is not None
            else None
        )
        self.pic = InterruptController(sim, name=f"{name}.pic")
        self.tasks = []
        self.drivers = []
        self._boot_actions = []
        self._booted = False

    # -- construction API ----------------------------------------------

    def scaled_wcet(self, wcet):
        """WCET on this core: reference WCET divided by the speed factor."""
        if not wcet or self.speed == 1.0:
            return wcet
        return math.ceil(wcet / self.speed)

    def add_task(self, name, body, tasktype=None, period=0, wcet=0,
                 priority=None, rel_deadline=None, component=None):
        """Create an RTOS task running ``body`` (a generator) on this PE.

        Only valid on PEs with an RTOS model. ``wcet`` is in reference
        time units and is scaled by the PE's speed factor.
        ``component=`` (name or :class:`Component`) routes the task into
        one of the PE's resource servers (hierarchical scheduling only).
        Returns the task handle.
        """
        if self.os is None:
            raise RuntimeError(f"PE {self.name!r} has no RTOS model")
        from repro.rtos.task import APERIODIC

        if tasktype is None:
            tasktype = APERIODIC
        task = self.os.task_create(
            name, tasktype, period, self.scaled_wcet(wcet),
            priority=priority, rel_deadline=rel_deadline,
        )
        if component is not None:
            scheduler = self.os.scheduler
            if not isinstance(scheduler, HierarchicalScheduler):
                raise RuntimeError(
                    f"PE {self.name!r} has no hierarchical scheduler; "
                    f"construct it with components=[...]"
                )
            scheduler.assign(task, component)
        self.tasks.append(task)
        self.sim.spawn(self.os.task_body(task, body), name=f"{self.name}.{name}")
        return task

    def add_driver(self, driver, irq_line, isr_name=None):
        """Attach a receiving bus driver: registers its ISR on the PIC."""
        self.drivers.append(driver)
        self.pic.register(irq_line, driver.isr, name=isr_name)
        return driver

    def on_boot(self, action):
        """Register a callable executed when the architecture boots."""
        self._boot_actions.append(action)

    def boot(self):
        """Start this PE's RTOS (called by the architecture bootstrap).

        Idempotent: a second boot — e.g. ``Architecture.run`` called
        again to extend a simulation — is a no-op; boot actions run once
        and the RTOS keeps its scheduling state.
        """
        if self._booted:
            return
        self._booted = True
        for action in self._boot_actions:
            action()
        if self.os is not None:
            self.os.start()

    # -- results ---------------------------------------------------------

    @property
    def metrics(self):
        return self.os.metrics if self.os is not None else None

    def component(self, name):
        """Look up one of this PE's resource servers by name."""
        if self.components is None:
            raise RuntimeError(f"PE {self.name!r} has no components")
        return self.components[name]
