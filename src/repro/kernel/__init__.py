"""SpecC-like system-level design language (SLDL) simulation kernel.

This package is the substrate of the reproduction: a discrete-event
simulation kernel with the primitives the paper's RTOS model relies on.
It mirrors the SpecC execution semantics the paper assumes:

* **Processes** are Python generators that ``yield`` kernel commands.
* **Time** advances in discrete integer steps (nanoseconds by convention)
  through :class:`~repro.kernel.commands.WaitFor` (SpecC ``waitfor``).
* **Events** provide ``wait``/``notify`` synchronization with delta-cycle
  delivery semantics (:mod:`repro.kernel.events`).
* **Parallel composition** (SpecC ``par``) forks child processes and joins
  on their completion (:class:`~repro.kernel.commands.Par`).
* **Behaviors and channels** are the structural modeling units
  (:mod:`repro.kernel.behavior`, :mod:`repro.kernel.channel`).

Example
-------
>>> from repro.kernel import Simulator, WaitFor, Wait, Notify, Event
>>> sim = Simulator()
>>> done = Event("done")
>>> def producer():
...     yield WaitFor(10)
...     yield Notify(done)
>>> def consumer(log):
...     yield Wait(done)
...     log.append(sim.now)
>>> log = []
>>> _ = sim.spawn(producer(), name="producer")
>>> _ = sim.spawn(consumer(log), name="consumer")
>>> sim.run()
>>> log
[10]
"""

from repro.kernel.commands import (
    NOW,
    PARK,
    TIMEOUT,
    Fork,
    Join,
    Notify,
    Now,
    Par,
    Park,
    Wait,
    WaitFor,
)
from repro.kernel.errors import (
    DeadlockError,
    KernelError,
    SimulationError,
    UnboundPortError,
)
from repro.kernel.events import Event
from repro.kernel.oracle import (
    DecisionPoint,
    FifoOracle,
    RecordingOracle,
    ReplayOracle,
    ScheduleDivergence,
    ScheduleOracle,
)
from repro.kernel.process import Process, ProcessState
from repro.kernel.simulator import Simulator
from repro.kernel.behavior import Behavior, par, seq
from repro.kernel.channel import Channel
from repro.kernel.ports import Port
from repro.kernel.trace import Trace, TraceRecord

__all__ = [
    "Behavior",
    "Channel",
    "DeadlockError",
    "DecisionPoint",
    "Event",
    "FifoOracle",
    "Fork",
    "Join",
    "KernelError",
    "NOW",
    "Notify",
    "Now",
    "PARK",
    "Par",
    "Park",
    "Port",
    "Process",
    "ProcessState",
    "RecordingOracle",
    "ReplayOracle",
    "ScheduleDivergence",
    "ScheduleOracle",
    "SimulationError",
    "Simulator",
    "TIMEOUT",
    "Trace",
    "TraceRecord",
    "UnboundPortError",
    "Wait",
    "WaitFor",
    "par",
    "seq",
]
