"""Simulated processes.

A :class:`Process` wraps a Python generator and tracks its scheduling
state inside the kernel. Processes are created with
:meth:`repro.kernel.simulator.Simulator.spawn`, by :class:`Par`/:class:`Fork`
commands, or internally by higher layers (RTOS tasks, ISRs).
"""

import enum
import itertools

from repro.kernel.waitcore import Timer

_process_ids = itertools.count()


class ProcessState(enum.Enum):
    """Kernel-level scheduling state of a process.

    This is the *SLDL* state; the RTOS model layers its own task state
    machine (ready/running/blocked/...) on top of these.
    """

    READY = "ready"  # queued for execution in the current/next delta
    RUNNING = "running"  # currently executing a step
    TIMED = "timed"  # blocked in a WaitFor (or Wait with timeout)
    WAITING = "waiting"  # blocked on event(s) or join/par
    PARKED = "parked"  # blocked in a Park until resumed (or its timeout)
    TERMINATED = "terminated"  # generator exhausted


class Process:
    """Kernel bookkeeping for one simulated generator.

    A process owns one resume :class:`~repro.kernel.waitcore.Timer` for
    life: every ``WaitFor``, ``Wait`` timeout and ``Park`` timeout
    re-arms it, so timed waits allocate no timer.
    """

    __slots__ = (
        "uid",
        "name",
        "gen",
        "sim",
        "state",
        "send_value",
        "waiting_events",
        "timer",
        "par_parent",
        "pending_children",
        "joiners",
        "step_count",
        "consumed_stamps",
    )

    def __init__(self, gen, name, sim):
        self.uid = next(_process_ids)
        self.name = name or f"process{self.uid}"
        self.gen = gen
        self.sim = sim
        self.state = ProcessState.READY
        #: value delivered to the generator on next resume
        self.send_value = None
        #: events this process is currently blocked on
        self.waiting_events = ()
        #: this process's resume timer, re-armed by every WaitFor, Wait
        #: timeout and Park timeout (pending while ``timer.entry`` is set)
        self.timer = Timer(process=self)
        #: the process whose Par command spawned us (for join bookkeeping)
        self.par_parent = None
        #: number of live Par children (when blocked in a Par command)
        self.pending_children = 0
        #: processes blocked in a Join on us
        self.joiners = []
        #: number of generator resumptions (diagnostics)
        self.step_count = 0
        #: event uid -> notification stamp this process already consumed
        #: via the pending-within-delta rule (each notification can
        #: satisfy at most one wait per process; prevents livelock when a
        #: process re-waits on an event notified earlier in the delta)
        self.consumed_stamps = {}

    def __repr__(self):
        return f"Process({self.name!r}, {self.state.value})"

    @property
    def terminated(self):
        return self.state is ProcessState.TERMINATED

    # -- internal helpers used by the simulator ----------------------------

    def _clear_waits(self):
        """Detach from all events and cancel any pending timer."""
        if self.waiting_events:
            for event in self.waiting_events:
                event._remove_waiter(self)
            self.waiting_events = ()
        timer = self.timer
        if timer.entry is not None:
            # through the queue, so it counts (and compacts away) the
            # dead heap entry
            self.sim._timers.cancel(timer)
