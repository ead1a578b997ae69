"""Simulated processes.

A :class:`Process` wraps a Python generator and tracks its scheduling
state inside the kernel. Processes are created with
:meth:`repro.kernel.simulator.Simulator.spawn`, by :class:`Par`/:class:`Fork`
commands, or internally by higher layers (RTOS tasks, ISRs).
"""

import enum
import itertools

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
    """Kernel bookkeeping for one simulated generator."""

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
        "timer_cache",
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
        #: active timer entry (WaitFor, Wait or Park timeout), if any
        self.timer = None
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
        #: fired Timer kept for reuse by the next timed wait (the
        #: kernel's WaitFor path recycles it instead of allocating)
        self.timer_cache = None

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
        if timer is not None:
            self.timer = None
            # route through the simulator so it can track (and compact
            # away) the dead heap entry
            self.sim._cancel_timer(timer)
