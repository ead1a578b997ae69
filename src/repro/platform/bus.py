"""Shared system bus with arbitration and transfer timing.

Communication synthesis (paper Figure 1) maps inter-PE channels onto a
bus; the bus model here provides occupancy arbitration and a transfer
delay of ``ceil(nbytes / width) * cycle_time``, enough to give inter-PE
messages realistic, contention-dependent latency.
"""

from repro.kernel.channel import Channel
from repro.kernel.commands import Notify, Wait, WaitFor
from repro.kernel.events import Event
from repro.rtos.errors import TaskKilled


class Bus(Channel):
    """A single-master-at-a-time bus.

    Arbitration: requesters queue; the release wakes all of them and the
    most urgent request (lowest ``priority`` value, FIFO among equals)
    re-acquires first. Acquisition order is tracked explicitly so the
    policy is deterministic.
    """

    def __init__(self, sim, name="bus", width=4, cycle_time=10):
        super().__init__(name)
        if width < 1 or cycle_time < 0:
            raise ValueError("bus width must be >=1 and cycle_time >= 0")
        self.sim = sim
        self.width = width
        self.cycle_time = cycle_time
        self.busy = False
        self._free_evt = Event(f"{name}.free")
        self._requests = []  # (priority, seq, master) of pending requests
        self._seq = 0
        self.transfer_count = 0
        self.busy_time = 0

    def transfer_cycles(self, nbytes):
        return -(-nbytes // self.width)  # ceil division

    def transfer(self, nbytes, master="?", priority=0, owner=None):
        """Occupy the bus for one message of ``nbytes`` (generator).

        With ``owner=`` (an RTOS task handle) the transfer is abortable:
        if the owning task is killed while queued, the wait additionally
        wakes on the task's kill event and the request is withdrawn;
        if it is killed mid-transfer, the bus is released when the
        duration elapses. Either way :class:`TaskKilled` propagates so
        the task unwinds normally. Without an owner the same
        ``try/finally`` still guarantees that a closed/crashed requester
        never leaves a stale request queued or the bus stuck busy.
        """
        if nbytes <= 0:
            raise ValueError(f"transfer of {nbytes} bytes")
        request = (priority, self._seq, master)
        self._seq += 1
        self._requests.append(request)
        granted = False
        try:
            while self.busy or min(self._requests) != request:
                if owner is not None:
                    if owner.killed:
                        raise TaskKilled(owner.name)
                    yield Wait(self._free_evt, owner.kill_evt)
                else:
                    yield Wait(self._free_evt)
            if owner is not None and owner.killed:
                raise TaskKilled(owner.name)
            self._requests.remove(request)
            self.busy = True
            granted = True
            duration = self.transfer_cycles(nbytes) * self.cycle_time
            started = self.sim.now
            if duration:
                yield WaitFor(duration)
            if owner is not None and owner.killed:
                # killed while occupying: the finally releases the bus
                # and wakes the queued requesters
                raise TaskKilled(owner.name)
            self.busy = False
            granted = False
            self.transfer_count += 1
            self.busy_time += self.sim.now - started
            self.sim.trace.record(
                self.sim.now, "chan", self.name, "transfer",
                master=master, nbytes=nbytes, start=started,
            )
            yield Notify(self._free_evt)
        finally:
            if granted:
                # unwound while occupying the bus: release it and wake
                # the queued requesters (fire, not Notify — the unwind
                # may run outside any process context)
                self.busy = False
                self._free_evt.fire(self.sim)
            elif request in self._requests:
                # unwound while still queued: withdraw the request; the
                # head of the queue may have been waiting on us losing
                # the arbitration race, so re-wake the others
                self._requests.remove(request)
                if self._requests and not self.busy:
                    self._free_evt.fire(self.sim)
