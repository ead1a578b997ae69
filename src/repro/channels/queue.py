"""Bounded FIFO queue channel — the paper's ``c_queue`` (Figure 7).

``send`` blocks while the buffer is full; ``recv`` blocks while it is
empty. Synchronization uses a data-ready and a space-ready event, exactly
the ``erdy``/``eack`` pair of the paper's example.
"""

from collections import deque

from repro.kernel.channel import Channel
from repro.kernel.commands import TIMEOUT
from repro.channels.sync import RTOSSync, SpecSync, wait_until


class QueueBase(Channel):
    """Bounded FIFO over a pluggable synchronization backend."""

    def __init__(self, sync, capacity=1, name=None):
        super().__init__(name)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sync = sync
        self.capacity = capacity
        self.buffer = deque()
        self.erdy = sync.new_event(f"{self.name}.erdy")
        self.eack = sync.new_event(f"{self.name}.eack")
        self.sent = 0
        self.received = 0

    def attach_metrics(self, registry):
        """Register occupancy gauge + sent/received counters."""
        from repro.obs.instruments import QueueObs

        self._obs = QueueObs(registry, self.name)
        return self._obs

    def send(self, item, timeout=None):
        """Enqueue ``item``, blocking while the queue is full (generator).

        Evaluates to True. With ``timeout=`` the wait for space expires
        after that much simulated time and evaluates to False (nothing
        enqueued).
        """
        if timeout is None:
            while len(self.buffer) >= self.capacity:
                yield from self._sync.wait(self.eack)
        else:
            fits = yield from wait_until(
                self._sync, self.eack,
                lambda: len(self.buffer) < self.capacity, timeout,
            )
            if not fits:
                return False
        self.buffer.append(item)
        self.sent += 1
        obs = self._obs
        if obs is not None:
            obs.sent.inc()
            obs.occupancy.set(len(self.buffer))
        yield from self._sync.signal(self.erdy)
        return True

    def recv(self, timeout=None):
        """Dequeue one item, blocking while empty (generator).

        Evaluates to the item: ``item = yield from q.recv()``. With
        ``timeout=`` an empty queue is waited on for at most that much
        simulated time; on expiry the call evaluates to the kernel's
        :data:`~repro.kernel.commands.TIMEOUT` sentinel.
        """
        if timeout is None:
            while not self.buffer:
                yield from self._sync.wait(self.erdy)
        else:
            ready = yield from wait_until(
                self._sync, self.erdy, lambda: bool(self.buffer), timeout
            )
            if not ready:
                return TIMEOUT
        item = self.buffer.popleft()
        self.received += 1
        obs = self._obs
        if obs is not None:
            obs.received.inc()
            obs.occupancy.set(len(self.buffer))
        yield from self._sync.signal(self.eack)
        return item

    def __len__(self):
        return len(self.buffer)


class Queue(QueueBase):
    """Specification-model bounded queue (SLDL events)."""

    def __init__(self, capacity=1, name=None):
        super().__init__(SpecSync(), capacity, name)


class RTOSQueue(QueueBase):
    """Architecture-model bounded queue (RTOS events, Figure 7)."""

    def __init__(self, os_model, capacity=1, name=None):
        super().__init__(RTOSSync(os_model), capacity, name)
