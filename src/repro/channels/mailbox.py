"""Unbounded mailbox channel.

Non-blocking ``post`` (usable from ISR context in the refined flavor,
where it degenerates to an event notify) plus blocking ``collect``.
"""

from collections import deque

from repro.kernel.channel import Channel
from repro.kernel.commands import TIMEOUT
from repro.channels.sync import RTOSSync, SpecSync, wait_until


class MailboxBase(Channel):
    """Unbounded message box over a pluggable synchronization backend."""

    def __init__(self, sync, name=None):
        super().__init__(name)
        self._sync = sync
        self.messages = deque()
        self.erdy = sync.new_event(f"{self.name}.erdy")

    def attach_metrics(self, registry):
        """Register occupancy gauge + posted/collected counters."""
        from repro.obs.instruments import QueueObs

        self._obs = QueueObs(registry, self.name)
        return self._obs

    def post(self, message):
        """Deposit a message; never blocks (generator for the notify)."""
        self.messages.append(message)
        obs = self._obs
        if obs is not None:
            obs.sent.inc()
            obs.occupancy.set(len(self.messages))
        yield from self._sync.signal(self.erdy)

    def collect(self, timeout=None):
        """Block until a message is available, then take it (generator).

        With ``timeout=`` an empty mailbox is waited on for at most that
        much simulated time; on expiry the call evaluates to the kernel's
        :data:`~repro.kernel.commands.TIMEOUT` sentinel.
        """
        if timeout is None:
            while not self.messages:
                yield from self._sync.wait(self.erdy)
        else:
            ready = yield from wait_until(
                self._sync, self.erdy, lambda: bool(self.messages), timeout
            )
            if not ready:
                return TIMEOUT
        message = self.messages.popleft()
        obs = self._obs
        if obs is not None:
            obs.received.inc()
            obs.occupancy.set(len(self.messages))
        return message

    def try_collect(self):
        """Non-blocking collect; returns the message or None."""
        if self.messages:
            message = self.messages.popleft()
            obs = self._obs
            if obs is not None:
                obs.received.inc()
                obs.occupancy.set(len(self.messages))
            return message
        return None

    def __len__(self):
        return len(self.messages)


class Mailbox(MailboxBase):
    """Specification-model mailbox (SLDL events)."""

    def __init__(self, name=None):
        super().__init__(SpecSync(), name)


class RTOSMailbox(MailboxBase):
    """Architecture-model mailbox (RTOS events)."""

    def __init__(self, os_model, name=None):
        super().__init__(RTOSSync(os_model), name)
