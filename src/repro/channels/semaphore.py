"""Counting semaphores.

The paper's Figure 3 uses a semaphore channel ``sem`` through which the
interrupt handler (ISR) signals the main bus driver. The refined flavor
is safe to ``release`` from ISR context (``event_notify`` supports it).
"""

from repro.kernel.channel import Channel
from repro.channels.sync import RTOSSync, SpecSync, wait_until


class SemaphoreBase(Channel):
    """Counting semaphore over a pluggable synchronization backend."""

    def __init__(self, sync, init=0, name=None):
        super().__init__(name)
        if init < 0:
            raise ValueError(f"negative initial count: {init}")
        self._sync = sync
        self.count = init
        self.evt = sync.new_event(f"{self.name}.evt")
        #: diagnostics: blocked acquires observed
        self.contentions = 0

    def attach_metrics(self, registry):
        """Register token-level gauge + contention counter."""
        from repro.obs.instruments import SemaphoreObs

        self._obs = SemaphoreObs(registry, self.name)
        return self._obs

    def acquire(self, timeout=None):
        """Take one token, blocking while the count is zero (generator).

        Evaluates to True. With ``timeout=`` the wait expires after that
        much simulated time and evaluates to False (no token taken); the
        budget spans re-waits after lost wakeup races.
        """
        obs = self._obs
        if timeout is None:
            while self.count <= 0:
                self.contentions += 1
                if obs is not None:
                    obs.contended.inc()
                yield from self._sync.wait(self.evt)
        else:
            if self.count <= 0:
                self.contentions += 1
                if obs is not None:
                    obs.contended.inc()
            got = yield from wait_until(
                self._sync, self.evt, lambda: self.count > 0, timeout
            )
            if not got:
                return False
        self.count -= 1
        if obs is not None:
            obs.tokens.set(self.count)
        return True

    def release(self):
        """Return one token and wake blocked acquirers (generator)."""
        self.count += 1
        obs = self._obs
        if obs is not None:
            obs.tokens.set(self.count)
        yield from self._sync.signal(self.evt)

    def try_acquire(self):
        """Non-blocking acquire; returns True on success."""
        if self.count > 0:
            self.count -= 1
            obs = self._obs
            if obs is not None:
                obs.tokens.set(self.count)
            return True
        return False


class Semaphore(SemaphoreBase):
    """Specification-model semaphore (SLDL events)."""

    def __init__(self, init=0, name=None):
        super().__init__(SpecSync(), init, name)


class RTOSSemaphore(SemaphoreBase):
    """Architecture-model semaphore (RTOS event calls, Figure 7 style)."""

    def __init__(self, os_model, init=0, name=None):
        super().__init__(RTOSSync(os_model), init, name)
