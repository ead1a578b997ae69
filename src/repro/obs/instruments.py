"""Pre-bound instrument bundles for the hot layers.

The RTOS services and the channel library are instrumented through small
bundle objects created once per model/channel from a
:class:`~repro.obs.metrics.MetricsRegistry`. An RTOS model holds its
:class:`RTOSObs` in its ``obs`` slot; its OS services read
``self.model.obs`` and guard with a single ``if obs is not None``, so
the disabled path (the default — no registry attached) costs that
lookup and a pointer compare. Histograms are
:class:`~repro.obs.metrics.LatencyDigest` digests.

Metric name scheme::

    <os-name>.ready_depth              gauge, sampled at each dispatch
    <os-name>.event_wait_latency      histogram, wait -> wake sim-time
    <os-name>.time_wait_delay         histogram of requested delays
    <os-name>.response_time.<task>    histogram per task
    <os-name>.component_budget.<c>    gauge, window consumption per server
    <os-name>.component_throttles.<c> counter, budget-exhaustion suspends
    chan.<name>.occupancy             gauge (queue/mailbox fill level)
    chan.<name>.sent / .received      counters
    chan.<name>.tokens                gauge (semaphore count)
    chan.<name>.contended             counter (blocked acquires)
    chan.<name>.transfers             counter (handshake rendezvous)
"""


class RTOSObs:
    """Instruments of one RTOS model (one PE)."""

    __slots__ = (
        "registry",
        "prefix",
        "ready_depth",
        "wait_latency",
        "time_wait_delay",
        "_response",
        "_component_budget",
        "_component_throttles",
    )

    def __init__(self, registry, prefix):
        self.registry = registry
        self.prefix = prefix
        self.ready_depth = registry.gauge(f"{prefix}.ready_depth")
        self.wait_latency = registry.histogram(f"{prefix}.event_wait_latency")
        self.time_wait_delay = registry.histogram(f"{prefix}.time_wait_delay")
        self._response = {}
        self._component_budget = {}
        self._component_throttles = {}

    def response(self, task_name):
        """Per-task response-time histogram (created lazily)."""
        hist = self._response.get(task_name)
        if hist is None:
            hist = self._response[task_name] = self.registry.histogram(
                f"{self.prefix}.response_time.{task_name}"
            )
        return hist

    def component_budget(self, comp_name):
        """Per-component budget-consumption gauge (created lazily)."""
        gauge = self._component_budget.get(comp_name)
        if gauge is None:
            gauge = self._component_budget[comp_name] = self.registry.gauge(
                f"{self.prefix}.component_budget.{comp_name}"
            )
        return gauge

    def component_throttles(self, comp_name):
        """Per-component throttle counter (created lazily)."""
        counter = self._component_throttles.get(comp_name)
        if counter is None:
            counter = self._component_throttles[comp_name] = (
                self.registry.counter(
                    f"{self.prefix}.component_throttles.{comp_name}"
                )
            )
        return counter


class QueueObs:
    """Occupancy + throughput instruments of one buffered channel."""

    __slots__ = ("occupancy", "sent", "received")

    def __init__(self, registry, name):
        self.occupancy = registry.gauge(f"chan.{name}.occupancy")
        self.sent = registry.counter(f"chan.{name}.sent")
        self.received = registry.counter(f"chan.{name}.received")


class SemaphoreObs:
    """Token-level + contention instruments of one semaphore."""

    __slots__ = ("tokens", "contended")

    def __init__(self, registry, name):
        self.tokens = registry.gauge(f"chan.{name}.tokens")
        self.contended = registry.counter(f"chan.{name}.contended")


class HandshakeObs:
    """Rendezvous counter of one handshake channel."""

    __slots__ = ("transfers",)

    def __init__(self, registry, name):
        self.transfers = registry.counter(f"chan.{name}.transfers")
