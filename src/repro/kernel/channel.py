"""Channel base class (SpecC ``channel``).

Channels encapsulate communication and synchronization between behaviors.
A channel method that can block is a generator that the calling behavior
delegates to with ``yield from`` — exactly mirroring how SpecC channel
methods execute in the caller's thread of control.

Concrete channels live in :mod:`repro.channels`; this module only defines
the common base and naming.
"""

import itertools

_channel_ids = itertools.count()


class Channel:
    """Base class for all channels.

    Channels built from SLDL events (the specification-model flavor) keep
    their events in ``self.events`` so the refinement tool can enumerate
    and remap them onto RTOS events (paper Figure 7).

    Channels can be *observed*: ``attach_metrics(registry)`` (overridden
    by the concrete channels in :mod:`repro.channels`) registers
    occupancy/throughput instruments in a
    :class:`~repro.obs.metrics.MetricsRegistry`. The ``_obs`` class
    attribute is the detached default, so un-instrumented channels pay
    one attribute load and a ``None`` compare per operation.
    """

    #: instrument bundle; None while no registry is attached
    _obs = None

    def __init__(self, name=None):
        self.name = name or f"{type(self).__name__.lower()}{next(_channel_ids)}"

    def attach_metrics(self, registry):
        """Register this channel's instruments in ``registry``.

        The base channel has nothing to measure; concrete channels
        override this and return their instrument bundle.
        """
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
