"""Metrics registry: counters, gauges and histograms by name.

:class:`~repro.rtos.metrics.RTOSMetrics` is a fixed slot struct — the
Table-1 numbers. This module is the *open* half of the metrics story:
any layer (RTOS services, channels, platform models, applications)
registers instruments by name in a :class:`MetricsRegistry` and bumps
them on the fly; ``snapshot()``/``as_dict()`` exports everything as one
JSON-friendly dict (``python -m repro.obs stats`` prints it).

Instruments are deliberately tiny (``__slots__``, no locks, no labels):
simulations are single-threaded per process, and a disabled
instrumentation path must stay one ``is None`` check away from free.

A registry histogram is a :class:`LatencyDigest`, the deterministic
integer quantile digest the span analyzers also keep
(:mod:`repro.obs.analyzers`); its snapshot adds mean/p50/p95/p99 to the
digest form.
"""

#: values below this are bucketed exactly (one bucket per integer)
DIGEST_EXACT = 64
_SUB_BITS = 6  # log2(DIGEST_EXACT): sub-bucket resolution above EXACT
#: distinct values a digest counts before folding them into buckets
DIGEST_VALUES = 1024


def _bucket(value):
    """Bucket index of a non-negative integer value."""
    if value < DIGEST_EXACT:
        return value
    shift = value.bit_length() - 1 - _SUB_BITS
    return (shift << _SUB_BITS) + (value >> shift)


def _bucket_floor(index):
    """Smallest value mapping to bucket ``index`` (its representative)."""
    if index < 2 * DIGEST_EXACT:  # shift 0: still exact
        return index
    shift = (index >> _SUB_BITS) - 1
    return (DIGEST_EXACT + (index & (DIGEST_EXACT - 1))) << shift


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def as_dict(self):
        return {"kind": "counter", "value": self.value}

    def __repr__(self):
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Last-written value, with min/max/sample bookkeeping."""

    kind = "gauge"
    __slots__ = ("name", "value", "min", "max", "samples")

    def __init__(self, name):
        self.name = name
        self.reset()

    def set(self, value):
        self.value = value
        self.samples += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self):
        self.value = None
        self.min = None
        self.max = None
        self.samples = 0

    def as_dict(self):
        return {
            "kind": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "samples": self.samples,
        }

    def __repr__(self):
        return f"Gauge({self.name!r}, value={self.value})"


class LatencyDigest:
    """Deterministic integer quantile digest (a histogram).

    ``observe`` only counts the sample: one dict update keyed by the
    value. ``count``, ``total``, ``min``, ``max`` and ``buckets`` are
    folded from those counts when read, and past :data:`DIGEST_VALUES`
    distinct values the counts are folded into buckets, so memory stays
    bounded: that many values plus the distinct buckets
    (≤ 64 + 64·log2(max)). Folding is exact: a digest reads the same
    whenever it is folded. Quantiles return the floor of the containing
    bucket — exact for values < 64, within 1.6 % above.
    """

    kind = "histogram"
    __slots__ = ("name", "_values", "_count", "_total", "_min", "_max",
                 "_buckets")

    def __init__(self, name=None):
        self.name = name
        self.reset()

    def observe(self, value):
        values = self._values
        n = values.get(value)
        if n is None:
            self._first(value)
        else:
            values[value] = n + 1

    def _first(self, value):
        """Count a value not seen since the last fold."""
        if int(value) < 0:
            raise ValueError(f"negative latency sample: {int(value)}")
        values = self._values
        values[value] = 1
        if len(values) > DIGEST_VALUES:
            self._fold()

    def _fold(self):
        """Move the counted values into count/total/min/max/buckets."""
        values = self._values
        if not values:
            return
        count, total = self._count, self._total
        low, high = self._min, self._max
        buckets = self._buckets
        for value, n in values.items():
            value = int(value)
            count += n
            total += value * n
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
            index = _bucket(value)
            buckets[index] = buckets.get(index, 0) + n
        values.clear()
        self._count, self._total = count, total
        self._min, self._max = low, high

    @property
    def count(self):
        self._fold()
        return self._count

    @property
    def total(self):
        self._fold()
        return self._total

    @property
    def min(self):
        self._fold()
        return self._min

    @property
    def max(self):
        self._fold()
        return self._max

    @property
    def buckets(self):
        self._fold()
        return self._buckets

    def reset(self):
        self._values = {}
        self._count = 0
        self._total = 0
        self._min = None
        self._max = None
        self._buckets = {}

    def quantile(self, q):
        """Value at quantile ``q`` in [0, 1] (None while empty)."""
        self._fold()
        count = self._count
        if not count:
            return None
        rank = max(1, -(-int(q * count * 1_000_000) // 1_000_000))
        rank = min(rank, count)
        seen = 0
        buckets = self._buckets
        for index in sorted(buckets):
            seen += buckets[index]
            if seen >= rank:
                return min(_bucket_floor(index), self._max)
        return self._max

    def as_dict(self):
        """JSON-ready form (bucket keys stringified, sorted)."""
        self._fold()
        buckets = self._buckets
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min,
            "max": self._max,
            "buckets": {str(index): buckets[index]
                        for index in sorted(buckets)},
        }

    def percentiles(self):
        """Report-ready summary: count/mean/p50/p95/p99/max.

        The mean is rounded to 3 decimals so the JSON form is stable
        across platforms; every other field is an exact integer.
        """
        self._fold()
        count = self._count
        if not count:
            return {"count": 0, "mean": None, "p50": None, "p95": None,
                    "p99": None, "max": None}
        return {
            "count": count,
            "mean": round(self._total / count, 3),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self._max,
        }

    def snapshot(self):
        """Registry export: the digest form plus its percentiles."""
        return {"kind": "histogram", **self.as_dict(), **self.percentiles()}


class MetricsRegistry:
    """Named instruments with get-or-create registration.

    ``registry.counter("os.dispatches")`` returns the existing counter of
    that name or creates it; asking for the same name with a different
    instrument kind raises. Iteration order is registration order.
    """

    def __init__(self):
        self._metrics = {}

    def _get_or_create(self, name, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name):
        return self._get_or_create(name, Counter)

    def gauge(self, name):
        return self._get_or_create(name, Gauge)

    def histogram(self, name):
        return self._get_or_create(name, LatencyDigest)

    def get(self, name):
        return self._metrics.get(name)

    def names(self):
        return list(self._metrics)

    def __contains__(self, name):
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self):
        return len(self._metrics)

    def reset(self):
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self):
        """All instruments as one JSON-friendly ``{name: dict}`` dict
        (``as_dict()`` of counters and gauges, ``snapshot()`` of
        histograms)."""
        return {
            name: m.snapshot() if m.kind == "histogram" else m.as_dict()
            for name, m in self._metrics.items()
        }

    as_dict = snapshot
