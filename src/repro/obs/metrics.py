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

    ``observe`` is O(1); memory is bounded by the number of distinct
    buckets (≤ 64 + 64·log2(max)). Quantiles return the floor of the
    containing bucket — exact for values < 64, within 1.6 % above.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name=None):
        self.name = name
        self.reset()

    def observe(self, value):
        value = int(value)
        if value < 0:
            raise ValueError(f"negative latency sample: {value}")
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = _bucket(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def reset(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def quantile(self, q):
        """Value at quantile ``q`` in [0, 1] (None while empty)."""
        if not self.count:
            return None
        rank = max(1, -(-int(q * self.count * 1_000_000) // 1_000_000))
        rank = min(rank, self.count)
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(_bucket_floor(index), self.max)
        return self.max

    def as_dict(self):
        """JSON-ready form (bucket keys stringified, sorted)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    def percentiles(self):
        """Report-ready summary: count/mean/p50/p95/p99/max.

        The mean is rounded to 3 decimals so the JSON form is stable
        across platforms; every other field is an exact integer.
        """
        if not self.count:
            return {"count": 0, "mean": None, "p50": None, "p95": None,
                    "p99": None, "max": None}
        return {
            "count": self.count,
            "mean": round(self.total / self.count, 3),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max,
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
