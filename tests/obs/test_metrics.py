"""Metrics registry: instruments and snapshots."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyDigest,
    MetricsRegistry,
)


def test_counter_inc_and_reset():
    c = Counter("c")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert c.as_dict() == {"kind": "counter", "value": 5}
    c.reset()
    assert c.value == 0


def test_gauge_tracks_extremes_and_samples():
    g = Gauge("g")
    assert g.as_dict()["value"] is None
    for value in (3, 7, 1):
        g.set(value)
    assert g.value == 1
    assert g.min == 1
    assert g.max == 7
    assert g.samples == 3


def test_registry_get_or_create_identity():
    registry = MetricsRegistry()
    c1 = registry.counter("hits")
    c2 = registry.counter("hits")
    assert c1 is c2
    assert "hits" in registry
    assert registry.names() == ["hits"]
    assert registry.get("hits") is c1
    assert len(registry) == 1


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="counter"):
        registry.gauge("x")


def test_registry_snapshot_and_reset():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(9)
    registry.histogram("h").observe(4)
    assert isinstance(registry.get("h"), LatencyDigest)
    snap = registry.snapshot()
    assert snap["c"]["value"] == 3
    assert snap["g"]["value"] == 9
    assert snap["h"]["count"] == 1
    assert snap["h"]["p50"] == snap["h"]["p99"] == 4
    assert registry.as_dict() == snap
    registry.reset()
    snap = registry.snapshot()
    assert snap["c"]["value"] == 0
    assert snap["g"]["value"] is None
    assert snap["h"]["count"] == 0


# ----------------------------------------------------------------------
# the counting LatencyDigest against a per-sample reference
# ----------------------------------------------------------------------

class ReferenceDigest:
    """The per-sample digest: every ``observe`` buckets the value and
    updates count, total, min and max at once."""

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    @staticmethod
    def _bucket(value):
        if value < 64:
            return value
        shift = value.bit_length() - 1 - 6
        return (shift << 6) + (value >> shift)

    @staticmethod
    def _bucket_floor(index):
        if index < 128:
            return index
        shift = (index >> 6) - 1
        return (64 + (index & 63)) << shift

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
        index = self._bucket(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q):
        if not self.count:
            return None
        rank = max(1, -(-int(q * self.count * 1_000_000) // 1_000_000))
        rank = min(rank, self.count)
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(self._bucket_floor(index), self.max)
        return self.max

    def as_dict(self):
        return {
            "count": self.count, "total": self.total,
            "min": self.min, "max": self.max,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    def percentiles(self):
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
        return {"kind": "histogram", **self.as_dict(), **self.percentiles()}


def _same_reads(digest, reference):
    assert digest.as_dict() == reference.as_dict()
    assert digest.percentiles() == reference.percentiles()
    assert digest.snapshot() == reference.snapshot()
    assert (digest.count, digest.total, digest.min, digest.max) == (
        reference.count, reference.total, reference.min, reference.max)
    assert digest.buckets == reference.buckets
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert digest.quantile(q) == reference.quantile(q)


_SAMPLES = st.one_of(
    st.integers(0, 3),
    st.integers(60, 68),
    st.integers(120, 136),
    st.integers(0, 2**48),
    st.floats(0, 200, allow_nan=False),
)
_OPS = st.lists(st.one_of(_SAMPLES, st.sampled_from(("read", "reset"))),
                max_size=200)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, cap=st.sampled_from((1, 3, metrics.DIGEST_VALUES)))
def test_counting_digest_reads_like_the_per_sample_digest(ops, cap):
    # reads between observes fold what was counted so far; a small cap
    # folds every few distinct values, so folding at any point must
    # leave every read unchanged
    digest = LatencyDigest()
    reference = ReferenceDigest()
    with mock.patch.object(metrics, "DIGEST_VALUES", cap):
        for op in ops:
            if op == "read":
                _same_reads(digest, reference)
            elif op == "reset":
                digest.reset()
                reference.__init__()
            else:
                digest.observe(op)
                reference.observe(op)
        _same_reads(digest, reference)


def test_counting_digest_refuses_negative_samples_as_before():
    digest = LatencyDigest()
    digest.observe(5)
    with pytest.raises(ValueError, match="negative latency sample: -3"):
        digest.observe(-3)
    digest.observe(-0.5)  # truncates to 0, as int() always did
    reference = ReferenceDigest()
    reference.observe(5)
    reference.observe(-0.5)
    _same_reads(digest, reference)


def test_counting_digest_memory_stays_bounded():
    digest = LatencyDigest()
    for value in range(10 * metrics.DIGEST_VALUES):
        digest.observe(value)
        assert len(digest._values) <= metrics.DIGEST_VALUES
    assert digest.count == 10 * metrics.DIGEST_VALUES
