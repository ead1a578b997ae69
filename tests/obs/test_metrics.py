"""Metrics registry: instruments and snapshots."""

import pytest

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
