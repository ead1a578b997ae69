"""Metrics registry: instruments, snapshots, cross-run aggregation."""

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


def _snapshot(counter, gauge_value, observations):
    registry = MetricsRegistry()
    registry.counter("c").inc(counter)
    registry.gauge("g").set(gauge_value)
    h = registry.histogram("h")
    for value in observations:
        h.observe(value)
    return registry.snapshot()


def test_aggregate_merges_across_runs():
    merged = MetricsRegistry.aggregate([
        _snapshot(2, 5, [3, 50]),
        _snapshot(3, 11, [7]),
    ])
    assert merged["c"] == {"kind": "counter", "runs": 2, "value": 5}
    gauge = merged["g"]
    assert gauge["min"] == 5
    assert gauge["max"] == 11
    assert gauge["value"] == pytest.approx(8.0)
    assert gauge["samples"] == 2
    hist = merged["h"]
    assert hist["count"] == 3
    assert hist["mean"] == pytest.approx(60 / 3)
    assert hist["runs"] == 2
    # a merged histogram is the digest merge of the same samples, with
    # mean and percentiles recomputed from it
    digest = LatencyDigest()
    for samples in ([3, 50], [7]):
        run = LatencyDigest()
        for value in samples:
            run.observe(value)
        digest.merge(run)
    assert hist == {"runs": 2, **digest.snapshot()}


def test_aggregate_partial_coverage_keeps_runs_count():
    only_first = MetricsRegistry()
    only_first.counter("rare").inc()
    merged = MetricsRegistry.aggregate([
        only_first.snapshot(), _snapshot(1, 1, [])
    ])
    assert merged["rare"]["runs"] == 1
    assert merged["c"]["runs"] == 1


def test_aggregate_kind_change_raises():
    a = MetricsRegistry()
    a.counter("x")
    b = MetricsRegistry()
    b.gauge("x")
    with pytest.raises(ValueError, match="kind"):
        MetricsRegistry.aggregate([a.snapshot(), b.snapshot()])


def test_sweep_result_aggregate_uses_registry_merge():
    from repro.farm import RunConfig
    from repro.farm.results import STATUS_OK, RunResult, SweepResult

    def value(switches):
        return {
            "switches": switches,
            "metrics": _snapshot(switches, switches, [switches]),
        }

    target = "repro.farm.workloads:periodic_taskset_run"
    results = [
        RunResult(RunConfig(target, {"i": i}), STATUS_OK, value=value(n))
        for i, n in enumerate((4, 8))
    ]
    aggregate = SweepResult(results).aggregate()
    assert aggregate["runs"] == 2
    assert aggregate["scalars"]["switches"] == {
        "min": 4, "max": 8, "mean": 6.0
    }
    assert aggregate["metrics"]["c"]["value"] == 12
