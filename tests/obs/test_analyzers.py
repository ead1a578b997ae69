"""Online analyzers: digests, inversion detection, witnesses, census."""

import json
import random

import pytest

from repro.apps import fig3
from repro.apps.inversion import run_fault_demo, run_inversion, run_mc_demo
from repro.kernel.trace import Trace
from repro.obs.analyzers import (
    DIGEST_EXACT,
    InversionDetector,
    LatencyAnalyzer,
    LatencyDigest,
    MissSummary,
    ModeTracker,
    WorstCaseTracker,
)
from repro.obs.spans import SpanBuilder, build_spans


# ----------------------------------------------------------------------
# LatencyDigest
# ----------------------------------------------------------------------

def test_digest_exact_below_threshold():
    digest = LatencyDigest()
    for value in range(DIGEST_EXACT):
        digest.observe(value)
    assert digest.quantile(0.50) == 31
    assert digest.quantile(1.0) == DIGEST_EXACT - 1
    assert digest.min == 0
    assert digest.max == DIGEST_EXACT - 1


def test_digest_relative_error_bounded():
    rng = random.Random(42)
    values = [rng.randrange(1, 10_000_000) for _ in range(5_000)]
    digest = LatencyDigest()
    for value in values:
        digest.observe(value)
    values.sort()
    for q in (0.5, 0.9, 0.95, 0.99, 1.0):
        exact = values[min(len(values) - 1, int(q * len(values)))]
        approx = digest.quantile(q)
        assert abs(approx - exact) / exact < 0.02, (q, exact, approx)
    # bucket floors never exceed the tracked exact maximum
    assert digest.quantile(1.0) <= digest.max == values[-1]


def test_digest_merge_is_order_insensitive():
    a, b, c = LatencyDigest(), LatencyDigest(), LatencyDigest()
    rng = random.Random(7)
    for digest in (a, b, c):
        for _ in range(500):
            digest.observe(rng.randrange(1, 1_000_000))

    def merged(parts):
        out = LatencyDigest()
        for part in parts:
            out.merge(part.as_dict())
        return json.dumps(out.as_dict(), sort_keys=True)

    assert merged([a, b, c]) == merged([c, a, b]) == merged([b, c, a])


def test_digest_roundtrips_through_dict():
    digest = LatencyDigest()
    for value in (1, 50, 70_000, 123456789):
        digest.observe(value)
    clone = LatencyDigest.from_dict(
        json.loads(json.dumps(digest.as_dict()))
    )
    assert clone.as_dict() == digest.as_dict()
    assert clone.percentiles() == digest.percentiles()


def test_digest_percentiles_shape():
    empty = LatencyDigest().percentiles()
    assert empty == {"count": 0, "mean": None, "p50": None, "p95": None,
                     "p99": None, "max": None}
    digest = LatencyDigest()
    digest.observe(10)
    stats = digest.percentiles()
    assert stats["count"] == 1
    assert stats["p50"] == stats["p99"] == stats["max"] == 10


# ----------------------------------------------------------------------
# LatencyAnalyzer over real span streams
# ----------------------------------------------------------------------

def _analyze(records, *analyzers):
    build_spans(records, *analyzers, keep=False).finish()
    return analyzers


def test_latency_analyzer_merge_dicts_matches_single_pass():
    # two runs analyzed separately then merged must equal one analyzer
    # fed both streams — the campaign-aggregation contract
    r1 = run_inversion(rounds=1).trace.records
    r2 = run_inversion(rounds=2).trace.records
    one = LatencyAnalyzer()
    _analyze(list(r1), one)
    two = LatencyAnalyzer()
    _analyze(list(r2), two)
    both = LatencyAnalyzer()
    joint = build_spans(list(r1), both, keep=False)
    for record in r2:
        joint.emit(record)
    joint.finish()

    merged = LatencyAnalyzer.merge_dicts([one.as_dict(), two.as_dict()])
    reversed_ = LatencyAnalyzer.merge_dicts([two.as_dict(), one.as_dict()])
    assert json.dumps(merged, sort_keys=True) == json.dumps(
        reversed_, sort_keys=True)
    assert merged == both.as_dict()


def test_summarize_dump_is_deterministic():
    records = run_inversion(rounds=2).trace.records
    analyzer = LatencyAnalyzer()
    _analyze(list(records), analyzer)
    dump = analyzer.as_dict()
    a = json.dumps(LatencyAnalyzer.summarize_dump(dump), sort_keys=True)
    b = json.dumps(LatencyAnalyzer.summarize_dump(
        json.loads(json.dumps(dump))), sort_keys=True)
    assert a == b


# ----------------------------------------------------------------------
# InversionDetector
# ----------------------------------------------------------------------

def test_detector_names_inverter_per_round():
    result = run_inversion(rounds=3)
    detector = InversionDetector()
    _analyze(list(result.trace.records), detector)
    assert len(detector.incidents) == 3
    for incident in detector.incidents:
        assert incident["task"] == "hi"
        assert incident["holder"] == "lo"
        assert incident["resource"] == "shared.evt"
        assert incident["inverter"] == "mid"
        assert incident["duration"] == 60


def test_priority_inheritance_heals_inversion():
    result = run_inversion(rounds=3, pi=True)
    detector = InversionDetector()
    _analyze(list(result.trace.records), detector)
    assert detector.incidents == []


def test_detector_chains_are_bounded_and_sorted():
    result = run_inversion(rounds=3)
    detector = InversionDetector(top=4)
    _analyze(list(result.trace.records), detector)
    chains = detector.chains()
    assert len(chains) == 4
    durations = [chain["duration"] for chain in chains]
    assert durations == sorted(durations, reverse=True)


# ----------------------------------------------------------------------
# WorstCaseTracker / MissSummary
# ----------------------------------------------------------------------

def test_worst_case_witness_from_fault_demo():
    tracker = WorstCaseTracker()
    summary = MissSummary()
    result = run_fault_demo()
    _analyze(list(result.trace.records), tracker, summary)
    witnesses = tracker.as_dict()
    assert "t3" in summary.as_dict()["tasks"]
    census = summary.as_dict()
    assert census["totals"]["killed"] >= 2  # watchdog kill + crash kill
    assert census["totals"]["missed"] >= 1
    # a witness records the actual worst job, release included
    for task, witness in witnesses.items():
        assert witness["response"] >= 0
        assert witness["end"] >= witness["release"]


# ----------------------------------------------------------------------
# clearing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("run", [fig3.run_architecture, run_inversion,
                                 run_mc_demo])
def test_cleared_builder_reports_like_a_fresh_one(run):
    def report(clear_after_first_run):
        builder = SpanBuilder(LatencyAnalyzer(), InversionDetector(),
                              WorstCaseTracker(), MissSummary(),
                              ModeTracker())
        trace = Trace(sink=builder)
        if clear_after_first_run:
            run(trace=trace)
            trace.clear()
        run(trace=trace)
        builder.finish()
        return [analyzer.as_dict() for analyzer in builder.analyzers]

    assert report(clear_after_first_run=True) == report(
        clear_after_first_run=False)
