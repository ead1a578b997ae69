"""Online analyzers: digests, inversion detection, witnesses, census."""

import random

import pytest

from repro.apps import fig3
from repro.apps.inversion import run_fault_demo, run_inversion, run_mc_demo
from repro.farm.workloads import DEFAULT_GRANULARITY, task_specs
from repro.kernel import Simulator
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
from repro.rtos import RTOSModel
from repro.rtos.taskset import spawn_periodic


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


def test_span_worst_response_matches_task_stats():
    # the ablation task set streamed straight into a span builder: the
    # span-derived worst response of every task equals the one its
    # TaskStats keep (same jobs, independently reconstructed)
    latency = LatencyAnalyzer()
    builder = SpanBuilder(latency)
    sim = Simulator(trace=Trace(sink=builder))
    os_ = RTOSModel(sim)
    os_.trace_spans(True)
    tasks = spawn_periodic(os_, task_specs(), step=DEFAULT_GRANULARITY)
    os_.spawn_boot()
    sim.run(until=2_000_000)
    builder.finish(sim.now)
    assert [t.name for t in tasks] == sorted(latency.response)
    for task in tasks:
        digest = latency.response[task.name]
        assert digest.count == len(task.stats.response_times) > 0
        assert digest.max == task.stats.worst_response


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
