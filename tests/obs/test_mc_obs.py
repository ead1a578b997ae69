"""Mode observability: ModeTracker, report sections, CTF instants.

Mixed-criticality mode transitions flow through the same span pipeline
as every other record category: ``"mode"`` trace records annotate jobs
with the mode they ran under, feed the :class:`ModeTracker` analyzer,
render as dedicated report sections and export as CTF instants on
their own pid row. The non-MC paths must be unchanged: reports on
traces without mode records keep their exact prior shape.
"""

import json

from repro.apps.inversion import run_fault_demo, run_mc_demo
from repro.obs.analyzers import ModeTracker
from repro.obs.ctf import MODE_PID, to_ctf
from repro.obs.report import build_report, format_report
from repro.obs.spans import build_spans


def _mc_records():
    result = run_mc_demo()
    return result, list(result.trace)


# ----------------------------------------------------------------------
# ModeTracker
# ----------------------------------------------------------------------

def test_mode_tracker_sees_raises_and_recoveries():
    result, records = _mc_records()
    tracker = ModeTracker()
    build_spans(records, tracker)
    summary = tracker.as_dict()
    assert summary["raises"] == result.os.metrics.mode_raises >= 1
    assert summary["recoveries"] == result.os.metrics.mode_recoveries >= 1
    first = summary["transitions"][0]
    assert first["kind"] == "raise"
    assert first["prev"] == "LO" and first["level"] == "HI"
    assert first["trigger"] == "hi"
    # every degraded LO task is accounted with its policy
    assert set(summary["degraded"]) == {"lo1", "lo2"}
    assert all(
        entry["policy"] == "drop" and entry["releases"] >= 1
        for entry in summary["degraded"].values()
    )


def test_miss_census_agrees_with_the_watchdogs():
    # the demo's HI task overruns its LO budget (raising the mode) but
    # meets every deadline: overruns must not count as missed jobs
    result, records = _mc_records()
    os_ = result.os
    report = build_report(records, monitor=os_.monitor, mc=os_.mc)
    watchdogs = report["watchdogs"]["tasks"]
    assert watchdogs["hi"]["budget_overruns"] >= 1
    for task, row in report["misses"]["tasks"].items():
        assert row["missed"] == watchdogs[task]["deadline_misses"], task
    assert report["misses"]["totals"]["missed"] == (
        os_.metrics.deadline_misses
    )
    assert report["worst_case"]["hi"]["missed"] is False


def test_jobs_carry_the_mode_they_ran_under():
    _, records = _mc_records()
    spans = build_spans(records)
    modes = {job.mode for job in spans.jobs if job.task == "hi"}
    # the demo cycles LO -> HI -> LO ..., so HI jobs ran in both modes
    assert None in modes or "LO" in modes
    assert "HI" in modes


# ----------------------------------------------------------------------
# report sections
# ----------------------------------------------------------------------

def test_report_has_mode_and_mc_sections():
    result, records = _mc_records()
    report = build_report(records, monitor=result.os.monitor,
                          mc=result.os.mc)
    assert report["modes"]["raises"] >= 1
    assert report["mc"]["levels"] == ["LO", "HI"]
    assert report["mc"]["tasks"]["hi"]["criticality"] == "HI"
    watchdogs = report["watchdogs"]["tasks"]
    assert watchdogs["hi"]["deadline_misses"] == 0
    text = format_report(report)
    assert "criticality modes" in text
    assert "raise LO -> HI" in text
    assert "watchdogs" in text
    assert "mixed-criticality" in text


def test_report_is_deterministic_for_mc_runs():
    result, records = _mc_records()

    def render():
        return json.dumps(
            build_report(records, monitor=result.os.monitor,
                         mc=result.os.mc),
            indent=2, sort_keys=True,
        )

    assert render() == render()


def test_non_mc_report_shape_is_unchanged():
    """Without mode records the new sections stay silent."""
    result = run_fault_demo()
    report = build_report(list(result.trace))
    assert report["modes"]["transitions"] == []
    assert "watchdogs" not in report
    assert "mc" not in report
    text = format_report(report)
    assert "criticality modes" not in text
    assert "mixed-criticality" not in text


# ----------------------------------------------------------------------
# CTF export
# ----------------------------------------------------------------------

def test_ctf_exports_mode_instants_on_their_own_row():
    result, _ = _mc_records()
    ctf = to_ctf(result.trace)
    events = ctf["traceEvents"]
    mode_events = [
        e for e in events if e.get("pid") == MODE_PID and e["ph"] == "i"
    ]
    assert mode_events
    names = {e["name"] for e in mode_events}
    assert any("raise" in n for n in names)
    # the pid row is labeled for the viewer
    assert any(
        e["ph"] == "M" and e.get("pid") == MODE_PID
        and e["args"]["name"] == "mode"
        for e in events
    )
