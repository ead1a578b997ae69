"""Fault campaigns: plan resolution, determinism, farm + CLI integration."""

import json

import pytest

from repro.faults import (
    FaultPlan,
    FaultPlanError,
    PLAN_PRESETS,
    campaign_report,
    campaign_spec,
    resolve_plan,
    run_campaign_point,
    write_campaign_report,
)
from repro.farm import run_sweep
from repro.farm.__main__ import main as farm_main

FAST = {"horizon": 2_000_000}


# ----------------------------------------------------------------------
# plan resolution
# ----------------------------------------------------------------------

def test_resolve_plan_accepts_all_forms():
    assert resolve_plan("baseline") == FaultPlan()
    assert resolve_plan("jitter").of_kind("exec_jitter")
    inline = '[{"kind": "task_crash", "task": "t1", "at": 100}]'
    assert resolve_plan(inline).of_kind("task_crash")[0].at == 100
    plan = FaultPlan([{"kind": "exec_jitter"}])
    assert resolve_plan(plan) is plan
    assert resolve_plan([{"kind": "exec_jitter"}]) == plan


def test_resolve_plan_unknown_preset():
    with pytest.raises(FaultPlanError) as excinfo:
        resolve_plan("bogus")
    assert "unknown fault-plan preset" in str(excinfo.value)


def test_all_presets_are_valid_plans():
    for name in PLAN_PRESETS:
        resolve_plan(name)  # must not raise


# ----------------------------------------------------------------------
# campaign points
# ----------------------------------------------------------------------

def test_campaign_point_reproducible_for_identical_seed():
    a = run_campaign_point(policy="edf", seed=7, plan="storm", **FAST)
    b = run_campaign_point(policy="edf", seed=7, plan="storm", **FAST)
    assert a == b


def test_campaign_point_seed_changes_probabilistic_outcome():
    a = run_campaign_point(policy="edf", seed=7, plan="storm")
    b = run_campaign_point(policy="edf", seed=8, plan="storm")
    assert a != b


def test_campaign_point_inline_json_plan():
    plan = '[{"kind": "task_crash", "task": "t1", "at": 500000}]'
    result = run_campaign_point(plan=plan, horizon=1_000_000)
    assert result["survivors"] == 2
    assert result["plan"] == plan  # recorded verbatim (cache-hashable)
    assert result["injected"] == {"task_crash": 1}


def test_campaign_point_notify_counts_notifications():
    result = run_campaign_point(plan="overrun", on_miss="notify", **FAST)
    assert result["notifications"] == result["misses"] > 0


# ----------------------------------------------------------------------
# sweep spec + report
# ----------------------------------------------------------------------

def test_campaign_spec_is_the_full_cross_product():
    spec = campaign_spec(
        seeds=[1, 2], plans=["baseline", "crash"], scheds=["priority"]
    )
    assert len(spec) == 4
    labels = [c.label() for c in spec.expand()]
    assert all("fault_campaign_run" in label for label in labels)


def test_campaign_spec_validates_plans_eagerly():
    with pytest.raises(FaultPlanError):
        campaign_spec(plans=["bogus"])


def test_campaign_report_is_byte_identical_across_runs(tmp_path):
    def one(path):
        spec = campaign_spec(
            seeds=[1], plans=["baseline", "crash"], scheds=["priority"],
            horizon=2_000_000,
        )
        result = run_sweep(spec, processes=1)
        return write_campaign_report(result, path)

    payload1 = one(tmp_path / "rep1.json")
    payload2 = one(tmp_path / "rep2.json")
    assert (tmp_path / "rep1.json").read_bytes() \
        == (tmp_path / "rep2.json").read_bytes()
    report = json.loads(payload1)
    assert report["campaign"]["runs"] == 2
    assert report["campaign"]["ok"] == 2
    assert report["campaign"]["min_survival"] < 1.0  # the crash point
    # no wall-clock leaks into the deterministic report
    assert "elapsed" not in payload1 and "wall_seconds" not in payload1
    assert payload1 == payload2


def test_campaign_report_keeps_failures_visible():
    from repro.farm import RunConfig

    result = run_sweep(
        [RunConfig("tests.farm.targets:boom", {"message": "nope"})],
        processes=1,
    )
    report = campaign_report(result)
    assert report["campaign"]["failed"] == 1
    assert report["points"][0]["status"] == "error"
    assert report["points"][0]["result"] is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_campaign_cli_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = farm_main([
        "campaign", "--seeds", "1", "--plans", "baseline,crash",
        "--sched", "priority", "--horizon", "2000000",
        "--jobs", "1", "--quiet",
        "--report", str(report_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 runs, 2 ok" in out
    report = json.loads(report_path.read_text())
    assert report["campaign"]["total_faults_injected"] == 1


def test_campaign_cli_unknown_plan_exits_2(capsys):
    code = farm_main([
        "campaign", "--plans", "bogus", "--jobs", "1",
    ])
    assert code == 2
    assert "invalid sweep configuration" in capsys.readouterr().err


# ----------------------------------------------------------------------
# span analytics riding campaign points (PR-9)
# ----------------------------------------------------------------------

def test_campaign_point_with_spans_payload():
    # crash t1 *inside* a job (released at 1_200_000, wcet 100_000) so
    # the kill closes an open job span, visible in the census
    plan = json.dumps(
        [{"kind": "task_crash", "task": "t1", "at": 1_250_000}]
    )
    result = run_campaign_point(plan=plan, seed=3, with_spans=True,
                                **FAST)
    spans = result["spans"]
    assert set(spans) == {"latency", "misses"}
    census = spans["misses"]
    assert set(census["tasks"]) == {"t1", "t2", "t3"}
    assert census["totals"]["jobs"] > 0
    assert census["tasks"]["t1"]["killed"] == 1
    # digests are JSON-clean and reproducible
    again = run_campaign_point(plan=plan, seed=3, with_spans=True,
                               **FAST)
    assert json.dumps(result["spans"], sort_keys=True) == json.dumps(
        again["spans"], sort_keys=True)


def test_campaign_point_without_spans_shape_unchanged():
    result = run_campaign_point(plan="baseline", seed=1, **FAST)
    assert "spans" not in result


def test_sweep_aggregate_merges_span_digests():
    from repro.farm.results import STATUS_OK, RunResult, SweepResult
    from repro.farm.sweep import RunConfig
    from repro.obs.analyzers import LatencyDigest

    points = [
        run_campaign_point(plan="baseline", seed=seed, with_spans=True,
                           **FAST)
        for seed in (1, 2)
    ]
    runs = [
        RunResult(RunConfig("repro.farm.workloads:fault_campaign_run",
                            {"seed": seed}), STATUS_OK, value=value)
        for seed, value in enumerate(points)
    ]
    forward = SweepResult(runs).aggregate()
    backward = SweepResult(list(reversed(runs))).aggregate()
    # merged digests are order-insensitive and byte-identical
    assert json.dumps(forward["spans"], sort_keys=True) == json.dumps(
        backward["spans"], sort_keys=True)
    merged = forward["spans"]
    # counts add up across runs
    for task in ("t1", "t2", "t3"):
        merged_count = LatencyDigest.from_dict(
            merged["latency"]["response"][task]).count
        assert merged_count == sum(
            LatencyDigest.from_dict(
                p["spans"]["latency"]["response"][task]).count
            for p in points
        )
        assert merged["misses"]["tasks"][task]["jobs"] == sum(
            p["spans"]["misses"]["tasks"][task]["jobs"] for p in points
        )
    assert "percentiles" in merged
    assert merged["percentiles"]["response"]["t1"]["count"] > 0
