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
from repro.farm.__main__ import build_parser, main as farm_main

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
    assert all(label.startswith("run_campaign_point(") for label in labels)


@pytest.mark.parametrize("argv,kind", [
    (["campaign", "--plans", '[{"kind":"stuck_channel"}]'], "stuck_channel"),
    (["mc", "--plan", '[{"kind": "drop_irq", "prob": 1.0}]'], "drop_irq"),
])
def test_cli_refuses_a_plan_with_an_interrupt_or_channel_kind(
        capsys, argv, kind):
    """Plans act through the RTOS model only; such a plan used to run
    every point with nothing injected."""
    assert farm_main(argv + ["--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert f"unknown fault kind '{kind}'" in captured.err
    assert captured.out == ""  # no sweep was started


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


def test_campaign_plans_flag_takes_one_inline_plan_or_a_preset_list():
    parser = build_parser()
    inline = '[{"kind":"exec_jitter","scale":1.5}]'
    assert parser.parse_args(["campaign", "--plans", inline]).plans == [
        inline]
    assert parser.parse_args(
        ["campaign", "--plans", "baseline,crash"]).plans == [
        "baseline", "crash"]


def test_campaign_cli_runs_an_inline_plan_with_several_fields(
        tmp_path, capsys):
    # the plan's own commas used to split it into invalid JSON (exit 2)
    report_path = tmp_path / "report.json"
    code = farm_main([
        "campaign", "--plans", '[{"kind":"exec_jitter","scale":1.5}]',
        "--seeds", "1", "--sched", "priority", "--horizon", "1000000",
        "--jobs", "1", "--quiet", "--report", str(report_path),
    ])
    assert code == 0
    assert "1 runs, 1 ok" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["campaign"]["total_faults_injected"] > 0


def test_campaign_cli_unknown_plan_exits_2(capsys):
    code = farm_main([
        "campaign", "--plans", "bogus", "--jobs", "1",
    ])
    assert code == 2
    assert "invalid sweep configuration" in capsys.readouterr().err


# ----------------------------------------------------------------------
# result shape
# ----------------------------------------------------------------------

def test_campaign_point_without_spans_shape_unchanged():
    result = run_campaign_point(plan="baseline", seed=1, **FAST)
    assert "spans" not in result
