"""MC ablation campaign: workload, sweep spec, determinism, farm CLI.

``python -m repro.farm mc`` sweeps (sched x degrade x MC-on/off x seed)
over ``MC_TASK_SET`` (in ``repro.faults.campaign``) under the seeded
``overrun_storm`` plan. The contract the CI ``mc-smoke`` job gates on:
the armed controller shields every HI deadline the unprotected
baseline drops, and the deterministic campaign report is byte-identical
across runs.
"""

import json

import pytest

from repro.faults import (
    PLAN_PRESETS,
    mc_campaign_run,
    mc_campaign_spec,
    resolve_plan,
)
from repro.faults.campaign import MC_TASK_SET
from repro.farm import run_sweep
from repro.farm.__main__ import main as farm_main


def test_overrun_storm_preset_targets_the_mc_task_set():
    plan = resolve_plan("overrun_storm")
    names = {name for name, *_ in MC_TASK_SET}
    assert {spec.task for spec in plan.of_kind("exec_jitter")} <= names
    assert "overrun_storm" in PLAN_PRESETS


def test_mc_point_shields_hi_deadlines():
    armed = mc_campaign_run(seed=1, with_mc=True)
    baseline = mc_campaign_run(seed=1, with_mc=False)
    assert armed["hi_misses"] == 0
    assert baseline["hi_misses"] >= 1
    assert armed["mode_raises"] >= 1
    assert armed["mode"] == "HI"        # sticky raise by default
    assert baseline["mode"] is None     # controller unarmed
    assert armed["jobs_degraded"] >= 1
    assert baseline["jobs_degraded"] == 0


def test_hi_lo_miss_split_follows_criticality_not_list_order():
    """The baseline's one miss is the HI task's however the set is
    listed (the split once took the first entry as the base level)."""
    listed = mc_campaign_run(seed=1, with_mc=False)
    reordered = mc_campaign_run(seed=1, with_mc=False,
                                task_set=tuple(reversed(MC_TASK_SET)))
    for result in (listed, reordered):
        assert (result["hi_misses"], result["lo_misses"]) == (1, 0)


def test_mc_point_is_reproducible():
    a = mc_campaign_run(seed=3, degrade="skip")
    b = mc_campaign_run(seed=3, degrade="skip")
    assert a == b


@pytest.mark.parametrize("degrade", ["drop", "skip", "elastic"])
def test_mc_point_runs_every_policy(degrade):
    result = mc_campaign_run(seed=1, degrade=degrade)
    assert result["degrade"] == degrade
    assert result["hi_misses"] == 0
    assert result["survival"] == 1.0


def test_mc_point_recovery_window_steps_back_down():
    sticky = mc_campaign_run(seed=1, degrade="drop")
    healing = mc_campaign_run(seed=1, degrade="drop",
                              recovery_window=1_500_000)
    assert sticky["mode_recoveries"] == 0
    assert healing["mode_recoveries"] >= 1


def test_mc_spec_is_the_full_cross_product():
    spec = mc_campaign_spec(seeds=(1, 2), degrades=("drop", "skip"),
                            scheds=("priority",))
    configs = spec.expand()
    # 1 sched x 2 degrades x 2 (with/without MC) x 2 seeds
    assert len(configs) == 8
    assert all(
        c.target == "repro.faults.campaign:mc_campaign_run" for c in configs
    )


def test_mc_spec_validates_plan_eagerly():
    with pytest.raises(Exception, match="unknown fault-plan preset"):
        mc_campaign_spec(plan="nosuchplan")


def test_mc_sweep_report_is_byte_identical(tmp_path):
    from repro.faults import write_campaign_report

    spec = mc_campaign_spec(seeds=(1,), degrades=("drop",))

    def render(path):
        result = run_sweep(spec, processes=1)
        assert not result.failed
        return write_campaign_report(result, path)

    first = render(tmp_path / "a.json")
    second = render(tmp_path / "b.json")
    assert first == second
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_mc_cli_writes_report(tmp_path, capsys):
    report_path = tmp_path / "mc_report.json"
    code = farm_main([
        "mc", "--seeds", "1", "--degrade", "drop", "--jobs", "1",
        "--quiet", "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["campaign"]["failed"] == 0
    results = [p["result"] for p in report["points"]]
    shielded = [r for r in results if r["with_mc"]]
    unshielded = [r for r in results if not r["with_mc"]]
    assert all(r["hi_misses"] == 0 for r in shielded)
    assert any(r["hi_misses"] > 0 for r in unshielded)
