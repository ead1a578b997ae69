"""FaultPlan / FaultSpec: validation, access, JSON round trips."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    resolve_plan,
)


# ----------------------------------------------------------------------
# spec construction + validation
# ----------------------------------------------------------------------

def test_spec_defaults_and_attribute_access():
    spec = FaultSpec("exec_jitter", scale=1.5)
    assert spec.kind == "exec_jitter"
    assert spec.scale == 1.5
    assert spec.task is None  # optional default
    assert spec.prob == 1.0
    assert spec.start == 0 and spec.end is None


def test_spec_unknown_attribute_raises():
    spec = FaultSpec("exec_jitter")
    with pytest.raises(AttributeError):
        spec.nonexistent


@pytest.mark.parametrize("kind,params,fragment", [
    ("no_such_kind", {}, "unknown fault kind"),
    ("exec_jitter", {"bogus": 1}, "unknown field"),
    ("task_crash", {"task": "t1"}, "missing required field 'at'"),
    ("task_crash", {"at": 10}, "missing required field 'task'"),
    ("exec_jitter", {"prob": 1.5}, "prob must be in [0, 1]"),
    ("exec_jitter", {"prob": -0.1}, "prob must be in [0, 1]"),
    ("exec_jitter", {"scale": -1}, "scale must be >= 0"),
    ("exec_jitter", {"start": 100, "end": 50}, "precedes start"),
    ("task_crash", {"task": "t1", "at": -5}, "at must be >= 0"),
])
def test_spec_validation_errors(kind, params, fragment):
    with pytest.raises(FaultPlanError) as excinfo:
        FaultSpec(kind, **params)
    assert fragment in str(excinfo.value)


def test_in_window():
    spec = FaultSpec("exec_jitter", start=100, end=200)
    assert not spec.in_window(99)
    assert spec.in_window(100)
    assert spec.in_window(200)
    assert not spec.in_window(201)
    open_ended = FaultSpec("exec_jitter", start=50)
    assert open_ended.in_window(10**12)


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------

def test_plan_accepts_specs_and_dicts():
    plan = FaultPlan([
        {"kind": "exec_jitter", "scale": 1.3},
        FaultSpec("task_crash", task="t1", at=100),
    ])
    assert len(plan) == 2
    assert bool(plan)
    assert [s.kind for s in plan] == ["exec_jitter", "task_crash"]
    assert plan.of_kind("task_crash")[0].task == "t1"
    assert plan.of_kind("task_hang") == ()


def test_empty_plan_is_falsy():
    assert not FaultPlan()
    assert len(FaultPlan()) == 0


def test_plan_rejects_non_spec_entries():
    with pytest.raises(FaultPlanError):
        FaultPlan(["exec_jitter"])


def test_plan_json_round_trip():
    plan = FaultPlan([
        {"kind": "exec_jitter", "task": "t3", "scale": 1.6, "prob": 0.5},
        {"kind": "task_crash", "task": "t1", "at": 2_000_000},
        {"kind": "lost_notify", "event": "e", "start": 100, "end": 200},
    ])
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    # a bare list is accepted too
    assert FaultPlan.from_dict(plan.to_dict()["faults"]) == plan


def test_plan_from_bad_json():
    with pytest.raises(FaultPlanError):
        FaultPlan.from_json("{nope")
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict({"wrong_key": []})
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict({"faults": [{"scale": 2.0}]})  # no kind


def test_fault_kinds_is_sorted_and_complete():
    assert FAULT_KINDS == ("dup_notify", "exec_jitter", "lost_notify",
                           "task_crash", "task_hang")


#: the interrupt and channel kinds, which no fault plan may name: a fault
#: acts through the RTOS model only
REFUSED_KINDS = ("drop_irq", "spurious_irq", "stuck_channel", "slow_channel")


@pytest.mark.parametrize("kind", REFUSED_KINDS)
def test_interrupt_and_channel_kinds_are_refused(kind):
    for build in (lambda: FaultSpec(kind),
                  lambda: FaultPlan([{"kind": kind}]),
                  lambda: FaultPlan.from_json(f'[{{"kind": "{kind}"}}]'),
                  lambda: resolve_plan(f'[{{"kind": "{kind}", "prob": 1.0}}]'),
                  lambda: resolve_plan([{"kind": kind}])):
        with pytest.raises(FaultPlanError, match=f"unknown fault kind '{kind}'"):
            build()
