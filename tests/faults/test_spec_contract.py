"""The FaultSpec attribute contract, kind by kind.

A spec's fields read as attributes, equal to ``params[name]``; a field
of another kind, or an unknown name, raises ``AttributeError``.
Equality, the dict and JSON round trips, copies and pickles keep the
fields and ``params`` in agreement. The field tables below restate the
contract independently of the module's own tables.
"""

import copy
import pickle

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultPlanError, FaultSpec

#: every field of every kind, required ones first
FIELDS = {
    "exec_jitter": ("task", "scale", "offset", "prob", "start", "end"),
    "task_crash": ("task", "at"),
    "task_hang": ("task", "at"),
    "lost_notify": ("event", "prob", "start", "end"),
    "dup_notify": ("event", "prob", "start", "end"),
}

#: the smallest valid spec of each kind: only its required fields
REQUIRED = {
    "task_crash": {"task": "t1", "at": 2_000},
    "task_hang": {"task": "t2", "at": 1_500},
}

#: every field of each kind set to a value other than its default
EXPLICIT = {
    "exec_jitter": {"task": "t3", "scale": 1.6, "offset": -40, "prob": 0.37,
                    "start": 100, "end": 900},
    "task_crash": {"task": "t1", "at": 2_000},
    "task_hang": {"task": "t2", "at": 1_500},
    "lost_notify": {"event": "data", "prob": 0.0, "start": 5, "end": 5},
    "dup_notify": {"event": "ack", "prob": 1.0, "start": 7, "end": None},
}

#: the fields of each kind whose default is None ("any" or "no end"); no
#: other field accepts None
NONE_DEFAULTS = {
    "exec_jitter": ("task", "end"),
    "task_crash": (),
    "task_hang": (),
    "lost_notify": ("event", "end"),
    "dup_notify": ("event", "end"),
}

ALL_FIELDS = sorted({name for names in FIELDS.values() for name in names})

CASES = [
    pytest.param(kind, params, id=f"{kind}-{label}")
    for kind in sorted(FIELDS)
    for label, params in (("defaults", REQUIRED.get(kind, {})),
                          ("explicit", EXPLICIT[kind]))
]


def _clones(spec):
    yield "copy", copy.copy(spec)
    yield "deepcopy", copy.deepcopy(spec)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle{protocol}", pickle.loads(pickle.dumps(spec, protocol))


def _assert_fields_agree(spec, kind):
    assert sorted(spec.params) == sorted(FIELDS[kind])
    for name in FIELDS[kind]:
        assert getattr(spec, name) == spec.params[name], name
        assert hasattr(spec, name)


def test_tables_cover_every_kind():
    assert sorted(FIELDS) == sorted(FAULT_KINDS) == sorted(EXPLICIT)
    assert sorted(NONE_DEFAULTS) == sorted(FIELDS)


@pytest.mark.parametrize("kind,params", CASES)
def test_fields_of_the_kind_read_as_attributes(kind, params):
    spec = FaultSpec(kind, **params)
    assert spec.kind == kind
    _assert_fields_agree(spec, kind)
    for name, value in params.items():
        assert getattr(spec, name) == value


@pytest.mark.parametrize("kind,params", CASES)
def test_foreign_and_unknown_names_raise(kind, params):
    spec = FaultSpec(kind, **params)
    foreign = [name for name in ALL_FIELDS if name not in FIELDS[kind]]
    for name in foreign + ["nonexistent", "deadline", "_spent"]:
        with pytest.raises(AttributeError):
            getattr(spec, name)
        assert not hasattr(spec, name)


@pytest.mark.parametrize("kind,params", CASES)
def test_no_attribute_write_changes_or_adds_a_field(kind, params):
    spec = FaultSpec(kind, **params)
    before = dict(spec.params)
    for name in list(FIELDS[kind]) + ALL_FIELDS + ["nonexistent"]:
        with pytest.raises(AttributeError):
            setattr(spec, name, 1)
    assert spec.params == before
    _assert_fields_agree(spec, kind)


@pytest.mark.parametrize("kind,params", CASES)
def test_equality_and_dict_round_trip(kind, params):
    spec = FaultSpec(kind, **params)
    assert spec == FaultSpec(kind, **params)
    assert spec == FaultSpec(kind, **spec.params)
    again = FaultSpec.from_dict(spec.to_dict())
    assert again == spec
    _assert_fields_agree(again, kind)
    assert spec.to_dict() == {
        "kind": kind,
        **{k: v for k, v in spec.params.items() if v is not None},
    }
    other_kind = "task_hang" if kind != "task_hang" else "task_crash"
    assert spec != FaultSpec(other_kind, task="t2", at=1_500)
    assert spec != spec.to_dict()


def test_unequal_when_one_field_differs():
    base = FaultSpec("exec_jitter", **EXPLICIT["exec_jitter"])
    for name, value in (("task", "t1"), ("scale", 2.0), ("offset", 0),
                        ("prob", 1.0), ("start", 0), ("end", None)):
        changed = dict(EXPLICIT["exec_jitter"], **{name: value})
        assert FaultSpec("exec_jitter", **changed) != base, name


def test_plan_json_round_trip_of_every_kind():
    specs = [FaultSpec(kind, **params) for kind, params in
             [(k, REQUIRED.get(k, {})) for k in sorted(FIELDS)]
             + sorted(EXPLICIT.items())]
    plan = FaultPlan(specs)
    for again in (FaultPlan.from_json(plan.to_json()),
                  FaultPlan.from_dict(plan.to_dict())):
        assert again == plan
        assert again.to_json() == plan.to_json()
        for spec, original in zip(again, plan):
            assert spec == original
            _assert_fields_agree(spec, spec.kind)


@pytest.mark.parametrize("kind,params", CASES)
def test_copies_and_pickles_keep_fields_and_params_in_agreement(kind, params):
    spec = FaultSpec(kind, **params)
    for how, clone in _clones(spec):
        assert clone is not spec, how
        assert clone == spec, how
        assert clone.kind == kind, how
        _assert_fields_agree(clone, kind)
        for name in FIELDS[kind]:
            assert getattr(clone, name) == getattr(spec, name), (how, name)
        assert clone.to_dict() == spec.to_dict(), how
        with pytest.raises(AttributeError):
            clone.nonexistent


@pytest.mark.parametrize("kind,name", [
    pytest.param(kind, name, id=f"{kind}-{name}")
    for kind in sorted(FIELDS) for name in FIELDS[kind]
    if name not in NONE_DEFAULTS[kind]
])
def test_none_is_refused_where_it_is_not_the_default(kind, name):
    """A required field, or one whose default is a value, cannot be
    None: the spec would fail only later, at its first hook call or when
    armed, and ``to_dict`` would drop the None."""
    params = dict(EXPLICIT[kind], **{name: None})
    with pytest.raises(FaultPlanError, match=repr(name)):
        FaultSpec(kind, **params)
    with pytest.raises(FaultPlanError, match=repr(name)):
        FaultSpec.from_dict({"kind": kind, **params})


@pytest.mark.parametrize("kind,name", [
    pytest.param(kind, name, id=f"{kind}-{name}")
    for kind in sorted(FIELDS) for name in NONE_DEFAULTS[kind]
])
def test_none_is_accepted_where_it_is_the_default(kind, name):
    spec = FaultSpec(kind, **dict(EXPLICIT[kind], **{name: None}))
    assert getattr(spec, name) is None
    assert spec == FaultSpec(kind, **{k: v for k, v in EXPLICIT[kind].items()
                                      if k != name})
    assert FaultSpec.from_dict(spec.to_dict()) == spec
