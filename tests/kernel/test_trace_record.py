"""The ``TraceRecord`` contract every sink, analyzer and exporter reads."""

import copy
import pickle

import pytest

from repro.kernel.trace import Trace, TraceRecord
from repro.obs.sinks import obj_to_record, record_to_obj


def test_fields_order_and_defaults():
    record = TraceRecord(7, "user", "B2")
    assert TraceRecord.__match_args__ == ("time", "category", "actor",
                                          "info", "data")
    assert (record.time, record.category, record.actor) == (7, "user", "B2")
    assert record.info == ""
    assert record.data == {}


def test_omitted_data_is_a_fresh_dict_per_record():
    first, second = TraceRecord(0, "user", "a"), TraceRecord(0, "user", "a")
    first.data["k"] = 1
    assert second.data == {}
    trace = Trace()
    trace.record(0, "user", "a")
    trace.record(0, "user", "a")
    assert trace.records[0].data is not trace.records[1].data


def test_recorded_fields():
    trace = Trace()
    trace.record(3, "sched", "os", "dispatch", task="T1")
    trace.segment("T1", 1, 3)
    assert trace.records == [
        TraceRecord(3, "sched", "os", "dispatch", {"task": "T1"}),
        TraceRecord(3, "exec", "T1", "run", {"start": 1, "end": 3}),
    ]


def test_str_and_repr():
    record = TraceRecord(42, "user", "B2", "mark", {"k": 1})
    assert str(record) == "[        42] user   B2               mark {'k': 1}"
    assert str(TraceRecord(5, "task", "T1", "activate")) == (
        "[         5] task   T1               activate")
    assert repr(record) == ("TraceRecord(time=42, category='user', "
                            "actor='B2', info='mark', data={'k': 1})")


@pytest.mark.parametrize("name", ["time", "category", "actor", "info",
                                  "data"])
def test_assignment_raises(name):
    record = TraceRecord(1, "user", "a")
    with pytest.raises(AttributeError):
        setattr(record, name, 2)


def test_equality():
    record = TraceRecord(1, "user", "a", "m", {"k": 1})
    assert record == TraceRecord(1, "user", "a", "m", {"k": 1})
    assert not record != TraceRecord(1, "user", "a", "m", {"k": 1})
    assert record != TraceRecord(1, "user", "a", "m", {"k": 2})
    plain = (1, "user", "a", "m", {"k": 1})
    assert record != plain and plain != record
    assert not record == plain and not plain == record


@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)),
    lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
    copy.copy,
    copy.deepcopy,
    lambda r: obj_to_record(record_to_obj(r)),
], ids=["pickle", "pickle0", "copy", "deepcopy", "jsonl-codec"])
def test_round_trips(clone):
    record = TraceRecord(9, "exec", "T1", "run", {"start": 2, "end": 9})
    again = clone(record)
    assert again == record
    assert type(again) is TraceRecord
