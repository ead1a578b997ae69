"""Analysis package: trace queries, Gantt, validation, LoC, VCD."""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.analysis import (
    completion_time,
    exec_segments,
    exec_time_per_actor,
    exec_time_preserved,
    first_start,
    mark_time,
    overlap_exists,
    render_gantt,
    response_latencies,
    same_functional_marks,
    serialized,
)
from repro.analysis.loc import count_source_lines, module_loc
from repro.analysis.vcd import to_vcd
from repro.kernel import Trace


@pytest.fixture
def trace():
    t = Trace()
    t.segment("a", 0, 10)
    t.segment("b", 10, 30)
    t.segment("a", 30, 35)
    t.record(5, "user", "a", "hello")
    t.record(12, "irq", "bus", "raise")
    t.record(20, "user", "b", "served")
    return t


def test_exec_segments_merge():
    t = Trace()
    t.segment("a", 0, 10)
    t.segment("a", 10, 20)
    t.segment("a", 25, 30)
    merged = exec_segments(t, "a", merge=True)
    assert merged == [("a", 0, 20, "run"), ("a", 25, 30, "run")]


def test_exec_time_and_completion(trace):
    totals = exec_time_per_actor(trace)
    assert totals == {"a": 15, "b": 20}
    assert completion_time(trace, "a") == 35
    assert first_start(trace, "b") == 10
    assert completion_time(trace, "missing") is None


def test_mark_time_and_occurrence(trace):
    assert mark_time(trace, "hello") == 5
    with pytest.raises(ValueError):
        mark_time(trace, "hello", occurrence=1)


def test_response_latencies(trace):
    assert response_latencies(trace, "bus", "served") == [8]


def test_overlap_and_serialized(trace):
    assert not overlap_exists(trace, "a", "b")
    assert serialized(trace, ["a", "b"])
    trace.segment("c", 8, 12)
    assert overlap_exists(trace, "a", "c")
    assert not serialized(trace, ["a", "b", "c"])


def test_same_functional_marks():
    t1, t2 = Trace(), Trace()
    t1.record(1, "user", "x", "m1")
    t1.record(2, "user", "x", "m2")
    t2.record(10, "user", "x", "m1")
    t2.record(30, "user", "x", "m2")
    assert same_functional_marks(t1, t2)
    t2.record(40, "user", "x", "m3")
    assert not same_functional_marks(t1, t2)


def test_exec_time_preserved(trace):
    other = Trace()
    other.segment("a", 100, 115)
    other.segment("b", 115, 135)
    assert exec_time_preserved(trace, other, ["a", "b"])
    other.segment("b", 200, 201)
    assert not exec_time_preserved(trace, other, ["a", "b"])


def test_gantt_renders_rows(trace):
    art = render_gantt(trace, width=35)
    lines = art.splitlines()
    assert lines[0].startswith("a ")
    assert "#" in lines[0]
    assert "35" in lines[2]  # axis end


def test_gantt_empty():
    assert render_gantt(Trace()) == "(empty trace)"


def test_gantt_axis_writes_the_end_label_only_where_it_fits():
    # the end time 850 needs three cells: a narrower axis used to raise
    # IndexError (width 1) or wrap the label into "58" (width 2)
    t = Trace()
    t.segment("a", 0, 850)

    def axis(width):
        return render_gantt(t, width=width).splitlines()[-1].split("|")[1]

    assert [len(axis(width)) for width in (1, 2)] == [1, 2]
    assert "8" not in axis(1) + axis(2)
    assert axis(3) == "850"


def test_gantt_markers(trace):
    art = render_gantt(trace, width=35, markers={"t4": 12})
    assert "t4=12" in art
    assert "^" in art


def test_count_source_lines():
    text = "# comment\n\ncode = 1  # trailing\n; asm comment\n  more()\n"
    assert count_source_lines(text) == 2


def test_module_loc_positive():
    import repro.analysis.vcd as vcd_module

    assert module_loc(vcd_module) > 20


def test_table1_loc_does_not_depend_on_what_was_imported():
    """Table 1's model sizes count files on disk: a fresh interpreter
    and a process that imported every ``repro`` module agree."""
    from repro.apps.vocoder.table1 import model_loc

    src = pathlib.Path(repro.__file__).resolve().parent.parent
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import json\n"
         "from repro.apps.vocoder.table1 import model_loc\n"
         "print(json.dumps(model_loc()))"],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    assert model_loc() == json.loads(fresh.stdout)


# ---------------------------------------------------------------------------
# VCD export
# ---------------------------------------------------------------------------


def test_vcd_structure(trace):
    doc = to_vcd(trace)
    assert "$timescale 1 ns $end" in doc
    assert "$var wire 1 ! a $end" in doc
    assert "$var wire 1 \" b $end" in doc
    assert "$enddefinitions $end" in doc
    # a rises at 0, falls at 10; b rises at 10, falls at 30
    assert "#0\n1!" in doc
    assert "#10\n0!\n1\"" in doc
    block_30 = doc.split("#30\n", 1)[1].split("#", 1)[0]
    assert "0\"" in block_30  # b falls at 30 (a also rises there)


def test_vcd_roundtrip_parse(trace):
    """Parse our own VCD back and check the toggle sequence."""
    doc = to_vcd(trace)
    time = None
    toggles = []
    for line in doc.splitlines():
        if line.startswith("#"):
            time = int(line[1:])
        elif time is not None and line and line[0] in "01":
            toggles.append((time, line[1:], int(line[0])))
    assert (0, "!", 1) in toggles
    assert (35, "!", 0) in toggles
    rises = [t for t, ident, v in toggles if ident == "!" and v == 1]
    falls = [t for t, ident, v in toggles if ident == "!" and v == 0]
    assert rises == [0, 30]
    assert falls == [10, 35]


def test_vcd_write(tmp_path, trace):
    from repro.analysis.vcd import write_vcd

    path = write_vcd(trace, tmp_path / "trace.vcd")
    assert path.read_text().startswith("$date")


def _toggles(doc):
    """(time, ident, value) triples from a VCD body, in emission order."""
    time = None
    toggles = []
    for line in doc.splitlines():
        if line.startswith("#"):
            time = int(line[1:])
        elif time is not None and line and line[0] in "01":
            toggles.append((time, line[1:], int(line[0])))
    return toggles


def test_vcd_zero_width_segment_never_sticks_high():
    """A zero-width segment must not emit edges (and must not leave the
    wire stuck high)."""
    t = Trace()
    t.segment("a", 5, 5)
    toggles = _toggles(to_vcd(t, actors=["a"]))
    assert toggles == []


def test_vcd_back_to_back_segments_stay_high():
    """Adjacent segments of one actor merge: no glitch at the boundary."""
    t = Trace()
    t.segment("a", 0, 5)
    t.segment("a", 5, 10)
    toggles = _toggles(to_vcd(t, actors=["a"]))
    assert toggles == [(0, "!", 1), (10, "!", 0)]


def test_vcd_falling_edges_before_rising_at_same_time():
    """At a handover instant the leaving wire falls before the entering
    wire rises, so no reader ever sees both high."""
    t = Trace()
    t.segment("a", 0, 10)
    t.segment("b", 10, 20)
    toggles = _toggles(to_vcd(t, actors=["a", "b"]))
    at_10 = [(ident, value) for time, ident, value in toggles if time == 10]
    assert at_10 == [("!", 0), ('"', 1)]


def test_vcd_zero_width_at_handover_instant():
    """A zero-width segment coinciding with a handover adds nothing."""
    t = Trace()
    t.segment("a", 0, 10)
    t.segment("c", 10, 10)
    t.segment("b", 10, 20)
    toggles = _toggles(to_vcd(t, actors=["a", "b", "c"]))
    assert [(time, value) for time, ident, value in toggles
            if ident == "#"] == []  # "c" (third ident) never toggles
    at_10 = [(ident, value) for time, ident, value in toggles if time == 10]
    assert at_10 == [("!", 0), ('"', 1)]


def test_vcd_overlapping_segments_single_pulse():
    """Overlapping segments of one actor form one continuous high."""
    t = Trace()
    t.segment("a", 0, 10)
    t.segment("a", 5, 15)
    toggles = _toggles(to_vcd(t, actors=["a"]))
    assert toggles == [(0, "!", 1), (15, "!", 0)]


def test_vcd_from_real_model():
    from repro.apps.fig3 import run_architecture

    result = run_architecture()
    doc = to_vcd(result.trace, actors=["Task_PE", "B2", "B3"])
    assert "Task_PE" in doc
    assert doc.count("#") > 5
