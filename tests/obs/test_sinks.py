"""Trace sink layer: golden equivalence, JSONL round trip, tee."""

import pytest

from repro.kernel.trace import ListSink, Trace, TraceRecord
from repro.obs.sinks import (
    BUFFER_RECORDS,
    JsonlSink,
    TeeSink,
    dumps_record,
    iter_jsonl,
    load_jsonl,
    obj_to_record,
    record_to_obj,
)
from tests.integration.test_golden_traces import GOLDEN_DIR, format_trace


def _fill(trace, n=5):
    for i in range(n):
        trace.record(i * 10, "user", "a", f"mark{i}", step=i)
    trace.segment("a", 0, n * 10)


# ----------------------------------------------------------------------
# golden equivalence through the sink layer
# ----------------------------------------------------------------------

def test_golden_trace_identical_through_explicit_sink():
    """Routing the recorder through an explicit ListSink must be
    bit-identical to the golden recording of the default path."""
    from repro.apps.fig3 import run_unscheduled

    trace = Trace(sink=ListSink())
    result = run_unscheduled(trace=trace)
    assert result.trace is trace
    expected = (GOLDEN_DIR / "fig3_unscheduled.trace").read_text()
    assert format_trace(trace) == expected


def test_golden_trace_identical_through_jsonl_roundtrip(tmp_path):
    """Streaming to JSONL and reloading reproduces the golden timeline."""
    from repro.apps.fig3 import run_architecture

    path = tmp_path / "arch.jsonl"
    trace = Trace(sink=TeeSink(ListSink(), JsonlSink(path)))
    run_architecture(trace=trace)
    trace.close()

    expected = (GOLDEN_DIR / "fig3_architecture.trace").read_text()
    assert format_trace(trace) == expected
    reloaded = load_jsonl(path)
    assert format_trace(reloaded) == expected


# ----------------------------------------------------------------------
# JSONL codec + sink
# ----------------------------------------------------------------------

def test_jsonl_record_codec_roundtrip():
    record = TraceRecord(42, "user", "B2", "mark", {"k": 1, "s": "x"})
    assert obj_to_record(record_to_obj(record)) == record


def test_jsonl_codec_stringifies_non_json_payload():
    class Opaque:
        def __str__(self):
            return "<opaque>"

    record = TraceRecord(1, "user", "a", "m", {"obj": Opaque()})
    line = dumps_record(record)
    assert "<opaque>" in line


def test_jsonl_sink_streams_and_reloads(tmp_path):
    path = tmp_path / "t.jsonl"
    trace = Trace(sink=JsonlSink(path))
    _fill(trace)
    trace.flush()
    # streaming sink keeps nothing in memory
    assert len(trace.records) == 0
    records = list(iter_jsonl(path))
    assert len(records) == 6
    assert records[0] == TraceRecord(0, "user", "a", "mark0", {"step": 0})

    reloaded = load_jsonl(path)
    assert reloaded.segments() == [("a", 0, 50, "run")]
    assert reloaded.count("user") == 5
    trace.close()


def test_jsonl_sink_as_context_manager(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(TraceRecord(0, "user", "a", "inside", {}))
    assert [r.info for r in iter_jsonl(path)] == ["inside"]


def test_jsonl_sink_emit_after_close_raises(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    sink.emit(TraceRecord(0, "user", "a", "m", {}))
    sink.close()
    with pytest.raises(RuntimeError, match="closed JsonlSink"):
        sink.emit(TraceRecord(1, "user", "a", "m", {}))
    # close() stays idempotent and the file keeps the pre-close records
    sink.close()
    assert len(list(iter_jsonl(path))) == 1


def test_jsonl_sink_clear_truncates_file(tmp_path):
    path = tmp_path / "t.jsonl"
    trace = Trace(sink=JsonlSink(path))
    _fill(trace)
    trace.clear()
    trace.record(7, "user", "a", "after-clear")
    trace.close()
    records = list(iter_jsonl(path))
    assert [r.info for r in records] == ["after-clear"]


# ----------------------------------------------------------------------
# tee + sink swapping
# ----------------------------------------------------------------------

def test_tee_sink_fans_out(tmp_path):
    memory = ListSink()
    second = ListSink()
    trace = Trace(sink=TeeSink(memory, second))
    _fill(trace)
    assert len(memory.records) == 6
    assert list(second.records) == list(memory.records)
    # query layer reads the first sink
    assert trace.segments() == [("a", 0, 50, "run")]


def test_tee_sink_requires_a_sink():
    with pytest.raises(ValueError):
        TeeSink()


def test_sink_setter_rebinds_emit():
    trace = Trace()
    trace.record(0, "user", "a", "before")
    replacement = ListSink()
    trace.sink = replacement
    trace.record(1, "user", "a", "after")
    assert [r.info for r in trace.records] == ["after"]
    assert trace.sink is replacement


# ----------------------------------------------------------------------
# clear() / enabled interaction
# ----------------------------------------------------------------------

def test_clear_keeps_tracing_off():
    trace = Trace()
    trace.record(0, "user", "a", "kept")
    trace.enabled = False
    trace.clear()
    assert not trace.enabled and not trace.on
    trace.record(1, "user", "a", "dropped")
    trace.segment("a", 0, 1)
    assert len(trace) == 0
    trace.enabled = True
    trace.record(2, "user", "a", "recorded")
    assert [r.info for r in trace.records] == ["recorded"]


def test_disabled_trace_skips_all_sinks(tmp_path):
    path = tmp_path / "t.jsonl"
    trace = Trace(sink=TeeSink(ListSink(), JsonlSink(path)))
    trace.enabled = False
    trace.record(0, "user", "a", "dropped")
    trace.segment("a", 0, 10)
    trace.close()
    assert len(trace.records) == 0
    assert path.read_text() == ""


# ----------------------------------------------------------------------
# write batching + truncated-tail tolerance (PR-9)
# ----------------------------------------------------------------------

def test_jsonl_sink_batches_writes(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    for i in range(BUFFER_RECORDS - 1):
        sink.emit(TraceRecord(i, "user", "a", f"m{i}", {}))
    # below the batch threshold nothing has reached the file yet
    assert path.read_text() == ""
    sink.emit(TraceRecord(BUFFER_RECORDS, "user", "a", "full", {}))
    # a full batch is one write
    assert len(path.read_text().splitlines()) == BUFFER_RECORDS
    sink.emit(TraceRecord(BUFFER_RECORDS + 1, "user", "a", "next", {}))
    sink.flush()  # mid-batch flush pushes everything buffered
    assert len(path.read_text().splitlines()) == BUFFER_RECORDS + 1
    sink.emit(TraceRecord(BUFFER_RECORDS + 2, "user", "a", "last", {}))
    sink.close()  # close flushes the remainder
    assert len(list(iter_jsonl(path))) == BUFFER_RECORDS + 2
    assert sink.emitted == BUFFER_RECORDS + 2


def test_jsonl_sink_close_flushes_partial_batch(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(path) as sink:
        sink.emit(TraceRecord(0, "user", "a", "only", {}))
    assert [r.info for r in iter_jsonl(path)] == ["only"]


def test_jsonl_sink_clear_drops_buffered_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    sink.emit(TraceRecord(0, "user", "a", "buffered", {}))
    sink.clear()
    sink.emit(TraceRecord(1, "user", "a", "kept", {}))
    sink.close()
    assert [r.info for r in iter_jsonl(path)] == ["kept"]


# ----------------------------------------------------------------------
# the run-end flush
# ----------------------------------------------------------------------

class _EmitOnly:
    """A duck-typed sink: ``emit`` and nothing else."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _ticker(sim, trace, steps=3):
    from repro.kernel import WaitFor

    def body():
        for i in range(steps):
            trace.record(sim.now, "user", "tick", f"t{i}")
            yield WaitFor(10)

    sim.spawn(body(), name="tick")


@pytest.mark.parametrize("until", [None, 15])
def test_run_flushes_the_sink_on_both_return_paths(tmp_path, until):
    from repro.kernel import Simulator

    path = tmp_path / "t.jsonl"
    trace = Trace(sink=JsonlSink(path))
    sim = Simulator(trace=trace)
    _ticker(sim, trace)
    sim.run(until=until)
    # buffered lines reached the file when run returned, not on close
    expected = ["t0", "t1"] if until == 15 else ["t0", "t1", "t2"]
    assert [r.info for r in iter_jsonl(path)] == expected
    trace.close()


def test_run_flushes_the_sink_before_reporting_a_deadlock(tmp_path):
    from repro.kernel import DeadlockError, Event, Simulator, Wait

    path = tmp_path / "t.jsonl"
    trace = Trace(sink=JsonlSink(path))
    sim = Simulator(trace=trace)
    never = Event("never")

    def stuck():
        trace.record(sim.now, "user", "stuck", "waiting")
        yield Wait(never)

    sim.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError):
        sim.run(check_deadlock=True)
    assert [r.info for r in iter_jsonl(path)] == ["waiting"]
    trace.close()


def test_sinks_that_define_only_emit_still_work(tmp_path):
    from repro.kernel import Simulator

    bare = _EmitOnly()
    trace = Trace(sink=bare)
    sim = Simulator(trace=trace)
    _ticker(sim, trace)
    sim.run()  # the run-end flush skips a sink without flush()
    trace.flush()
    assert [r.info for r in bare.records] == ["t0", "t1", "t2"]
    # a tee flushes the branches that can be flushed and skips the rest
    path = tmp_path / "t.jsonl"
    tee_bare = _EmitOnly()
    trace = Trace(sink=TeeSink(tee_bare, JsonlSink(path)))
    sim = Simulator(trace=trace)
    _ticker(sim, trace)
    sim.run()
    assert [r.info for r in iter_jsonl(path)] == ["t0", "t1", "t2"]
    assert len(tee_bare.records) == 3
    trace.sink.sinks[1].close()


def test_flush_after_close_is_a_no_op(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl")
    sink.emit(TraceRecord(0, "user", "a", "only", {}))
    sink.close()
    sink.flush()
    assert [r.info for r in iter_jsonl(tmp_path / "t.jsonl")] == ["only"]


def test_iter_jsonl_tolerates_truncated_final_line(tmp_path):
    path = tmp_path / "cut.jsonl"
    full = dumps_record(TraceRecord(0, "user", "a", "ok", {}))
    # a killed run cuts the last line mid-record, no trailing newline
    path.write_text(full + "\n" + full[: len(full) // 2])
    records = list(iter_jsonl(path))
    assert [r.info for r in records] == ["ok"]
    with pytest.raises(ValueError):
        list(iter_jsonl(path, strict=True))
    with pytest.raises(ValueError):
        load_jsonl(path, strict=True)
    assert load_jsonl(path).count("user") == 1


def test_iter_jsonl_rejects_complete_garbage_line(tmp_path):
    # a newline-terminated non-JSON line is corruption, not truncation
    path = tmp_path / "bad.jsonl"
    path.write_text("this is not json\n")
    with pytest.raises(ValueError):
        list(iter_jsonl(path))


def test_iter_jsonl_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "mid.jsonl"
    good = dumps_record(TraceRecord(0, "user", "a", "ok", {}))
    path.write_text(good + "\nnot-json\n" + good + "\n")
    with pytest.raises(ValueError):
        list(iter_jsonl(path))
