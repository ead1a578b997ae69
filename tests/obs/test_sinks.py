"""Trace sink layer: golden equivalence, JSONL round trip, ring buffer."""

import pytest

from repro.kernel.trace import ListSink, Trace, TraceRecord, _noop
from repro.obs.sinks import (
    JsonlSink,
    RingBufferSink,
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


@pytest.mark.parametrize("bad", [None, "many"])
def test_jsonl_sink_bad_buffer_size_leaves_file_alone(tmp_path, monkeypatch,
                                                     bad):
    """A bad ``buffer_records`` raises before the file is opened: an
    existing file keeps its bytes and no handle is left open."""
    import repro.obs.sinks as sinks

    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"keep": 1}\n')
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(sinks, "open", spy_open, raising=False)
    with pytest.raises((TypeError, ValueError)):
        JsonlSink(path, buffer_records=bad)
    assert path.read_bytes() == b'{"keep": 1}\n'
    assert opened == []


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------

def test_ring_buffer_evicts_oldest():
    sink = RingBufferSink(capacity=5)
    trace = Trace(sink=sink)
    for i in range(12):
        trace.record(i, "user", "a", f"m{i}")
    assert sink.emitted == 12
    assert sink.evicted == 7
    assert [r.info for r in trace.records] == [f"m{i}" for i in range(7, 12)]


def test_ring_buffer_clear_resets_counts():
    sink = RingBufferSink(capacity=2)
    sink.emit(TraceRecord(0, "user", "a", "x", {}))
    sink.emit(TraceRecord(1, "user", "a", "y", {}))
    sink.emit(TraceRecord(2, "user", "a", "z", {}))
    sink.clear()
    assert sink.emitted == 0
    assert sink.evicted == 0
    assert len(sink.records) == 0


def test_ring_buffer_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(0)


# ----------------------------------------------------------------------
# tee + sink swapping
# ----------------------------------------------------------------------

def test_tee_sink_fans_out(tmp_path):
    memory = ListSink()
    ring = RingBufferSink(capacity=3)
    trace = Trace(sink=TeeSink(memory, ring))
    _fill(trace)
    assert len(memory.records) == 6
    assert len(ring.records) == 3
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
# clear() / enabled interaction (the PR-1 no-op swap invariant)
# ----------------------------------------------------------------------

def test_clear_preserves_disabled_noop_swap():
    trace = Trace()
    trace.record(0, "user", "a", "kept")
    trace.enabled = False
    trace.clear()
    assert trace.record is _noop
    assert trace.segment is _noop
    trace.record(1, "user", "a", "dropped")
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
    sink = JsonlSink(path, buffer_records=4)
    for i in range(3):
        sink.emit(TraceRecord(i, "user", "a", f"m{i}", {}))
    # below the batch threshold nothing has reached the file yet
    assert path.read_text() == ""
    sink.emit(TraceRecord(4, "user", "a", "m4", {}))
    sink.flush()  # mid-batch flush pushes everything buffered
    assert len(path.read_text().splitlines()) == 4
    sink.emit(TraceRecord(5, "user", "a", "m5", {}))
    sink.close()  # close flushes the remainder
    assert len(list(iter_jsonl(path))) == 5
    assert sink.emitted == 5


def test_jsonl_sink_close_flushes_partial_batch(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlSink(path, buffer_records=100) as sink:
        sink.emit(TraceRecord(0, "user", "a", "only", {}))
    assert [r.info for r in iter_jsonl(path)] == ["only"]


def test_jsonl_sink_clear_drops_buffered_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path, buffer_records=100)
    sink.emit(TraceRecord(0, "user", "a", "buffered", {}))
    sink.clear()
    sink.emit(TraceRecord(1, "user", "a", "kept", {}))
    sink.close()
    assert [r.info for r in iter_jsonl(path)] == ["kept"]


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
