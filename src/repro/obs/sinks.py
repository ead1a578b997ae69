"""Pluggable trace sinks beyond the in-memory default.

The sink *protocol* (:class:`~repro.kernel.trace.TraceSink`) and the
default in-memory :class:`~repro.kernel.trace.ListSink` live in the
kernel — the bottom layer stays self-contained. This module adds the
sinks that make observability scale past toy runs and re-exports the
kernel pair so ``repro.obs`` is the one-stop import:

:class:`JsonlSink`
    a streaming JSON-lines file writer: O(1) memory regardless of trace
    length; :func:`load_jsonl` reloads the file into an in-memory trace
    for the analysis/export tooling.
:class:`TeeSink`
    fans one record stream out to several sinks (e.g. keep an in-memory
    view for queries *and* stream to disk).

Sink contract (duck-typed, no registration): ``emit(record)`` appends
one record, ``records`` is an iterable view of what is still held in
memory, ``flush()`` hands buffered records on to where they go,
``clear()`` resets the sink (including any backing file), ``close()``
releases resources. ``emit`` is looked up **once** by the recorder and
called directly, so a sink's ``emit`` should be as cheap as possible.
``Simulator.run`` flushes its trace's sink whenever it returns, so a
sink may buffer records in ``emit`` (:class:`JsonlSink` buffers file
lines, :class:`~repro.obs.spans.SpanBuilder` buffers records before it
reconstructs spans) and still be current after every run. Only
``emit`` is required: a sink without ``flush`` is never flushed, and a
:class:`TeeSink` skips branches that lack it.
"""

import json

from repro.kernel.trace import ListSink, Trace, TraceRecord, TraceSink

__all__ = [
    "JsonlSink",
    "ListSink",
    "TeeSink",
    "TraceSink",
    "dumps_record",
    "iter_jsonl",
    "load_jsonl",
    "obj_to_record",
    "record_to_obj",
]


#: lines :class:`JsonlSink` buffers before one write to its file
BUFFER_RECORDS = 256


class JsonlSink(TraceSink):
    """Streaming JSON-lines file sink: O(1) memory for any trace length.

    Each record becomes one JSON object per line (see
    :func:`record_to_obj` for the key scheme). Nothing is retained in
    memory — ``records`` is empty; reload the file with
    :func:`load_jsonl` to query or export it.

    ``emit`` encodes the record and appends it to a small line buffer;
    the buffer is written out every :data:`BUFFER_RECORDS` lines (one
    syscall per batch instead of two per record, which keeps the
    hot-path overhead near the in-memory sink). Call :meth:`flush` to
    push buffered lines to the OS mid-run; :meth:`close` flushes
    automatically.

    Usable as a context manager (the :class:`TraceSink` base closes on
    exit); ``emit`` after ``close`` raises :class:`RuntimeError` rather
    than hitting the closed file object.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w")
        self._emitted = 0
        self._buffer = []

    def emit(self, record):
        if self._fh.closed:
            raise RuntimeError(
                f"emit() on closed JsonlSink({self.path!r}); "
                "the sink cannot be reused after close()"
            )
        buffer = self._buffer
        buffer.append(dumps_record(record))
        self._emitted += 1
        if len(buffer) >= BUFFER_RECORDS:
            self._fh.write("\n".join(buffer) + "\n")
            buffer.clear()

    @property
    def emitted(self):
        return self._emitted

    def clear(self):
        """Truncate the backing file and restart the stream."""
        self._buffer.clear()
        self._fh.seek(0)
        self._fh.truncate()
        self._emitted = 0

    def flush(self):
        if self._fh.closed:
            return  # close() already flushed everything
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._fh.flush()

    def close(self):
        if not self._fh.closed:
            self.flush()
            self._fh.close()


class TeeSink(TraceSink):
    """Fan one record stream out to several sinks.

    ``records`` (and the query layer on top of it) reads from the first
    sink, so ``TeeSink(ListSink(), JsonlSink(path))`` gives an in-memory
    view *and* a streamed file.
    """

    def __init__(self, *sinks):
        if not sinks:
            raise ValueError("TeeSink needs at least one sink")
        self.sinks = sinks

    def emit(self, record):
        for sink in self.sinks:
            sink.emit(record)

    @property
    def records(self):
        return self.sinks[0].records

    @property
    def emitted(self):
        return self.sinks[0].emitted

    def clear(self):
        for sink in self.sinks:
            sink.clear()

    def flush(self):
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self):
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# JSONL record codec
# ----------------------------------------------------------------------

def record_to_obj(record):
    """``TraceRecord`` -> plain dict with short keys (t/c/a/i/d)."""
    obj = {"t": record.time, "c": record.category, "a": record.actor}
    if record.info:
        obj["i"] = record.info
    if record.data:
        obj["d"] = record.data
    return obj


# ``default=str`` defeats json.dumps' cached-encoder fast path, so one
# precompiled encoder serves every record instead of building a fresh
# JSONEncoder per line
_ENCODE = json.JSONEncoder(separators=(",", ":"), default=str).encode


def dumps_record(record):
    """One compact JSON line for ``record`` (no trailing newline).

    Non-JSON payload values in ``data`` are stringified — the trace
    stream must never fail because an application put an object into a
    user mark.
    """
    return _ENCODE(record_to_obj(record))


def obj_to_record(obj):
    """Inverse of :func:`record_to_obj`."""
    return TraceRecord(
        obj["t"], obj["c"], obj["a"], obj.get("i", ""), obj.get("d", {})
    )


def iter_jsonl(path, strict=False):
    """Yield :class:`TraceRecord` objects from a JSONL trace file.

    A crashed or killed run leaves a cut-off final line — undecodable
    *and* missing its newline terminator. By default that tail is
    tolerated (iteration simply ends at the last complete record — the
    natural contract for post-mortem analysis of exactly such runs).
    ``strict=True`` restores the raise. A malformed but *complete*
    line (newline-terminated, or followed by more data) is real
    corruption and always raises :class:`json.JSONDecodeError`.
    """
    with open(path) as fh:
        lines = iter(fh)
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError:
                if strict or line.endswith("\n"):
                    raise  # complete line that isn't JSON: corrupt
                for rest in lines:
                    if rest.strip():
                        raise  # not the final line: corrupt mid-file
                return
            yield obj_to_record(obj)


def load_jsonl(path, strict=False):
    """Load a JSONL trace file into a fresh in-memory ``Trace``.

    The result supports the full query layer (``segments``, ``count``,
    ...) and every exporter (VCD, Gantt, Chrome Trace Format).
    ``strict=`` is :func:`iter_jsonl`'s truncated-tail behavior.
    """
    trace = Trace()
    records = trace.records
    for record in iter_jsonl(path, strict=strict):
        records.append(record)
    return trace
