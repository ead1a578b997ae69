"""Trace recording.

All layers of the reproduction (kernel, RTOS model, platform, ISS) emit
:class:`TraceRecord` entries into a shared :class:`Trace`. The analysis
package (:mod:`repro.analysis`) turns these records into Gantt charts,
response times and the transcoding-delay metric of Table 1; the
observability package (:mod:`repro.obs`) exports them to external tools
(Chrome Trace Format / Perfetto, VCD, JSONL).

Record categories used across the project:

``exec``
    a named actor executed for a time segment (``data`` holds ``start``
    and ``end``); emitted by behaviors and RTOS tasks.
``task``
    an RTOS task state transition (``data["state"]``).
``sched``
    scheduler activity: ``dispatch``, ``preempt``, ``switch``.
``irq``
    interrupt raised / serviced.
``chan``
    channel send/receive.
``user``
    free-form application markers.

Records are written through a pluggable **sink** (see
:class:`TraceSink`). The default :class:`ListSink` keeps everything in
an in-memory list — bit-identical behavior to the pre-sink recorder —
while :mod:`repro.obs.sinks` adds a bounded ring buffer and a streaming
JSONL file sink for simulations whose full trace must not live in
memory.

A record is an immutable tuple of five named fields
(:class:`TraceRecord`). :meth:`Trace.record` and :meth:`Trace.segment`
build it with one C-level ``tuple.__new__`` call and run no Python
constructor: every traced run (Gantt charts, response times, the spans
of :mod:`repro.obs`) pays that per entry.

Disabled tracing (``trace.enabled = False``) has two effects, set
together by the one switch:

* the plain attribute ``Trace.on`` becomes ``False``. The RTOS and
  platform sites that record once per job or more often (dispatch,
  context switch, execution segment, release, deadline miss,
  preemption, budget throttle, event wait/notify/timeout, IRQ raise,
  service and return) test it first, so with tracing off they
  evaluate no argument and make no call;
* ``record`` and ``segment`` are swapped for a module-level no-op on
  the instance. Every other caller goes through the swap: apps,
  channels, behaviors, the once-per-task RTOS records (create,
  terminate, kill, sleep, par, fork, join), fault and MC records, and
  user code. Such a call still builds its arguments and costs about
  a quarter of a microsecond; a flag test costs a tenth of that.
"""

from collections import namedtuple
from itertools import islice


class TraceRecord(
    namedtuple("TraceRecord", ("time", "category", "actor", "info", "data"))
):
    """One timestamped trace entry: an immutable tuple of five fields.

    ``info`` defaults to ``""`` and ``data`` to a fresh empty dict per
    record. Fields are read by name; assigning one raises
    :class:`AttributeError`. Two records are equal when their fields
    are, and a record never equals a plain tuple. ``repr`` prints the
    fields by name, and records pickle and copy.
    """

    __slots__ = ()

    def __new__(cls, time, category, actor, info="", data=None):
        return tuple.__new__(cls, (time, category, actor, info,
                                   {} if data is None else data))

    def __eq__(self, other):
        if isinstance(other, tuple):
            return other.__class__ is self.__class__ and tuple.__eq__(self, other)
        return NotImplemented

    # tuple has its own ``__ne__``; object's negates ``__eq__`` above.
    # Defining ``__eq__`` drops the inherited hash, so take tuple's back.
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def __str__(self):
        extra = f" {self.data}" if self.data else ""
        return f"[{self.time:>10}] {self.category:<6} {self.actor:<16} {self.info}{extra}"


# the recorder passes all five fields, so it skips the Python-level
# ``TraceRecord.__new__`` and its defaults
_new = tuple.__new__


class TraceSink:
    """Destination of trace records (duck-typed protocol + base class).

    A sink receives every record via ``emit(record)``; ``records`` is an
    iterable view of what the sink still holds in memory (possibly a
    bounded window, possibly nothing for streaming sinks). ``emit`` is
    looked up once by :class:`Trace` and called directly on the hot
    path, so implementations should make it as cheap as possible.
    """

    def emit(self, record):  # pragma: no cover - overridden everywhere
        raise NotImplementedError

    @property
    def records(self):
        """Records still held in memory (may be a subset, or empty)."""
        return ()

    @property
    def emitted(self):
        """Total records this sink has ever received."""
        return 0

    def clear(self):
        """Forget everything recorded so far (including backing files)."""

    def flush(self):
        """Push buffered records to their backing store, if any."""

    def close(self):
        """Release resources; the sink must not be emitted to afterwards."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ListSink(TraceSink):
    """Unbounded in-memory sink — the default, and the seed behavior.

    ``emit`` *is* the backing list's ``append`` (no wrapper frame), so a
    trace writing through this sink costs exactly what the pre-sink
    ``self.records.append(...)`` did.
    """

    def __init__(self):
        self._records = []
        self.emit = self._records.append

    @property
    def records(self):
        return self._records

    @property
    def emitted(self):
        return len(self._records)

    def clear(self):
        # in place: ``emit`` stays bound to the same list
        self._records.clear()


def _noop(*args, **kwargs):
    """Stand-in for ``record``/``segment`` while tracing is disabled."""
    return None


class Trace:
    """An append-only record stream with query helpers.

    Records are written through ``sink`` (default: a fresh
    :class:`ListSink`). The query helpers read the sink's in-memory
    ``records`` view — for a streaming sink (e.g.
    :class:`repro.obs.sinks.JsonlSink`) they see nothing; reload the
    file with :func:`repro.obs.sinks.load_jsonl` to query it.

    ``enabled`` is the only switch. Setting it sets two things at once
    (see the module docstring): the plain attribute ``on``, which
    always equals ``enabled``, and the swap of ``record`` and
    ``segment`` for a module-level no-op on the *instance* while
    tracing is off. ``on`` is read-only: only ``__init__`` and the
    ``enabled`` setter write it. The hot record sites of the RTOS
    model (:mod:`repro.rtos.dispatch`, ``taskmgr``, ``eventmgr``,
    ``model`` and ``sched.hier``) and of the platform
    (:mod:`repro.platform.interrupt`) read it before they build a
    record, because a plain attribute read is cheaper than the
    ``enabled`` property. Every other caller relies on the swap.
    """

    def __init__(self, sink=None):
        self._sink = sink if sink is not None else ListSink()
        self._emit = self._sink.emit
        self.on = True

    @property
    def sink(self):
        return self._sink

    @sink.setter
    def sink(self, sink):
        self._sink = sink
        self._emit = sink.emit

    @property
    def records(self):
        """In-memory records view of the attached sink."""
        return self._sink.records

    @property
    def enabled(self):
        return self.on

    @enabled.setter
    def enabled(self, value):
        value = bool(value)
        self.on = value
        if value:
            # drop the instance-level no-ops; the class methods show again
            self.__dict__.pop("record", None)
            self.__dict__.pop("segment", None)
        else:
            self.record = _noop
            self.segment = _noop

    def record(self, time, category, actor, info="", **data):
        self._emit(_new(TraceRecord, (time, category, actor, info, data)))

    def segment(self, actor, start, end, info="run"):
        """Record one contiguous execution segment of ``actor``."""
        self._emit(_new(TraceRecord, (end, "exec", actor, info,
                                      {"start": start, "end": end})))

    # -- queries -----------------------------------------------------------

    def by_category(self, category):
        return [r for r in self.records if r.category == category]

    def by_actor(self, actor):
        return [r for r in self.records if r.actor == actor]

    def segments(self, actor=None):
        """All ``exec`` segments as (actor, start, end, info) tuples."""
        result = []
        for r in self.records:
            if r.category != "exec":
                continue
            if actor is not None and r.actor != actor:
                continue
            result.append((r.actor, r.data["start"], r.data["end"], r.info))
        result.sort(key=lambda s: (s[1], s[2]))
        return result

    def count(self, category, info=None):
        return sum(
            1
            for r in self.records
            if r.category == category and (info is None or r.info == info)
        )

    def clear(self):
        """Reset the attached sink (in-memory records *and* any backing
        file), preserving ``enabled`` (the flag and the no-op swap)."""
        self._sink.clear()

    def flush(self):
        """Flush the attached sink's buffers (file sinks)."""
        self._sink.flush()

    def close(self):
        """Close the attached sink (file sinks)."""
        self._sink.close()

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def dump(self, limit=None):
        """Human-readable rendering of the trace (for examples/benches)."""
        records = self.records if limit is None else islice(self.records, limit)
        return "\n".join(str(r) for r in records)
