"""Chrome Trace Format (Perfetto / ``chrome://tracing``) export.

Maps a :class:`~repro.kernel.trace.Trace` onto the Chrome Trace Format
JSON array-of-events dialect, loadable by Perfetto's legacy importer and
``chrome://tracing``:

* ``exec`` segments -> complete duration events (``ph: "X"``), one track
  (pid/tid pair) per actor under the "exec" process group;
* ``task`` state transitions -> thread-scoped instant events
  (``ph: "i"``) on the same actor track;
* ``sched`` records (dispatch/preempt/switch) -> instant events on the
  scheduler track of the "os" process group;
* ``irq`` records -> instant events on the "irq" group;
* ``fault`` records (injections, deadline misses, budget overruns) ->
  instant events on the "fault" group;
* ``mode`` records (criticality raises/recoveries, degraded releases) ->
  instant events on the "mode" group;
* ``user``/``chan``/other records -> instant events on the "app" group;
* a derived **counter track** (``ph: "C"``, name ``running``) stepping
  +1/-1 at every segment boundary — CPU/actor occupancy over time;
* reconstructed **causal wake edges** (:mod:`repro.obs.spans`) -> flow
  arrows (``ph: "s"``/``"f"``) from the waking actor's track to the
  woken task's track — Perfetto draws who ended each block;
* per-task **response-time counter tracks** (``ph: "C"``, name
  ``latency.<task>``) stepping at each job completion.

Timestamps are the simulator's integer time units passed through
unchanged (CTF nominally wants microseconds; for a relative timeline the
unit only affects the axis label).

:func:`validate_ctf` is the schema check the tests and the CLI run
before a document is written: required fields per phase type, and
monotone, non-overlapping durations per track.
"""

import json

from repro.analysis.trace_analysis import exec_segments

#: process-group ids (CTF "pid") used by the exporter
EXEC_PID = 1
OS_PID = 2
IRQ_PID = 3
APP_PID = 4
FAULT_PID = 5
MODE_PID = 6

_GROUP_NAMES = {
    EXEC_PID: "exec",
    OS_PID: "os",
    IRQ_PID: "irq",
    APP_PID: "app",
    FAULT_PID: "fault",
    MODE_PID: "mode",
}

#: trace category -> process group for instant events
_INSTANT_PID = {
    "sched": OS_PID, "irq": IRQ_PID, "fault": FAULT_PID, "mode": MODE_PID,
}


def to_ctf(trace):
    """Render ``trace`` as a Chrome Trace Format document (a dict).

    The result is JSON-ready: ``json.dump(to_ctf(trace), fh)`` or use
    :func:`write_ctf`.
    """
    events = []
    segments = exec_segments(trace)
    actors = []
    for actor, *_ in segments:
        if actor not in actors:
            actors.append(actor)
    tids = {actor: index + 1 for index, actor in enumerate(actors)}

    for pid, label in _GROUP_NAMES.items():
        events.append(_meta("process_name", pid, 0, {"name": label}))
    for actor, tid in tids.items():
        events.append(_meta("thread_name", EXEC_PID, tid, {"name": actor}))
    events.append(_meta("thread_name", OS_PID, 0, {"name": "scheduler"}))

    # exec segments -> complete duration events + occupancy counter deltas
    deltas = {}
    for actor, start, end, info in segments:
        events.append({
            "name": actor,
            "cat": "exec",
            "ph": "X",
            "ts": start,
            "dur": end - start,
            "pid": EXEC_PID,
            "tid": tids[actor],
            "args": {"info": info},
        })
        deltas[start] = deltas.get(start, 0) + 1
        deltas[end] = deltas.get(end, 0) - 1

    # derived counter track: number of actors executing at each instant
    running = 0
    for time in sorted(deltas):
        running += deltas[time]
        events.append({
            "name": "running",
            "ph": "C",
            "ts": time,
            "pid": EXEC_PID,
            "tid": 0,
            "args": {"running": running},
        })

    # instant events: task states on the actor's exec track; sched/irq/
    # user/chan records on their own process groups
    for record in trace:
        category = record.category
        if category == "exec":
            continue
        if category == "task":
            pid = EXEC_PID
            tid = tids.get(record.actor, 0)
        else:
            pid = _INSTANT_PID.get(category, APP_PID)
            tid = 0
        events.append({
            "name": record.info or category,
            "cat": category,
            "ph": "i",
            "s": "t",
            "ts": record.time,
            "pid": pid,
            "tid": tid,
            "args": _jsonable(record.data),
        })

    events.extend(_flow_events(trace, tids))

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro (RTOS Modeling for System Level Design)",
            "time_unit": "ns",
        },
    }


def _flow_events(trace, tids):
    """Causal wake arrows + per-task latency counters from the span
    layer (works on armed and unarmed streams alike)."""
    from repro.obs.spans import build_spans

    builder = build_spans(trace.records)
    events = []
    flow_id = 0
    for block in builder.blocks:
        edge = block.edge
        if edge is None or not edge.source:
            continue
        source_tid = tids.get(edge.source)
        target_tid = tids.get(block.task)
        if source_tid is None or target_tid is None:
            continue
        flow_id += 1
        name = f"wake:{edge.kind}"
        finish = block.resumed if block.resumed is not None else edge.time
        events.append({
            "name": name, "cat": "wake", "ph": "s", "id": flow_id,
            "ts": edge.time, "pid": EXEC_PID, "tid": source_tid,
            "args": {"event": edge.event, "blocked": block.duration},
        })
        events.append({
            "name": name, "cat": "wake", "ph": "f", "bp": "e",
            "id": flow_id, "ts": finish, "pid": EXEC_PID,
            "tid": target_tid, "args": {},
        })
    for job in builder.jobs:
        if job.response is None:
            continue
        events.append({
            "name": f"latency.{job.task}", "ph": "C", "ts": job.end,
            "pid": EXEC_PID, "tid": 0,
            "args": {"response": job.response},
        })
    return events


def write_ctf(trace, path):
    """Validate and write the CTF rendering of ``trace`` to ``path``."""
    document = to_ctf(trace)
    validate_ctf(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return path


def _meta(name, pid, tid, args):
    return {
        "name": name, "ph": "M", "pid": pid, "tid": tid, "args": args,
    }


def _jsonable(data):
    return {
        key: value
        if isinstance(value, (int, float, str, bool, type(None)))
        else str(value)
        for key, value in data.items()
    }


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------

_REQUIRED = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid", "s"),
    "C": ("name", "ts", "pid", "args"),
    "M": ("name", "pid", "args"),
    "s": ("name", "id", "ts", "pid", "tid"),
    "f": ("name", "id", "ts", "pid", "tid"),
}


def validate_ctf(document):
    """Check ``document`` against the Chrome Trace Format event schema.

    Raises :class:`ValueError` on the first violation; returns the
    number of events otherwise. Checked invariants:

    * the JSON-object dialect with a ``traceEvents`` list;
    * every event has a known ``ph`` and that phase's required fields;
    * ``ts``/``dur`` are non-negative numbers, ``pid``/``tid`` ints;
    * instant-event scope ``s`` is one of ``t``/``p``/``g``;
    * counter args are numeric;
    * flow events pair up: every start (``s``) id has a finish (``f``)
      and vice versa;
    * per (pid, tid) track, ``X`` durations are monotone and
      non-overlapping (sorted by ``ts``, each starts at or after the
      previous one's end).
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a CTF JSON-object document (no traceEvents)")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    tracks = {}
    flow_starts, flow_finishes = set(), set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{index} is not an object")
        phase = event.get("ph")
        if phase not in _REQUIRED:
            raise ValueError(f"event #{index}: unsupported ph {phase!r}")
        for field in _REQUIRED[phase]:
            if field not in event:
                raise ValueError(
                    f"event #{index} (ph={phase}): missing field {field!r}"
                )
        if phase != "M":
            ts = event["ts"]
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"event #{index}: bad ts {ts!r}")
        if "pid" in event and not isinstance(event["pid"], int):
            raise ValueError(f"event #{index}: non-int pid")
        if "tid" in event and not isinstance(event["tid"], int):
            raise ValueError(f"event #{index}: non-int tid")
        if phase == "X":
            dur = event["dur"]
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event #{index}: bad dur {dur!r}")
            tracks.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], dur, index)
            )
        elif phase == "i":
            if event["s"] not in ("t", "p", "g"):
                raise ValueError(
                    f"event #{index}: bad instant scope {event['s']!r}"
                )
        elif phase == "C":
            for key, value in event["args"].items():
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"event #{index}: counter {key!r} not numeric"
                    )
        elif phase == "s":
            flow_starts.add(event["id"])
        elif phase == "f":
            flow_finishes.add(event["id"])
    unpaired = flow_starts ^ flow_finishes
    if unpaired:
        raise ValueError(
            f"unpaired flow ids: {sorted(unpaired)[:5]} "
            f"({len(unpaired)} total)"
        )
    for (pid, tid), spans in tracks.items():
        spans.sort(key=lambda span: (span[0], span[0] + span[1]))
        cursor = None
        for ts, dur, index in spans:
            if cursor is not None and ts < cursor:
                raise ValueError(
                    f"track pid={pid} tid={tid}: event #{index} at ts={ts} "
                    f"overlaps the previous duration ending at {cursor}"
                )
            cursor = ts + dur
    return len(events)
