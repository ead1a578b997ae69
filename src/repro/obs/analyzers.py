"""Online analyzers over the causal span stream.

Every analyzer here is a :class:`~repro.obs.spans.SpanAnalyzer`: it
subscribes to the hooks of a streaming
:class:`~repro.obs.spans.SpanBuilder` and keeps **O(1) state per
task** — no span list is ever retained, so analyzers ride along
million-record runs and farm workloads at fixed memory.

:class:`LatencyDigest`
    the building block (defined in :mod:`repro.obs.metrics`, where it
    is also the registry's histogram): an integer quantile digest in
    the spirit of HDR histograms — exact below :data:`DIGEST_EXACT`,
    then logarithmic buckets with 6 sub-bucket bits (≤ 1.6 % relative
    error). Pure integer bucketing makes it fully **deterministic**
    (two runs of the same simulation produce byte-identical digests)
    and **mergeable** in any order (campaign aggregation merges
    per-run digests without re-simulating; merge is associative and
    commutative, so worker scheduling cannot change the result).
:class:`LatencyAnalyzer`
    per-task digests of response time, scheduling latency and blocking
    time.
:class:`InversionDetector`
    priority-inversion incidents (a task blocked on a resource held by
    a *less* urgent task while intermediate-priority tasks ran — the
    detector names the inverting task and the blocking duration) plus
    the top blocking chains by duration.
:class:`WorstCaseTracker`
    the max-response job per task, with its causal chain — the
    *witness* of the worst case.
:class:`MissSummary`
    per-task job outcome census (completed / missed / killed / open /
    skipped cycles).
:class:`ModeTracker`
    mixed-criticality mode history — every raise/recover transition
    with its trigger, plus the per-task degraded-release census.
"""

import heapq

__all__ = [
    "DIGEST_EXACT",
    "InversionDetector",
    "LatencyAnalyzer",
    "LatencyDigest",
    "MissSummary",
    "ModeTracker",
    "WorstCaseTracker",
]

from repro.obs.metrics import DIGEST_EXACT, LatencyDigest
from repro.obs.spans import SpanAnalyzer


class LatencyAnalyzer(SpanAnalyzer):
    """Per-task response / scheduling-latency / blocking-time digests."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.response = {}
        self.sched_latency = {}
        self.blocking = {}

    def _digest(self, table, task):
        digest = table.get(task)
        if digest is None:
            digest = table[task] = LatencyDigest()
        return digest

    def on_job(self, job):
        if job.response is not None and job.outcome == "complete":
            self._digest(self.response, job.task).observe(job.response)
        if job.sched_latency is not None:
            self._digest(self.sched_latency, job.task).observe(
                job.sched_latency)

    def on_block(self, block):
        if block.duration is not None:
            self._digest(self.blocking, block.task).observe(block.duration)

    def as_dict(self):
        """Mergeable per-task digest dump (see :meth:`merge_dicts`)."""
        return {
            "response": {t: d.as_dict()
                         for t, d in sorted(self.response.items())},
            "sched_latency": {t: d.as_dict()
                              for t, d in sorted(self.sched_latency.items())},
            "blocking": {t: d.as_dict()
                         for t, d in sorted(self.blocking.items())},
        }

    def summary(self):
        """Percentile summary per task (the report's latency table)."""
        return {
            kind: {task: digest.percentiles()
                   for task, digest in sorted(table.items())}
            for kind, table in (
                ("response", self.response),
                ("sched_latency", self.sched_latency),
                ("blocking", self.blocking),
            )
        }

    @staticmethod
    def merge_dicts(dumps):
        """Merge ``as_dict`` dumps from many runs into one dump.

        Associative and order-insensitive: campaign aggregation calls
        this over whatever run order the farm produced and the result
        is byte-identical.
        """
        merged = {}
        for dump in dumps:
            for kind, table in dump.items():
                out = merged.setdefault(kind, {})
                for task, obj in table.items():
                    if task in out:
                        out[task].merge(obj)
                    else:
                        out[task] = LatencyDigest.from_dict(obj)
        return {
            kind: {task: digest.as_dict()
                   for task, digest in sorted(table.items())}
            for kind, table in sorted(merged.items())
        }

    @staticmethod
    def summarize_dump(dump):
        """Percentile summary of an ``as_dict`` / ``merge_dicts`` dump."""
        return {
            kind: {
                task: LatencyDigest.from_dict(obj).percentiles()
                for task, obj in sorted(table.items())
            }
            for kind, table in sorted(dump.items())
        }


class InversionDetector(SpanAnalyzer):
    """Priority-inversion incidents and top blocking chains.

    Needs task priorities, i.e. an armed span-source stream
    (``RTOSModel.trace_spans(True)``); on an unarmed stream it still
    collects blocking chains but cannot classify inversions.

    An *incident* is a block span of task ``T`` whose wake edge came
    from a task ``H`` with lower urgency (numerically larger priority)
    — ``H`` held the resource ``T`` waited for. Tasks with priorities
    strictly between that executed during the block window are the
    *inverting* tasks: they delayed ``H``'s release of the resource,
    making the inversion unbounded. The incident names them with their
    accumulated execution time inside the window.
    """

    def __init__(self, top=10, min_duration=1):
        self.top = top
        self.min_duration = min_duration
        self.clear()

    def clear(self):
        self.priority = {}
        self.incidents = []
        self._open = {}     # task -> {"start", "runners": {name: time}}
        self._chains = []   # bounded heap of (duration, ...) entries
        self._seq = 0

    def on_meta(self, task, meta):
        if "priority" in meta:
            self.priority[task] = meta["priority"]

    def on_block_open(self, task, start, reason, events):
        self._open[task] = {"start": start, "runners": {}}

    def on_exec(self, actor, start, end):
        for task, window in self._open.items():
            if task == actor:
                continue
            overlap = end - max(start, window["start"])
            if overlap > 0:
                runners = window["runners"]
                runners[actor] = runners.get(actor, 0) + overlap

    def on_block(self, block):
        window = self._open.pop(block.task, None)
        if block.duration is None or block.duration < self.min_duration:
            return
        self._note_chain(block)
        edge = block.edge
        if edge is None or edge.kind != "notify":
            return
        blocked_prio = self.priority.get(block.task)
        holder_prio = self.priority.get(edge.source)
        if blocked_prio is None or holder_prio is None:
            return
        if holder_prio <= blocked_prio:
            return  # woken by an equally or more urgent task: no inversion
        runners = window["runners"] if window else {}
        inverters = {
            name: time for name, time in runners.items()
            if blocked_prio < self.priority.get(name, blocked_prio) < holder_prio
            and time > 0
        }
        if not inverters:
            return  # bounded (direct) blocking, not an inversion
        worst = max(inverters.items(), key=lambda item: (item[1], item[0]))
        self.incidents.append({
            "task": block.task,
            "holder": edge.source,
            "resource": edge.event,
            "start": block.start,
            "end": block.end,
            "duration": block.duration,
            "inverter": worst[0],
            "inverter_time": worst[1],
            "inverters": {name: inverters[name]
                          for name in sorted(inverters)},
        })

    def _note_chain(self, block):
        edge = block.edge
        entry = (
            block.duration, -block.start, block.task, self._seq,
            {
                "task": block.task,
                "start": block.start,
                "end": block.end,
                "duration": block.duration,
                "reason": block.reason,
                "events": list(block.events),
                "edge": edge.as_dict() if edge is not None else None,
            },
        )
        self._seq += 1
        if len(self._chains) < self.top:
            heapq.heappush(self._chains, entry)
        else:
            heapq.heappushpop(self._chains, entry)

    def chains(self):
        """Top blocking chains, longest first (deterministic order)."""
        ordered = sorted(self._chains,
                         key=lambda e: (-e[0], -e[1], e[2], e[3]))
        return [entry[4] for entry in ordered]

    def as_dict(self):
        return {
            "incidents": self.incidents,
            "chains": self.chains(),
        }


class WorstCaseTracker(SpanAnalyzer):
    """Max-response witness per task: the exact chain behind the worst
    job (first occurrence wins ties, so the result is deterministic)."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.worst = {}

    def on_job(self, job):
        if job.response is None:
            return
        best = self.worst.get(job.task)
        if best is None or job.response > best["response"]:
            self.worst[job.task] = job.as_dict()

    def as_dict(self):
        return {task: self.worst[task] for task in sorted(self.worst)}


class MissSummary(SpanAnalyzer):
    """Per-task job outcome census."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.tasks = {}

    def _row(self, task):
        row = self.tasks.get(task)
        if row is None:
            row = self.tasks[task] = {
                "jobs": 0, "completed": 0, "missed": 0, "killed": 0,
                "open": 0, "skipped_cycles": 0,
            }
        return row

    def on_job(self, job):
        row = self._row(job.task)
        row["jobs"] += 1
        if job.outcome == "complete":
            row["completed"] += 1
        elif job.outcome == "killed":
            row["killed"] += 1
        else:
            row["open"] += 1
        if job.missed:
            row["missed"] += 1

    def on_fault(self, task, kind, time, data):
        if kind == "skip_cycle":
            self._row(task)["skipped_cycles"] += data.get("skipped", 1)

    def as_dict(self):
        rows = {task: dict(self.tasks[task]) for task in sorted(self.tasks)}
        totals = {
            key: sum(row[key] for row in rows.values())
            for key in ("jobs", "completed", "missed", "killed", "open",
                        "skipped_cycles")
        }
        return {"tasks": rows, "totals": totals}


class ModeTracker(SpanAnalyzer):
    """Mixed-criticality mode history from ``mode`` trace records.

    Collects every raise/recover transition (time, direction, new
    level, previous level, triggering task) plus a per-task census of
    degraded releases. Empty on MC-unarmed runs — the text report then
    skips the section.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.transitions = []
        self.degraded = {}

    def on_mode(self, actor, kind, time, data):
        if kind in ("raise", "recover"):
            self.transitions.append({
                "time": time,
                "kind": kind,
                "level": data.get("level"),
                "prev": data.get("prev"),
                "trigger": data.get("trigger"),
            })
        elif kind == "degrade":
            row = self.degraded.setdefault(
                actor, {"releases": 0, "policy": data.get("policy")}
            )
            row["releases"] += 1

    def as_dict(self):
        return {
            "raises": sum(
                1 for t in self.transitions if t["kind"] == "raise"
            ),
            "recoveries": sum(
                1 for t in self.transitions if t["kind"] == "recover"
            ),
            "transitions": list(self.transitions),
            "degraded": {
                task: dict(self.degraded[task])
                for task in sorted(self.degraded)
            },
        }
